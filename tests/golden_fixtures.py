"""Canonical inputs for the golden prompt renderings.

Shared by the golden tests and scripts/regen_golden.py so the stored
files and the assertions can never drift apart.
"""

from transmigrate.knowledge.chunks import DocumentChunk
from transmigrate.knowledge.index import RetrievalResult
from transmigrate.validation.issues import IssueRecord
from transmigrate.validation.refine import repair_inputs

RETRIEVED = [
    RetrievalResult(
        chunk=DocumentChunk(
            source_uri="README.md",
            kind="readme",
            text="MiniApp fetches a movie listing over HTTP and logs progress to the console.",
        ),
        score=0.83,
    ),
    RetrievalResult(
        chunk=DocumentChunk(
            source_uri="docs/usage.md",
            kind="api_doc",
            text="The console logger prefixes every message with the tag given at construction time.",
        ),
        score=0.61,
    ),
]

METHOD_INPUTS = {
    "method_name": "log",
    "file_name": "src/com/example/core/Logger.java",
    "method_code": (
        "public void log(String message) {\n"
        '    System.out.println(tag + ": " + message);\n'
        "}"
    ),
    "ast": (
        "(method_declaration\n"
        "  (identifier log)\n"
        "  (parameter_list)\n"
        "  (block))"
    ),
}

CLASS_INPUTS = {
    "class_name": "com.example.core.Logger",
    "class_content": (
        "public class Logger {\n"
        "    private String tag;\n"
        "    public Logger(String tag) { this.tag = tag; }\n"
        '    public void log(String message) { System.out.println(tag + ": " + message); }\n'
        "}"
    ),
    "translated_methods": (
        "// method: log\n"
        "func log(message: String) {\n"
        '    print("\\(tag): \\(message)")\n'
        "}"
    ),
    "ast": (
        "(class_declaration\n"
        "  (identifier Logger)\n"
        "  (type_body\n"
        "    (field_declaration (identifier tag))\n"
        "    (constructor_declaration (identifier Logger) (parameter_list) (block))\n"
        "    (method_declaration (identifier log) (parameter_list) (block))))"
    ),
    "dependency": "none",
}

COMPONENT_INPUTS = {
    "component_name": "com.example.core",
    "translated_classes": (
        "// class: com.example.core.Logger\n"
        "class ConsoleLogger {\n"
        "    var tag: String\n"
        "    init(tag: String) { self.tag = tag }\n"
        '    func log(message: String) { print("\\(tag): \\(message)") }\n'
        "}"
    ),
    "ast": "(class_declaration com.example.core.Logger)",
    "dependency": "none",
}

PROJECT_INPUTS = {
    "translated_components": (
        "// component: com.example.core\n"
        "class ConsoleLogger { }\n"
        "\n"
        "// component: com.example.net\n"
        "class HttpClient { }"
    ),
    "dependency": (
        "com.example.net -> com.example.core (call)\n"
        "com.example.ui -> com.example.net (call)"
    ),
    "resource": "res/drawable/logo.png\nres/values/strings.xml",
    "configuration": "--- AndroidManifest.xml\n<manifest package=\"com.example\"/>",
}

# The slot values translate's repair step gives: the issues of a round as
# diagnostic lines, its code, and the class prompt's output requirements.
REPAIR_INPUTS = repair_inputs(
    "class Logger {\n"
    "    var tag: String\n"
    "    init(tag: String) { self.tag = tag }\n"
    '    func log(message: String) { System.out.println("\\(tag): \\(message)") }\n'
    "}",
    [
        IssueRecord("Logger.swift", 4, 33, "error", None, "cannot find 'System' in scope", "syntax"),
        IssueRecord("Logger.swift", 4, 33, "warning", "platform-api", "Android API 'System.out' left in", "platform"),
    ],
)

ALL_INPUTS = {
    "method": METHOD_INPUTS,
    "class": CLASS_INPUTS,
    "component": COMPONENT_INPUTS,
    "project": PROJECT_INPUTS,
    "repair": REPAIR_INPUTS,
}
