"""Run configuration.

A single JSON file drives the whole pipeline; CLI flags override selected
fields (backend, seed, max rounds, dry-run, prompt dumping). This module is
the one place that declares a setting: its name and JSON type (a dataclass
field), its default, and its valid range (``RunConfig.validate``, which
``Pipeline`` runs before any stage). Relative paths in the file, and the
default output root, resolve against the file's own directory so configs
can live next to their projects. The module imports nothing from the
package but its errors, so reading a config loads no numpy.
"""

from __future__ import annotations

import json
import math
import shlex
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from transmigrate.errors import ConfigurationError

DEFAULT_MAX_ROUNDS = 3

# Fields holding a path, resolved against the config file's directory.
_PATH_FIELDS = frozenset({"source_root", "output_root", "rules_file"})


@dataclass
class CrawlConfig:
    start_url: str | None = None  # crawl only when set: networkless by default
    max_depth: int = 1
    max_pages: int = 20


@dataclass
class KnowledgeConfig:
    embedding_dimension: int = 256
    retrieval_k: int = 3
    provider: str = "offline"  # "offline" | "remote"
    remote_endpoint: str | None = None
    crawl: CrawlConfig = field(default_factory=CrawlConfig)


@dataclass
class ToolsConfig:
    syntax_check_cmd: str = "swiftc -parse {file}"
    lint_cmd: str = "swiftlint lint --path {file}"
    timeout_seconds: float = 60.0


@dataclass
class BackendOptions:
    # Live-backend fields.
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4o"
    temperature: float = 0.0
    max_output_units: int | None = None
    retry_count: int = 2
    timeout_seconds: float = 60.0
    api_key_env: str = "TRANSMIGRATE_API_KEY"
    # Mock-backend field.
    rules_file: str | None = None


_JSON_TYPE_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    type(None): "null",
}


def _is_json_type(value, expected: type) -> bool:
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _check_keys(section: dict, prefix: str, hints: dict[str, type]) -> None:
    """A key that has no field in ``hints`` (field name -> type, in field
    order), or a value whose JSON type does not fit the field, is a
    ConfigurationError naming it as ``prefix + key``. ``null`` fits only the
    fields that default to None; a boolean is not a number, and a number
    must be finite (Python's ``json`` reads ``Infinity`` and ``NaN``).
    Nested sections are checked by ``_build``."""
    unknown = sorted(set(section) - set(hints))
    if unknown:
        raise ConfigurationError(
            f"unknown config key {', '.join(prefix + k for k in unknown)}"
            f" (known keys: {', '.join(hints)})"
        )
    for key, hint in hints.items():
        if key not in section or is_dataclass(hint):
            continue
        allowed = typing.get_args(hint) or (hint,)
        value = section[key]
        if not any(_is_json_type(value, t) for t in allowed):
            raise ConfigurationError(
                f"config key {prefix}{key} must be {' or '.join(_JSON_TYPE_NAMES[t] for t in allowed)},"
                f" got {json.dumps(value, default=str)}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"config key {prefix}{key} must be a finite number, got {json.dumps(value)}")


def _build(cls: type, section, prefix: str, base_dir: Path | None):
    """An instance of the dataclass ``cls`` from the JSON object ``section``,
    whose keys are named ``prefix + key`` in errors. Keys and types are
    checked, nested sections are built the same way, absent keys keep the
    field's default, and path fields, given or defaulted, resolve against
    ``base_dir``."""
    if not isinstance(section, dict):
        if not prefix:
            raise ConfigurationError("config must be a JSON object")
        raise ConfigurationError(f"config section {prefix[:-1]!r} must be a JSON object")
    hints = typing.get_type_hints(cls)
    _check_keys(section, prefix, hints)
    values = {}
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            values[f.name] = _build(hints[f.name], section.get(f.name, {}), f"{prefix}{f.name}.", base_dir)
        elif f.name in section:
            values[f.name] = section[f.name]
        if f.name in _PATH_FIELDS:
            path = values.get(f.name, f.default)
            if path is not None:
                path = Path(path)
                if base_dir is not None and not path.is_absolute():
                    path = base_dir / path
                values[f.name] = str(path)
    return cls(**values)


def _words(template: str) -> list[str] | None:
    """A checker template's shell words; None when ``shlex`` cannot split
    it (a quote left open)."""
    try:
        return shlex.split(template)
    except ValueError:
        return None


@dataclass
class RunConfig:
    source_root: str = ""
    output_root: str = "out"
    backend: str = ""  # "mock" | "live"
    project_name: str = "project"
    backend_options: BackendOptions = field(default_factory=BackendOptions)
    knowledge: KnowledgeConfig = field(default_factory=KnowledgeConfig)
    tools: ToolsConfig = field(default_factory=ToolsConfig)
    prompt_budget: int = 8000  # size units (chars / 4)
    max_rounds: int = DEFAULT_MAX_ROUNDS
    seed: int = 20240501
    dump_prompts: bool = False
    sample_issues: bool = False
    dry_run: bool = False

    def validate(self) -> None:
        """Check every value against its valid range, whatever the backend.
        A value out of range is a ConfigurationError naming its key."""
        if not self.backend:
            raise ConfigurationError("no backend configured (expected 'mock' or 'live')")
        if self.backend not in ("mock", "live"):
            raise ConfigurationError(f"unknown backend {self.backend!r} (expected 'mock' or 'live')")
        knowledge, opts, tools = self.knowledge, self.backend_options, self.tools
        templates = [(f"tools.{name}", getattr(tools, name)) for name in ("syntax_check_cmd", "lint_cmd")]
        for key, value, ok, wanted in (
            ("max_rounds", self.max_rounds, self.max_rounds >= 0, "must be >= 0"),
            ("prompt_budget", self.prompt_budget, self.prompt_budget >= 1, "must be >= 1"),
            (
                "knowledge.embedding_dimension",
                knowledge.embedding_dimension,
                knowledge.embedding_dimension >= 1,
                "must be >= 1",
            ),
            ("knowledge.retrieval_k", knowledge.retrieval_k, knowledge.retrieval_k >= 1, "must be >= 1"),
            ("knowledge.crawl.max_depth", knowledge.crawl.max_depth, knowledge.crawl.max_depth >= 0, "must be >= 0"),
            ("knowledge.crawl.max_pages", knowledge.crawl.max_pages, knowledge.crawl.max_pages >= 1, "must be >= 1"),
            (
                "knowledge.provider",
                knowledge.provider,
                knowledge.provider in ("offline", "remote"),
                'must be "offline" or "remote"',
            ),
            (
                "knowledge.remote_endpoint",
                knowledge.remote_endpoint,
                knowledge.provider != "remote" or bool(knowledge.remote_endpoint),
                'must be set when knowledge.provider is "remote"',
            ),
            ("backend_options.temperature", opts.temperature, 0 <= opts.temperature <= 2, "must be in [0, 2]"),
            ("backend_options.retry_count", opts.retry_count, opts.retry_count >= 0, "must be >= 0"),
            ("backend_options.timeout_seconds", opts.timeout_seconds, opts.timeout_seconds > 0, "must be > 0"),
            ("tools.timeout_seconds", tools.timeout_seconds, tools.timeout_seconds > 0, "must be > 0"),
            *(
                (key, template, _words(template) is not None, "must split into shell words")
                for key, template in templates
            ),
            *(
                (key, template, "{file}" in (_words(template) or ()), "must hold {file} as a shell word of its own")
                for key, template in templates
            ),
        ):
            if not ok:
                raise ConfigurationError(f"config key {key} {wanted}, got {json.dumps(value)}")
        if not Path(self.source_root).is_dir():
            raise ConfigurationError(f"source root is not a directory: {self.source_root}")
        if Path(self.output_root).resolve() == Path(self.source_root).resolve():
            # Outputs written into the hashed tree would refuse every resume.
            raise ConfigurationError(
                f"config key output_root must not be the source root, got {json.dumps(self.output_root)}"
            )

    def canonical_dict(self) -> dict:
        """Serializable form with output-independent fields only, used for
        change detection across resumes."""
        payload = asdict(self)
        payload.pop("output_root", None)
        payload.pop("dump_prompts", None)
        payload.pop("dry_run", None)
        return payload

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path | None = None) -> "RunConfig":
        return _build(cls, raw, "", base_dir)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw, base_dir=path.parent)
