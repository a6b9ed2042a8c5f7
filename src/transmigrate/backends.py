"""Translation backends: a live chat-completion client and a deterministic
rule-table mock.

The live wire format is a JSON POST of ``{"model", "messages", "temperature"}``
where messages carry the prompt split into a system part (the template's
first paragraph) and a user part (everything after it); the reply text is
the first choice's message content. The mock rewrites the envelope's code
payload with an ordered regex rule table and returns it fenced, which is
enough to drive the full pipeline bit-reproducibly; an empty rule table
is a backend that never fixes anything. Translate makes every call,
repair prompts included, from its one send step, so a backend sees each
prompt exactly as it was fitted to the budget and dumped.
Either backend's reply is text; ``extract_code`` reduces it to the Swift
code it carries, which is all a caller keeps of a reply. The live client
reads its settings from ``config.BackendOptions``, whose ranges
``RunConfig.validate`` checks before any stage runs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from transmigrate.config import BackendOptions
from transmigrate.errors import BackendError, ConfigurationError, ExtractionError, RetryableBackendError
from transmigrate.prompts import PromptEnvelope

logger = logging.getLogger(__name__)

# The slot of each level's prompt that holds the code payload the mock
# rewrites: the source at a translation level, the prior code in a repair.
_PAYLOAD_SLOT = {
    "method": "method_code",
    "class": "class_content",
    "component": "translated_classes",
    "project": "translated_components",
    "repair": "prior_code",
}


def split_system_user(rendered_text: str) -> tuple[str, str]:
    """First paragraph becomes the system message; the rest is the user
    message. Falls back to a single user message when there is no blank
    line."""
    parts = rendered_text.split("\n\n", 1)
    if len(parts) == 2:
        return parts[0].strip(), parts[1].strip()
    return "", rendered_text.strip()


class LiveBackend:
    """Chat-completion client with bounded retries on transport failures."""

    def __init__(self, options: BackendOptions) -> None:
        self.options = options

    def build_request_body(self, envelope: PromptEnvelope) -> dict:
        system, user = split_system_user(envelope.rendered_text)
        messages = []
        if system:
            messages.append({"role": "system", "content": system})
        messages.append({"role": "user", "content": user})
        body: dict = {
            "model": self.options.model,
            "messages": messages,
            "temperature": self.options.temperature,
        }
        if self.options.max_output_units is not None:
            body["max_tokens"] = self.options.max_output_units
        return body

    def translate(self, envelope: PromptEnvelope) -> str:
        # Imported here: urllib.request pulls in http.client, ssl and email,
        # which a run with the mock backend never needs.
        import urllib.error
        import urllib.request

        body = json.dumps(self.build_request_body(envelope)).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.options.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        prompt_hash = hashlib.sha256(envelope.rendered_text.encode("utf-8")).hexdigest()[:16]
        attempts = self.options.retry_count + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            request = urllib.request.Request(self.options.endpoint, data=body, headers=headers)
            started = time.monotonic()
            try:
                with urllib.request.urlopen(request, timeout=self.options.timeout_seconds) as resp:
                    reply = resp.read()
            except urllib.error.HTTPError as exc:
                excerpt = exc.read()[:200].decode("utf-8", "replace")
                raise BackendError(f"backend returned status {exc.code}: {excerpt}") from exc
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                last_error = exc
                logger.warning("backend transport failure (attempt %d): %s", attempt, exc)
                continue
            latency = time.monotonic() - started
            logger.info("backend call prompt=%s attempt=%d latency=%.3fs", prompt_hash, attempt, latency)
            return _message_content(reply, self.options.endpoint)
        raise RetryableBackendError(
            f"backend unreachable after {attempts} attempts: {last_error}"
        ) from last_error


def _message_content(reply: bytes, endpoint: str) -> str:
    """The first choice's message content of a success reply. A reply that
    is not JSON with a string there is a BackendError, not retried: the
    server answered, and asking again would send the same prompt."""
    try:
        content = json.loads(reply.decode("utf-8"))["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError):
        content = None
    if not isinstance(content, str):
        excerpt = reply[:200].decode("utf-8", "replace")
        raise BackendError(f"backend {endpoint} sent no choices[0].message.content string: {excerpt}")
    return content


def _rule_problem(entry) -> str | None:
    """Why a rule table entry is not a rule: an object with a string
    ``pattern`` that compiles, a string ``replacement`` valid for it, and a
    ``when``, if any, of ``always``, ``translate`` or ``repair``."""
    if not isinstance(entry, dict):
        return "not an object"
    for key in ("pattern", "replacement"):
        if not isinstance(entry.get(key), str):
            return f'"{key}" must be a string'
    if entry.get("when", "always") not in ("always", "translate", "repair"):
        return '"when" must be "always", "translate" or "repair"'
    try:
        re.compile(entry["pattern"], flags=re.MULTILINE).sub(entry["replacement"], "")
    except (re.error, IndexError) as exc:  # 3.11 raises IndexError for an unknown group name
        return f"invalid pattern or replacement: {exc}"
    return None


@dataclass
class MockRule:
    pattern: str
    replacement: str
    when: str = "always"  # "always" | "translate" | "repair"

    @cached_property
    def compiled(self) -> re.Pattern[str]:
        return re.compile(self.pattern, flags=re.MULTILINE)


class MockBackend:
    """Deterministic rewriter. Applies its rule table to the envelope's code
    payload and returns the result in a single fenced block. An empty rule
    table is a pass-through (a backend that never fixes anything).
    """

    def __init__(self, rules: list[MockRule] | None = None) -> None:
        self.rules = list(rules or [])

    @classmethod
    def from_rules_file(cls, path: str | Path) -> "MockBackend":
        """The backend of a JSON rule table: a list of rules, or an object
        whose ``"rules"`` is one. A table that cannot be read, or an entry
        that is not a rule, is a ConfigurationError naming the file and the
        entry."""
        where = f"backend_options.rules_file {str(path)!r}"
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"{where}: cannot read a rule table: {exc}") from None
        entries = raw.get("rules") if isinstance(raw, dict) else raw
        if not isinstance(entries, list):
            raise ConfigurationError(f'{where}: the rules must be a list, or an object whose "rules" is one')
        for n, entry in enumerate(entries):
            problem = _rule_problem(entry)
            if problem:
                raise ConfigurationError(f"{where}: rule {n} {json.dumps(entry)}: {problem}")
        return cls([MockRule(e["pattern"], e["replacement"], e.get("when", "always")) for e in entries])

    def translate(self, envelope: PromptEnvelope) -> str:
        out = envelope.slots[_PAYLOAD_SLOT[envelope.level]]
        mode = "repair" if envelope.level == "repair" else "translate"
        for rule in self.rules:
            if rule.when in ("always", mode):
                out = rule.compiled.sub(rule.replacement, out)
        return f"```swift\n{out}\n```"


_FENCE_OPEN_RE = re.compile(r"^```[\w+-]*\s*$")
_FENCE_CLOSE_RE = re.compile(r"^```\s*$")


def extract_code(response: str) -> str:
    """The target code in a backend response.

    With one or more fenced blocks, the longest block wins (ties go to the
    first); an unterminated final fence runs to the end of the response.
    With no fence the whole response is taken as code.
    """
    if not response.strip():
        raise ExtractionError("empty backend response")
    blocks: list[str] = []
    current: list[str] | None = None
    for line in response.splitlines():
        if current is None:
            if _FENCE_OPEN_RE.match(line):
                current = []
        elif _FENCE_CLOSE_RE.match(line):
            blocks.append("\n".join(current))
            current = None
        else:
            current.append(line)
    if current is not None:  # unterminated fence: lenient, take the tail
        blocks.append("\n".join(current))
    return max(blocks, key=len) if blocks else response  # max() keeps the first on ties
