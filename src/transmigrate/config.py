"""Run configuration.

A single JSON file drives the whole pipeline; CLI flags override selected
fields (backend, seed, max rounds, dry-run, prompt dumping). Relative
paths in the file resolve against the file's own directory so configs can
live next to their projects.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from transmigrate.errors import ConfigurationError
from transmigrate.validation.refine import DEFAULT_MAX_ROUNDS
from transmigrate.validation.tools import DEFAULT_LINT_CMD, DEFAULT_SYNTAX_CMD

DEFAULT_SEED = 20240501
DEFAULT_PROMPT_BUDGET = 8000
DEFAULT_RETRIEVAL_K = 3


@dataclass
class CrawlConfig:
    enabled: bool = False  # networkless by default, for reproducibility
    start_url: str | None = None
    max_depth: int = 1
    max_pages: int = 20


@dataclass
class KnowledgeConfig:
    embedding_dimension: int = 256
    retrieval_k: int = DEFAULT_RETRIEVAL_K
    provider: str = "offline"  # "offline" | "remote"
    remote_endpoint: str | None = None
    crawl: CrawlConfig = field(default_factory=CrawlConfig)


@dataclass
class ToolsConfig:
    syntax_check_cmd: str = DEFAULT_SYNTAX_CMD
    lint_cmd: str = DEFAULT_LINT_CMD
    timeout_seconds: float = 60.0


@dataclass
class BackendOptions:
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4o"
    temperature: float = 0.0
    max_output_units: int | None = None
    retry_count: int = 2
    timeout_seconds: float = 60.0
    api_key_env: str = "TRANSMIGRATE_API_KEY"
    # Mock-backend fields.
    rules_file: str | None = None
    max_fixes_per_call: int | None = None


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


def _check_keys(section: dict, prefix: str, cls: type) -> None:
    """A key that ``cls`` has no field for, or a value whose JSON type does
    not fit the field, is a ConfigurationError naming it as ``prefix + key``.
    ``null`` fits only the fields that default to None; a boolean is not a
    number. Nested sections are checked by ``_section``."""
    known = [f.name for f in fields(cls)]
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown config key {', '.join(prefix + k for k in unknown)}"
            f" (known keys: {', '.join(known)})"
        )
    for key, hint in typing.get_type_hints(cls).items():
        if key not in section or is_dataclass(hint):
            continue
        allowed = typing.get_args(hint) or (hint,)
        if not any(_is_json_type(section[key], t) for t in allowed):
            raise ConfigurationError(
                f"config key {prefix}{key} must be {' or '.join(_JSON_TYPE_NAMES[t] for t in allowed)},"
                f" got {json.dumps(section[key], default=str)}"
            )


def _section(raw: dict, path: str, cls: type) -> dict:
    """The config section named by the last part of dotted ``path`` (empty
    when absent), with its keys checked against ``cls``."""
    section = raw.get(path.rsplit(".", 1)[-1], {})
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {path!r} must be a JSON object")
    _check_keys(section, f"{path}.", cls)
    return section


@dataclass
class RunConfig:
    source_root: str
    output_root: str
    backend: str  # "mock" | "live"
    project_name: str = "project"
    backend_options: BackendOptions = field(default_factory=BackendOptions)
    knowledge: KnowledgeConfig = field(default_factory=KnowledgeConfig)
    tools: ToolsConfig = field(default_factory=ToolsConfig)
    prompt_budget: int = DEFAULT_PROMPT_BUDGET
    max_rounds: int = DEFAULT_MAX_ROUNDS
    seed: int = DEFAULT_SEED
    grammar_dir: str | None = None
    dump_prompts: bool = False
    sample_issues: bool = False
    dry_run: bool = False

    def validate(self) -> None:
        if not self.backend:
            raise ConfigurationError("no backend configured (expected 'mock' or 'live')")
        if self.backend not in ("mock", "live"):
            raise ConfigurationError(f"unknown backend {self.backend!r} (expected 'mock' or 'live')")
        if self.max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if not Path(self.source_root).is_dir():
            raise ConfigurationError(f"source root is not a directory: {self.source_root}")

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
        def resolve(p: str | None) -> str | None:
            if p is None:
                return None
            path = Path(p)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return str(path)

        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        _check_keys(raw, "", cls)
        knowledge_raw = dict(_section(raw, "knowledge", KnowledgeConfig))
        knowledge_raw["crawl"] = CrawlConfig(**_section(knowledge_raw, "knowledge.crawl", CrawlConfig))
        backend_opts = BackendOptions(**_section(raw, "backend_options", BackendOptions))
        backend_opts.rules_file = resolve(backend_opts.rules_file)
        config = cls(
            source_root=resolve(raw.get("source_root", "")) or "",
            output_root=resolve(raw.get("output_root", "out")) or "out",
            backend=raw.get("backend", ""),
            project_name=raw.get("project_name", "project"),
            backend_options=backend_opts,
            knowledge=KnowledgeConfig(**knowledge_raw),
            tools=ToolsConfig(**_section(raw, "tools", ToolsConfig)),
            prompt_budget=raw.get("prompt_budget", DEFAULT_PROMPT_BUDGET),
            max_rounds=raw.get("max_rounds", DEFAULT_MAX_ROUNDS),
            seed=raw.get("seed", DEFAULT_SEED),
            grammar_dir=resolve(raw.get("grammar_dir")),
            dump_prompts=raw.get("dump_prompts", False),
            sample_issues=raw.get("sample_issues", False),
            dry_run=raw.get("dry_run", False),
        )
        return config

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
