import gc
import shutil
from pathlib import Path

import numpy as np
import pytest

from transmigrate.config import RunConfig
from transmigrate.knowledge.index import build_index
from transmigrate.validation.tools import stub_tool_commands

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"
FIXTURE_PROJECT = DATA_DIR / "fixture_project"
MOCK_RULES = DATA_DIR / "mock_rules.json"


@pytest.fixture
def fixture_project(tmp_path: Path) -> Path:
    """Writable copy of the bundled three-class sample project."""
    target = tmp_path / "project"
    shutil.copytree(FIXTURE_PROJECT, target)
    return target


@pytest.fixture
def run_config(fixture_project: Path, tmp_path: Path) -> RunConfig:
    return make_run_config(fixture_project, tmp_path / "out")


def fixture_config(source_root: Path, output_root: Path, **overrides) -> dict:
    """The golden run's configuration as JSON, with absolute paths: the mock
    backend and rule table, the bundled stub checkers, seed 7."""
    syntax_cmd, lint_cmd = stub_tool_commands()
    raw = {
        "source_root": str(source_root),
        "output_root": str(output_root),
        "backend": "mock",
        "project_name": "MiniApp",
        "backend_options": {"rules_file": str(MOCK_RULES)},
        "tools": {"syntax_check_cmd": syntax_cmd, "lint_cmd": lint_cmd},
        "seed": 7,
    }
    raw.update(overrides)
    return raw


def make_run_config(source_root: Path, output_root: Path, **overrides) -> RunConfig:
    return RunConfig.from_dict(fixture_config(source_root, output_root, **overrides))


class RowsEmbedder:
    """An embedder whose ``embed`` calls return the rows of ``matrix`` in
    order, one row per text, whatever the texts."""

    def __init__(self, matrix) -> None:
        self.rows = np.asarray(matrix, dtype=np.float64)
        self.dimension = self.rows.shape[-1]
        self.given = 0

    def embed(self, texts):
        block = self.rows[self.given : self.given + len(texts)]
        self.given += len(texts)
        return block


@pytest.fixture(scope="session")
def chunks_path(tmp_path_factory) -> Path:
    """Where an index that a test builds and never saves keeps its chunk
    lines. Each build to it overwrites the last one's lines, so a test
    holds one such index at a time."""
    return tmp_path_factory.mktemp("index") / "chunks.jsonl"


def index_of(chunks, matrix, chunks_path):
    """The index whose chunk i has row i of ``matrix`` as its vector, its
    chunk lines kept beside ``chunks_path``."""
    return build_index(chunks, RowsEmbedder(matrix), chunks_path)


def reachable(*roots) -> list:
    """Every object reachable from ``roots`` through references, classes
    excluded (a class reaches its module and from there everything)."""
    seen: set[int] = set()
    found = []
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, type) or id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def check_span_invariants(ast) -> list[str]:
    """Span-nesting violations of a parse tree; empty when every child lies
    within its parent, siblings are ordered and no span is inverted."""
    problems: list[str] = []

    def visit(node) -> None:
        prev_end = node.start
        for child in node.children:
            if child.start < node.start or child.end > node.end:
                problems.append(f"{child.kind} {child.span} escapes {node.kind} {node.span}")
            if child.start < prev_end:
                problems.append(f"{child.kind} {child.span} overlaps previous sibling (ends {prev_end})")
            if child.start > child.end:
                problems.append(f"{child.kind} has inverted span {child.span}")
            prev_end = max(prev_end, child.end)
            visit(child)

    visit(ast.root)
    return problems
