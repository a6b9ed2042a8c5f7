#!/usr/bin/env python3
"""Lay out a fixture run in a directory: copy the bundled fixture project
and the mock rule table into it and write ``config.json`` beside them.

    python scripts/write_fixture_config.py <dir>
    cd <dir> && transmigrate run --config config.json

The configuration names its paths relative to ``<dir>`` (run from there),
uses the mock backend and the bundled stub checkers, seed 7 and project
name ``MiniApp``: the run whose report ``tests/data/golden/`` holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from transmigrate.validation.tools import stub_tool_commands

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(f"usage: {Path(__file__).name} <dir>", file=sys.stderr)
        return 2
    work = Path(argv[0])
    work.mkdir(parents=True, exist_ok=True)
    shutil.copytree(DATA / "fixture_project", work / "project")
    shutil.copyfile(DATA / "mock_rules.json", work / "mock_rules.json")
    syntax_cmd, lint_cmd = stub_tool_commands()
    config = {
        "source_root": "project",
        "output_root": "out",
        "backend": "mock",
        "project_name": "MiniApp",
        "backend_options": {"rules_file": "mock_rules.json"},
        "tools": {"syntax_check_cmd": syntax_cmd, "lint_cmd": lint_cmd},
        "seed": 7,
    }
    with open(work / "config.json", "w", encoding="utf-8") as f:
        json.dump(config, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
