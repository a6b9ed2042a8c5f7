#!/usr/bin/env python3
"""Regenerate the golden files under tests/data/golden/.

Run after an intentional change to the prompt templates, the mock rule
table, or the bundled fixture project, then review the diff:

    PYTHONPATH=src python scripts/regen_golden.py

The report comes from the fixture run that ``write_fixture_config.py``
(beside this script) lays out.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

import write_fixture_config  # noqa: E402
from golden_fixtures import ALL_INPUTS, RETRIEVED  # noqa: E402

from transmigrate.config import RunConfig  # noqa: E402
from transmigrate.pipeline import Pipeline  # noqa: E402
from transmigrate.prompts import render_prompt  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden"


def regen_prompts() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for level, inputs in ALL_INPUTS.items():
        envelope = render_prompt(level, dict(inputs), retrieved=RETRIEVED)
        path = GOLDEN / f"prompt_{level}.txt"
        path.write_text(envelope.rendered_text, encoding="utf-8")
        print(f"wrote {path}")


def regen_report() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        write_fixture_config.main([tmp])
        Pipeline(RunConfig.from_file(tmp_path / "config.json")).run()
        for name in ("report.json", "report.md"):
            source = tmp_path / "out" / "report" / name
            target = GOLDEN / name
            target.write_bytes(source.read_bytes())
            print(f"wrote {target}")


if __name__ == "__main__":
    regen_prompts()
    regen_report()
