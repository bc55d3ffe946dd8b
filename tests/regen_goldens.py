"""Rewrite tests/goldens/ from tests/fixtures/*.pir.

    PYTHONPATH=src python tests/regen_goldens.py

Runs `pdaudit analyze` on every fixture with analyze_args, the flags the
golden-corpus test (tests/test_acceptance.py::test_criterion_6_golden_corpus)
also imports: the fixture registries and a fail threshold no finding
reaches. Writes each fixture's report.json and slice DOT files as
<stem>.report.json and <stem>.slice_<id>.dot, after deleting every golden
so that none is left stale. `git diff tests/goldens` then shows what an
output change did.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "fixtures"
GOLDENS = TESTS / "goldens"
REG = FIXTURES / "registries"


def analyze_args(pir: Path, out: Path) -> list[str]:
    return [
        "analyze", str(pir),
        "--sources", str(REG / "sources.json"),
        "--sinks", str(REG / "sinks.json"),
        "--sanitizers", str(REG / "sanitizers.json"),
        "--lexicon", str(REG / "lexicon.json"),
        "--dpv", str(REG / "dpv.json"),
        "--out", str(out),
        "--fail-threshold", "1000000",
    ]


def main() -> int:
    from pdaudit.cli import main as pdaudit

    for old in [*GOLDENS.glob("*.report.json"), *GOLDENS.glob("*.slice_*.dot")]:
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for pir in sorted(FIXTURES.glob("*.pir")):
            out = Path(tmp) / pir.stem
            code = pdaudit(analyze_args(pir, out))
            if code != 0:
                print(f"{pir.name}: analyze exited {code}", file=sys.stderr)
                return 1
            for f in sorted(out.iterdir()):
                shutil.copyfile(f, GOLDENS / f"{pir.stem}.{f.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
