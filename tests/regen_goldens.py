"""Rewrite tests/goldens/ from tests/fixtures/*.pir, and the pinned digest
of the criterion-8 run.

    PYTHONPATH=src python tests/regen_goldens.py

Runs `pdaudit analyze` on every fixture with analyze_args, the flags the
golden-corpus test (tests/test_acceptance.py::test_criterion_6_golden_corpus)
also imports: the fixture registries and a fail threshold no finding
reaches. Writes each fixture's report.json and slice DOT files as
<stem>.report.json and <stem>.slice_<id>.dot, and the summary it prints,
uncolored, as <stem>.summary.txt, after deleting every golden so that none
is left stale. `git diff tests/goldens` then shows what an
output change did.

Then runs the 10,000-statement analysis of criterion 8 (perf_inputs) and
writes output_digest of its output directory to PERF_DIGEST, which
test_criterion_8_desk_scale_performance compares with its own run, and
does the same for the 40,000-statement program (perf_inputs with
n_methods=SCALE_40K_METHODS) into SCALE_40K_DIGEST, which
test_scale_40k_outputs_are_pinned compares. The 40k program has about
twenty times the flows of the 10k one, so its digest pins witnesses,
slices and DOT files that the smaller runs never make.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "fixtures"
GOLDENS = TESTS / "goldens"
REG = FIXTURES / "registries"
PERF_DIGEST = TESTS / "criterion_8.sha256"
SCALE_40K_DIGEST = TESTS / "scale_40k.sha256"
SCALE_40K_METHODS = 800
PERF_SEED = 94304  # acceptance CORPUS_SEED + 3

PERF_DPV = {
    "categories": {"Location": "iri:l", "DeviceId": "iri:d", "Name": "iri:n",
                   "EmailAddress": "iri:e", "PhoneNumber": "iri:p"},
    "sink_kinds": {"ThirdParty": "iri:tp", "Analytics": "iri:an",
                   "Network": "iri:nw", "Storage": "iri:st", "Log": "iri:lg"},
    "collection": "iri:collect",
    "pseudonymisation": "iri:pseudo",
}


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


def perf_inputs(tmp: Path, n_methods: int = 200):
    """Write the criterion-8 program, gen_perf_program(Random(PERF_SEED))
    (10,000 statements in 200 methods, unless n_methods asks otherwise),
    and its registries into tmp. Returns (program, analyze argv writing to
    tmp / "out")."""
    from gen import gen_perf_program, registry_json
    from pdaudit.ir import print_program

    program = gen_perf_program(random.Random(PERF_SEED), n_methods=n_methods)
    pir_path = tmp / "perf.pir"
    pir_path.write_text(print_program(program), encoding="utf-8")
    flags = []
    for name, data in [*registry_json().items(), ("dpv", PERF_DPV)]:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        flags += [f"--{name}", str(path)]
    argv = ["analyze", str(pir_path), *flags, "--out", str(tmp / "out"),
            "--fail-threshold", "1000000"]
    return program, argv


def output_digest(out: Path) -> str:
    """SHA-256 over every file of an analyze output directory (report.json
    and the slice DOT files), in name order: each file's name, a NUL, its
    bytes, a NUL."""
    h = hashlib.sha256()
    for f in sorted(out.iterdir(), key=lambda f: f.name):
        h.update(f.name.encode("utf-8") + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def main() -> int:
    from pdaudit.cli import main as pdaudit

    for old in [*GOLDENS.glob("*.report.json"), *GOLDENS.glob("*.slice_*.dot"),
                *GOLDENS.glob("*.summary.txt")]:
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for pir in sorted(FIXTURES.glob("*.pir")):
            out = Path(tmp) / pir.stem
            summary = io.StringIO()  # not a terminal, so the summary is uncolored
            with redirect_stdout(summary):
                code = pdaudit(analyze_args(pir, out))
            if code != 0:
                print(f"{pir.name}: analyze exited {code}", file=sys.stderr)
                return 1
            (GOLDENS / f"{pir.stem}.summary.txt").write_text(summary.getvalue(), encoding="utf-8")
            for f in sorted(out.iterdir()):
                shutil.copyfile(f, GOLDENS / f"{pir.stem}.{f.name}")
    for name, n_methods, pinned in [("criterion-8", 200, PERF_DIGEST),
                                    ("40k", SCALE_40K_METHODS, SCALE_40K_DIGEST)]:
        with tempfile.TemporaryDirectory() as tmp:
            _, argv = perf_inputs(Path(tmp), n_methods=n_methods)
            code = pdaudit(argv)
            if code != 0:
                print(f"{name} program: analyze exited {code}", file=sys.stderr)
                return 1
            pinned.write_text(output_digest(Path(tmp) / "out") + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
