"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

 1. the flows at every sink (source, status) match the all-paths
    oracle's facts on 500 loop-free programs, in under 60 s
 2. pseudonymization verdicts match path enumeration on the same corpus;
    fixtures B and B' are mandatory golden cases
 3. forward slices equal brute-force closure on 500 random graphs
 4. parse/print round-trip on 1000 generated programs
 5. sources with no egress are first-class findings (fixture + property)
 6. golden corpus: byte-identical report JSON and slice DOT files for every
    fixture
 7. analyze is byte-deterministic across runs
 8. a 10,000-statement, 200-method program analyzes in under 10 s
"""

import filecmp
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURE_B, FIXTURE_B_PRIME, fixture_registries
from gen import gen_program, gen_roundtrip_program
from oracles import (
    all_paths_taint,
    expected_all_paths_pseudonymized,
    explicit_graph,
    naive_closure,
    program_sink_stmts,
    sink_facts,
)
from pdaudit.cli import main
from pdaudit.graph import DepEdge, EdgeKind, build_call_graph, build_pdg
from pdaudit.ir import Loc, parse_program, print_program
from pdaudit.registry import Origin, PersonalDataCategory, SourceLabel, label_sources
from pdaudit.slicer import forward_slice
from pdaudit.taint import (
    Status,
    collect_flows,
    propagate,
    unsunk_labels,
)
from regen_goldens import (
    PERF_DIGEST,
    SCALE_40K_DIGEST,
    SCALE_40K_METHODS,
    analyze_args,
    output_digest,
    perf_inputs,
)
from test_taint import GEN_LEXICON, GEN_SANITIZERS, GEN_SINKS, GEN_SOURCES

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"
REG = FIXTURES / "registries"

CORPUS_SEED = 94301
CORPUS_SIZE = 500


def _passline(n: int, text: str) -> None:
    print(f"[acceptance {n}] PASS: {text}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        p = gen_program(rng, max_methods=6, max_stmts=30, max_branches=3)
        cg = build_call_graph(p)
        g = build_pdg(p, cg)
        labels = label_sources(p, GEN_SOURCES, GEN_LEXICON)
        rules = propagate(p, cg, labels, GEN_SANITIZERS)
        flows = collect_flows(rules, GEN_SINKS, g)
        out.append((p, cg, g, labels, rules, flows))
    return out


def test_criterion_1_taint_oracle_equivalence(corpus):
    start = time.monotonic()
    mismatches = 0
    sinks_checked = flows_checked = 0
    for p, cg, g, labels, rules, flows in corpus:
        sinks_checked += len(program_sink_stmts(p, GEN_SINKS))
        expected_points, _ = all_paths_taint(p, cg, labels, GEN_SANITIZERS)
        want = sink_facts(p, expected_points, GEN_SINKS)
        got = {(f.sink.location, f.source.id, f.status) for f in flows}
        mismatches += len(got ^ want)
        flows_checked += len(want)
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert sinks_checked > 500, "corpus must actually contain sinks"
    assert flows_checked > 200, "corpus must actually contain flows"
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    _passline(
        1,
        f"flows == all-paths oracle facts at {sinks_checked} sinks ({flows_checked} "
        f"flows) over {CORPUS_SIZE} programs ({elapsed:.1f}s)",
    )


def test_criterion_2_all_paths_pseudonymization(corpus):
    mismatches = 0
    checked = {"raw": 0, "pseudo": 0}
    for p, cg, g, labels, rules, flows in corpus:
        for f in flows:
            want = expected_all_paths_pseudonymized(g, p, GEN_SANITIZERS, cg, f)
            got = f.status is Status.PSEUDONYMIZED
            if want != got:
                mismatches += 1
            checked["pseudo" if got else "raw"] += 1
    assert mismatches == 0
    assert checked["raw"] >= 20 and checked["pseudo"] >= 20, checked

    # mandatory golden cases
    def fixture_status(text):
        sources, sinks, sanitizers, lexicon = fixture_registries()
        p = parse_program(text)
        cg = build_call_graph(p)
        g = build_pdg(p, cg)
        labels = label_sources(p, sources, lexicon)
        rules = propagate(p, cg, labels, sanitizers)
        flows = collect_flows(rules, sinks, g)
        assert len(flows) == 1
        return flows[0].status

    assert fixture_status(FIXTURE_B) is Status.RAW
    assert fixture_status(FIXTURE_B_PRIME) is Status.PSEUDONYMIZED
    _passline(
        2,
        f"verdicts match path enumeration ({checked['raw']} raw, "
        f"{checked['pseudo']} pseudonymized); B/B' as specified",
    )


def test_criterion_3_slice_oracle():
    rng = random.Random(CORPUS_SEED + 1)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 200)
        nodes = [Loc("C", f"m{i % 9}/0", i) for i in range(n)]
        kinds = list(EdgeKind)
        edges = set()
        for _ in range(rng.randint(0, 3 * n)):
            edges.add(DepEdge(rng.choice(nodes), rng.choice(nodes), rng.choice(kinds)))
        g = explicit_graph(dict.fromkeys(nodes), frozenset(edges))
        root = rng.choice(nodes)
        label = SourceLabel(0, root, PersonalDataCategory("Location"), Origin("SystemApi"))
        s = forward_slice(g, label)
        if s.nodes != naive_closure(g, root):
            mismatches += 1
        if s.edges != {e for e in g.edges if e.src in s.nodes and e.dst in s.nodes}:
            mismatches += 1
    assert mismatches == 0
    _passline(3, "forward_slice == brute-force closure on 500 random graphs (<= 200 nodes)")


def test_criterion_4_parser_round_trip():
    rng = random.Random(CORPUS_SEED + 2)
    for _ in range(1000):
        p = gen_roundtrip_program(rng)
        assert parse_program(print_program(p)) == p
    _passline(4, "parse(print(p)) == p on 1000 generated programs")


def test_criterion_5_collected_no_egress(corpus):
    report = json.loads((GOLDENS / "unsunk.report.json").read_text(encoding="utf-8"))
    kinds = [f["kind"] for f in report["findings"]]
    assert kinds == ["CollectedNoEgress"]

    for p, cg, g, labels, rules, flows in corpus:
        sunk_ids = {f.source.id for f in flows}
        unsunk = unsunk_labels(labels, flows)
        assert {l.id for l in labels} - sunk_ids == {l.id for l in unsunk}
        assert sunk_ids.isdisjoint({l.id for l in unsunk})
    _passline(5, "labels - flows = unsunk on the whole corpus; unsunk fixture reported")


def test_criterion_6_golden_corpus(tmp_path):
    fixtures = sorted(FIXTURES.glob("*.pir"))
    assert len(fixtures) >= 11
    n_dots = 0
    written = []  # every golden name the fixtures account for
    for pir in fixtures:
        out = tmp_path / pir.stem
        code = main(analyze_args(pir, out))
        assert code == 0, pir.name
        got = (out / "report.json").read_bytes()
        want = (GOLDENS / f"{pir.stem}.report.json").read_bytes()
        assert got == want, f"golden drift for {pir.name}"
        dots = sorted(d.name for d in out.glob("slice_*.dot"))
        goldens = sorted(g.name for g in GOLDENS.glob(f"{pir.stem}.slice_*.dot"))
        assert [f"{pir.stem}.{d}" for d in dots] == goldens, f"slice files of {pir.name}"
        for name in dots:
            want = (GOLDENS / f"{pir.stem}.{name}").read_bytes()
            assert (out / name).read_bytes() == want, f"DOT drift for {pir.name} {name}"
        n_dots += len(dots)
        written += [f"{pir.stem}.report.json", *goldens]
    assert sorted(g.name for g in GOLDENS.iterdir()) == sorted(written), "golden with no fixture"
    _passline(6, f"{len(fixtures)} fixture reports and {n_dots} slice DOT files byte-identical "
                 "to checked-in goldens")


def test_criterion_7_analyze_determinism(tmp_path):
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = main(
            [
                "analyze", str(FIXTURES / "b.pir"),
                "--sources", str(REG / "sources.json"),
                "--sinks", str(REG / "sinks.json"),
                "--sanitizers", str(REG / "sanitizers.json"),
                "--lexicon", str(REG / "lexicon.json"),
                "--dpv", str(REG / "dpv.json"),
                "--out", str(out),
            ]
        )
        assert code == 1  # default threshold 0: any finding gates
        outs.append(out)
    a, b = outs
    names_a = sorted(f.name for f in a.iterdir())
    names_b = sorted(f.name for f in b.iterdir())
    assert names_a == names_b
    match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    assert mismatch == [] and errors == []

    # Both runs above share one hash seed. Two children under different
    # PYTHONHASHSEEDs would show any set or dict order that reaches the
    # outputs, on criterion 8's program, where the flows cross field cells.
    _, argv = perf_inputs(tmp_path)
    want = PERF_DIGEST.read_text(encoding="utf-8").strip()
    for seed in ("0", "1"):
        out = tmp_path / f"hash_seed_{seed}"
        child = subprocess.run([sys.executable, "-m", "pdaudit.cli", *argv, "--out", str(out)],
                               capture_output=True, text=True, timeout=120,
                               env={**os.environ, "PYTHONHASHSEED": seed})
        assert child.returncode == 0, child.stderr
        assert output_digest(out) == want, f"outputs drifted under PYTHONHASHSEED={seed}"
    _passline(7, f"two analyze runs byte-identical across {len(names_a)} files; criterion-8 "
                 "outputs identical under PYTHONHASHSEED 0 and 1")


def test_criterion_8_desk_scale_performance(tmp_path):
    program, argv = perf_inputs(tmp_path)
    n_stmts = sum(len(m.body) for _, m in program.iter_methods())
    n_methods = sum(1 for _ in program.iter_methods())
    assert n_stmts == 10000 and n_methods == 200

    start = time.monotonic()
    code = main(argv)
    elapsed = time.monotonic() - start
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["findings"], "perf program should produce findings"
    assert elapsed < 10.0, f"analyze took {elapsed:.2f}s"
    # report.json and every DOT file, byte for byte: tests/regen_goldens.py
    # rewrites the pinned value
    want = PERF_DIGEST.read_text(encoding="utf-8").strip()
    assert output_digest(tmp_path / "out") == want, "criterion-8 outputs drifted"
    _passline(8, f"10,000-statement / 200-method analyze in {elapsed:.2f}s")


def test_scale_40k_outputs_are_pinned(tmp_path):
    """The 40,000-statement program's report.json and DOT files, byte for
    byte: its flows (785, against 38 at 10k) cross field cells and call
    chains that criterion 8's program is too small to hold.
    tests/regen_goldens.py rewrites the pinned value."""
    _, argv = perf_inputs(tmp_path, n_methods=SCALE_40K_METHODS)
    assert main(argv) == 0
    want = SCALE_40K_DIGEST.read_text(encoding="utf-8").strip()
    assert output_digest(tmp_path / "out") == want, "40k outputs drifted"
