"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

 1. fixpoint facts at every sink match the all-paths oracle on 500
    loop-free programs, in under 60 s
 2. pseudonymization verdicts match path enumeration on the same corpus;
    fixtures B and B' are mandatory golden cases
 3. forward slices equal brute-force closure on 500 random graphs
 4. parse/print round-trip on 1000 generated programs
 5. sources with no egress are first-class findings (fixture + property)
 6. golden corpus: byte-identical report JSON for ten fixtures
 7. analyze is byte-deterministic across runs
 8. a 10,000-statement, 200-method program analyzes in under 10 s
"""

import filecmp
import json
import random
import time
from pathlib import Path

import pytest

from conftest import FIXTURE_B, FIXTURE_B_PRIME, fixture_registries
from gen import gen_program, gen_roundtrip_program, registry_json
from oracles import (
    all_paths_taint,
    expected_all_paths_pseudonymized,
    explicit_graph,
    naive_closure,
    program_sink_stmts,
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
        pr = propagate(p, cg, labels, GEN_SANITIZERS)
        flows = collect_flows(pr, GEN_SINKS, g)
        out.append((p, cg, g, labels, pr, flows))
    return out


def test_criterion_1_taint_oracle_equivalence(corpus):
    start = time.monotonic()
    mismatches = 0
    sinks_checked = 0
    for p, cg, g, labels, pr, flows in corpus:
        expected_points, expected_fields = all_paths_taint(p, cg, labels, GEN_SANITIZERS)
        for sink in program_sink_stmts(p, GEN_SINKS):
            sinks_checked += 1
            if pr.raw_before(sink) != expected_points.get(sink, {}):
                mismatches += 1
        got_fields = {c: dict(v) for c, v in pr.field_cells.items() if v}
        exp_fields = {c: dict(v) for c, v in expected_fields.items() if v}
        if got_fields != exp_fields:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert sinks_checked > 500, "corpus must actually contain sinks"
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    _passline(
        1,
        f"fixpoint == all-paths oracle at {sinks_checked} sinks over "
        f"{CORPUS_SIZE} programs ({elapsed:.1f}s)",
    )


def test_criterion_2_all_paths_pseudonymization(corpus):
    mismatches = 0
    checked = {"raw": 0, "pseudo": 0}
    for p, cg, g, labels, pr, flows in corpus:
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
        pr = propagate(p, cg, labels, sanitizers)
        flows = collect_flows(pr, sinks, g)
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

    for p, cg, g, labels, pr, flows in corpus:
        sunk_ids = {f.source.id for f in flows}
        unsunk = unsunk_labels(labels, flows)
        assert {l.id for l in labels} - sunk_ids == {l.id for l in unsunk}
        assert sunk_ids.isdisjoint({l.id for l in unsunk})
    _passline(5, "labels - flows = unsunk on the whole corpus; unsunk fixture reported")


def test_criterion_6_golden_corpus(tmp_path):
    fixtures = sorted(FIXTURES.glob("*.pir"))
    assert len(fixtures) >= 10
    for pir in fixtures:
        out = tmp_path / pir.stem
        code = main(
            [
                "analyze", str(pir),
                "--sources", str(REG / "sources.json"),
                "--sinks", str(REG / "sinks.json"),
                "--sanitizers", str(REG / "sanitizers.json"),
                "--lexicon", str(REG / "lexicon.json"),
                "--dpv", str(REG / "dpv.json"),
                "--out", str(out),
                "--fail-threshold", "1000000",
            ]
        )
        assert code == 0, pir.name
        got = (out / "report.json").read_bytes()
        want = (GOLDENS / f"{pir.stem}.report.json").read_bytes()
        assert got == want, f"golden drift for {pir.name}"
    _passline(6, f"{len(fixtures)} fixture reports byte-identical to checked-in goldens")


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
    _passline(7, f"two analyze runs byte-identical across {len(names_a)} files")


def test_criterion_8_desk_scale_performance(tmp_path):
    from gen import gen_perf_program

    program = gen_perf_program(random.Random(CORPUS_SEED + 3))
    n_stmts = sum(len(m.body) for _, m in program.iter_methods())
    n_methods = sum(1 for _ in program.iter_methods())
    assert n_stmts == 10000 and n_methods == 200

    pir_path = tmp_path / "perf.pir"
    pir_path.write_text(print_program(program), encoding="utf-8")
    regs = registry_json()
    reg_paths = {}
    for name, data in regs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        reg_paths[name] = path
    dpv = {
        "categories": {"Location": "iri:l", "DeviceId": "iri:d", "Name": "iri:n",
                       "EmailAddress": "iri:e", "PhoneNumber": "iri:p"},
        "sink_kinds": {"ThirdParty": "iri:tp", "Analytics": "iri:an",
                       "Network": "iri:nw", "Storage": "iri:st", "Log": "iri:lg"},
        "collection": "iri:collect",
        "pseudonymisation": "iri:pseudo",
    }
    dpv_path = tmp_path / "dpv.json"
    dpv_path.write_text(json.dumps(dpv), encoding="utf-8")

    start = time.monotonic()
    code = main(
        [
            "analyze", str(pir_path),
            "--sources", str(reg_paths["sources"]),
            "--sinks", str(reg_paths["sinks"]),
            "--sanitizers", str(reg_paths["sanitizers"]),
            "--lexicon", str(reg_paths["lexicon"]),
            "--dpv", str(dpv_path),
            "--out", str(tmp_path / "out"),
            "--fail-threshold", "1000000",
        ]
    )
    elapsed = time.monotonic() - start
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["findings"], "perf program should produce findings"
    assert elapsed < 10.0, f"analyze took {elapsed:.2f}s"
    _passline(8, f"10,000-statement / 200-method analyze in {elapsed:.2f}s")
