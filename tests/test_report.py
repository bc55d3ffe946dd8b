import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_A, FIXTURE_B, FIXTURE_B_PRIME, fixture_registries
from gen import gen_hub_program, gen_program, shared_cell_program
from oracles import report_dict
from pdaudit import __version__
from pdaudit.cli import build_config, main, make_parser, run_analysis
from pdaudit.dpv import ComplianceStatement, DpvMap, map_flow
from pdaudit.graph import build_call_graph, build_pdg
from pdaudit.ir import Loc, parse_program, print_program
from pdaudit.registry import (
    Origin,
    PersonalDataCategory,
    SanitizerRegistry,
    SinkKind,
    SinkMatch,
    SinkRegistry,
    SourceLabel,
    label_sources,
)
from pdaudit.report import (
    ASSUMPTIONS,
    AuditReport,
    Finding,
    FindingKind,
    ReportConfig,
    SliceEntry,
    build_report,
    draft_data_safety,
    input_digest,
    render_dot,
    risk_score,
    serialize_report,
    summarize,
)
from pdaudit.slicer import forward_slice
from pdaudit.taint import Flow, SinkRef, Status, build_taint_result, propagate
from regen_goldens import FIXTURES, analyze_args
from test_taint import GEN_SANITIZERS, GEN_SINKS, analyze_generated

DPV = DpvMap(
    category_iri={"EmailAddress": "iri:pd/email", "Location": "iri:pd/location"},
    sinkkind_iri={
        "ThirdParty": "iri:proc/disclose",
        "Analytics": "iri:proc/transfer",
        "Network": "iri:proc/transmit",
        "Storage": "iri:proc/store",
        "Log": "iri:proc/record",
    },
    collection_iri="iri:proc/collect",
    pseudonymisation_iri="iri:measure/pseudonymisation",
)


def pipeline(text):
    sources, sinks, sanitizers, lexicon = fixture_registries()
    p = parse_program(text)
    cg = build_call_graph(p)
    g = build_pdg(p, cg)
    labels = label_sources(p, sources, lexicon)
    pr = propagate(p, cg, labels, sanitizers)
    taint = build_taint_result(pr, p, sinks, g)
    slices = [forward_slice(g, l) for l in labels]
    digest = input_digest(print_program(p))
    report = build_report(p, labels, slices, taint, DPV, sinks, digest)
    return p, labels, g, slices, taint, report, sinks, sanitizers


# ---------------------------------------------------------------------------
# Risk
# ---------------------------------------------------------------------------


def test_risk_formula_values():
    assert risk_score(1.0, Status.RAW, SinkKind.ANALYTICS) == 6.0
    assert risk_score(1.0, Status.PSEUDONYMIZED, SinkKind.NETWORK) == 2.0
    assert risk_score(1.0, Status.RAW, None) == 1.0


def test_risk_multipliers_overridable():
    config = ReportConfig(
        status_mult={Status.RAW: 10.0, Status.PSEUDONYMIZED: 1.0},
        sink_mult={SinkKind.ANALYTICS: 1.0, SinkKind.THIRD_PARTY: 1.0,
                   SinkKind.NETWORK: 1.0, SinkKind.STORAGE: 1.0, SinkKind.LOG: 1.0},
        no_egress_mult=0.1,
    )
    assert risk_score(2.0, Status.RAW, SinkKind.ANALYTICS, config) == 20.0
    assert risk_score(2.0, Status.RAW, None, config) == pytest.approx(2.0)


def test_risk_monotonicity():
    assert risk_score(1.0, Status.RAW, SinkKind.NETWORK) >= risk_score(
        1.0, Status.PSEUDONYMIZED, SinkKind.NETWORK
    )
    assert risk_score(1.0, Status.RAW, SinkKind.ANALYTICS) >= risk_score(
        1.0, Status.RAW, SinkKind.LOG
    )


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def test_fixture_a_report():
    *_, report, _, _ = pipeline(FIXTURE_A)
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.kind is FindingKind.RAW_FLOW
    assert f.risk == 6.0
    assert f.id == "F0"
    assert len(json.loads(serialize_report(report))["statements"]) == 1


def test_fixture_b_prime_report():
    *_, report, _, _ = pipeline(FIXTURE_B_PRIME)
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.kind is FindingKind.PSEUDONYMIZED_FLOW
    assert f.risk == 2.0


def test_empty_program_report():
    *_, report, _, _ = pipeline("")
    assert report.findings == []
    assert report.data_safety == {}
    d = json.loads(serialize_report(report))
    assert d["statements"] == []
    assert d["findings"] == []


def test_unsunk_becomes_collected_no_egress():
    src = """\
class C extends D {
  method void f() {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: return
  }
}
"""
    *_, report, _, _ = pipeline(src)
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.kind is FindingKind.COLLECTED_NO_EGRESS
    assert f.risk == 1.0
    assert f.flow is None
    assert f.statement.processing == "iri:proc/collect"


def test_findings_sorted_by_risk_then_kind():
    src = """\
class C extends D {
  method void f() {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: call com.analytics.Tracker.log($l)
    2: $u = call android.location.LocationManager.getLastKnownLocation()
    3: return
  }
}
"""
    *_, report, _, _ = pipeline(src)
    assert [f.kind for f in report.findings] == [
        FindingKind.RAW_FLOW,
        FindingKind.COLLECTED_NO_EGRESS,
    ]
    assert [f.id for f in report.findings] == ["F0", "F1"]
    assert report.findings[0].risk > report.findings[1].risk


def test_statement_count_partition(tmp_path):
    """report.json's statements list holds each finding's statement, in
    finding order, on every fixture."""
    for pir in sorted(FIXTURES.glob("*.pir")):
        assert main(analyze_args(pir, tmp_path / pir.stem)) == 0
        d = json.loads((tmp_path / pir.stem / "report.json").read_text(encoding="utf-8"))
        assert d["statements"] == [f["statement"] for f in d["findings"]], pir.name


# ---------------------------------------------------------------------------
# Data safety draft
# ---------------------------------------------------------------------------


def test_data_safety_fixture_a():
    *_, report, _, _ = pipeline(FIXTURE_A)
    assert report.data_safety == {
        "EmailAddress": {"collected": True, "shared_with": ["Tracker"], "security": None}
    }


def test_data_safety_fixture_b_prime():
    *_, report, _, _ = pipeline(FIXTURE_B_PRIME)
    assert report.data_safety == {
        "Location": {"collected": True, "shared_with": ["network"], "security": "pseudonymised"}
    }


def test_data_safety_unsunk_category_makes_no_security_claim():
    src = """\
class C extends D {
  method void f() {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: return
  }
}
"""
    *_, report, _, _ = pipeline(src)
    assert report.data_safety == {
        "Location": {"collected": True, "shared_with": [], "security": None}
    }


def test_data_safety_matches_draft_function():
    *_, report, _, _ = pipeline(FIXTURE_B)
    assert report.data_safety == draft_data_safety(report.findings)


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

_QSTR = r'"(?:[^"\\]|\\.)*"'
_NODE_RE = re.compile(rf'  {_QSTR} \[label={_QSTR}, kind="(source|sink|sanitizer|normal)"\];')
_EDGE_RE = re.compile(rf'  {_QSTR} -> {_QSTR} \[label="(Data|Control|Call|ParamIn|ReturnOut)"\];')
# a field cell: the same "<class>.<field>" text as its id and its label
_CELL_RE = re.compile(r'  "([^"\\:]+)" \[label="\1", shape=cylinder, kind="field"\];')


def assert_valid_dot(text):
    lines = text.rstrip("\n").splitlines()
    assert re.fullmatch(r'digraph "[^"]*" \{', lines[0]), lines[0]
    assert lines[-1] == "}"
    for ln in lines[1:-1]:
        assert (
            ln == "  node [shape=box];" or _NODE_RE.fullmatch(ln) or _EDGE_RE.fullmatch(ln)
            or _CELL_RE.fullmatch(ln)
        ), ln


def test_every_golden_dot_is_valid():
    goldens = sorted((Path(__file__).parent / "goldens").glob("*.dot"))
    assert goldens
    for path in goldens:
        assert_valid_dot(path.read_text(encoding="utf-8"))


def test_dot_singleton_slice():
    src = "class C extends D { method void f() { 0: $a = call e.S.r() 1: return } }"
    p = parse_program(src)
    g = build_pdg(p, build_call_graph(p))
    label = SourceLabel(0, Loc("C", "f/0", 0), PersonalDataCategory("Location"), Origin("SystemApi"))
    sources, sinks, sanitizers, lexicon = fixture_registries()
    s = forward_slice(g, label)
    dot = render_dot(s, p, [label], sinks, sanitizers)
    assert_valid_dot(dot)
    assert dot.count("->") == 0
    assert 'kind="source"' in dot


def test_dot_fixture_a():
    p, labels, g, slices, *_ , sinks, sanitizers = pipeline(FIXTURE_A)
    dot = render_dot(slices[0], p, labels, sinks, sanitizers)
    assert_valid_dot(dot)
    assert dot.count('kind="source"') == 1
    assert dot.count('kind="sink"') == 1
    assert dot.count('[label="Data"]') == 1


def test_dot_fixture_b_marks_sanitizer():
    p, labels, g, slices, *_, sinks, sanitizers = pipeline(FIXTURE_B)
    dot = render_dot(slices[0], p, labels, sinks, sanitizers)
    assert_valid_dot(dot)
    assert len([ln for ln in dot.splitlines() if 'kind="' in ln and "->" not in ln]) == 4
    assert dot.count('kind="sanitizer"') == 1


def test_dot_escapes_quotes_in_literals():
    src = 'class C extends D { method void f() { 0: $a = "say \\"hi\\"" 1: call com.net.H.p($a) 2: return } }'
    p = parse_program(src)
    g = build_pdg(p, build_call_graph(p))
    label = SourceLabel(0, Loc("C", "f/0", 0), PersonalDataCategory("Location"), Origin("SystemApi"))
    sources, sinks, sanitizers, _ = fixture_registries()
    s = forward_slice(g, label)
    assert_valid_dot(render_dot(s, p, [label], sinks, sanitizers))


def test_dot_source_kinds_follow_the_labels_passed():
    p, labels, g, slices, *_, sinks, sanitizers = pipeline(FIXTURE_B)
    s = slices[0]
    assert render_dot(s, p, labels, sinks, sanitizers).count('kind="source"') == 1
    assert render_dot(s, p, [], sinks, sanitizers).count('kind="source"') == 0
    every = [
        SourceLabel(i, g.locs[j], labels[0].category, Origin("SystemApi"))
        for i, j in enumerate(s.ids)
    ]
    assert render_dot(s, p, every, sinks, sanitizers).count('kind="source"') == len(s.ids)
    assert render_dot(s, p, labels, sinks, sanitizers).count('kind="source"') == 1


def test_dot_fields_fixture_draws_each_stored_and_loaded_cell_once():
    text = (Path(__file__).parent / "fixtures" / "fields.pir").read_text(encoding="utf-8")
    p, labels, g, slices, *_, sinks, sanitizers = pipeline(text)
    dot = render_dot(slices[0], p, labels, sinks, sanitizers)
    assert_valid_dot(dot)
    # cells in the order of their first store; Profile.cache is loaded in
    # the slice but stored only outside it, Profile.note is never loaded
    assert [m[1] for m in _CELL_RE.finditer(dot)] == ["com.app.Profile.last",
                                                       "com.app.Profile.home"]
    assert dot.count('-> "com.app.Profile.home"') == 2
    assert dot.count('"com.app.Profile.home" -> ') == 2
    edges = [ln for ln in dot.splitlines() if " -> " in ln]
    assert len(edges) == len(set(edges))


def test_dot_byte_stable():
    p, labels, g, slices, *_, sinks, sanitizers = pipeline(FIXTURE_B)
    a = render_dot(slices[0], p, labels, sinks, sanitizers)
    b = render_dot(slices[0], p, labels, sinks, sanitizers)
    assert a == b


def test_dot_lines_kept_on_the_graph_give_the_bytes_of_a_fresh_graph():
    """render_dot keeps a node's line on the graph from its second slice
    on. Rendering every slice forward, in reverse, and interleaved with
    other label lists (one of them edited in place) and other registries,
    all on one graph, gives each time the bytes that a fresh graph gives,
    on shared-cell programs and on gen_hub_program draws, whose slices
    overlap."""
    other_sinks = SinkRegistry(exact={}, prefixes={"ext.": SinkMatch(SinkKind.LOG, None)})
    no_sanitizers = SanitizerRegistry(frozenset())
    rng = random.Random(3131)
    programs = [shared_cell_program(3), shared_cell_program(8)]
    programs += [gen_hub_program(rng, n_methods=rng.randint(2, 8)) for _ in range(12)]
    for p in programs:
        cg, g, labels, _ = analyze_generated(p)
        edited = list(labels)
        variants = [
            (labels, GEN_SINKS, GEN_SANITIZERS),
            (labels[::2], GEN_SINKS, GEN_SANITIZERS),
            (labels, other_sinks, GEN_SANITIZERS),
            (labels, GEN_SINKS, no_sanitizers),
            (edited, GEN_SINKS, GEN_SANITIZERS),
        ]
        want = {
            (l.id, k): render_dot(forward_slice(build_pdg(p, cg), l), p, *v)
            for l in labels
            for k, v in enumerate(variants)
        }
        want.update({
            (l.id, "edited"): render_dot(forward_slice(build_pdg(p, cg), l), p, labels[1:],
                                         GEN_SINKS, GEN_SANITIZERS)
            for l in labels
        })
        slices = [forward_slice(g, l) for l in labels]
        assert sum(len(s.ids) for s in slices) > len(set().union(*(s.ids for s in slices)))
        for s in slices + slices[::-1]:
            assert render_dot(s, p, *variants[0]) == want[(s.root.id, 0)]
        for s in slices:
            for k in (1, 0, 2, 0, 3, 4, 0):
                assert render_dot(s, p, *variants[k]) == want[(s.root.id, k)]
        del edited[0]
        for s in slices[::-1]:
            assert render_dot(s, p, edited, GEN_SINKS, GEN_SANITIZERS) == want[(s.root.id, "edited")]


# ---------------------------------------------------------------------------
# Serialization and summary
# ---------------------------------------------------------------------------


def test_report_key_order_fixed():
    *_, report, _, _ = pipeline(FIXTURE_A)
    assert list(json.loads(serialize_report(report))) == [
        "version",
        "input_digest",
        "assumptions",
        "findings",
        "slices",
        "data_safety",
        "statements",
    ]


def test_serialization_deterministic():
    a = serialize_report(pipeline(FIXTURE_B)[5])
    b = serialize_report(pipeline(FIXTURE_B)[5])
    assert a == b


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_encoder_rejects_non_finite_floats(value):
    with pytest.raises(ValueError):
        json.dumps(value, allow_nan=False)
    *_, report, _, _ = pipeline(FIXTURE_A)
    report.findings[0] = report.findings[0]._replace(risk=value)
    with pytest.raises(ValueError):
        serialize_report(report)


def assert_serialized_as_report_dict(r):
    assert serialize_report(r) == json.dumps(report_dict(r), indent=2, ensure_ascii=False) + "\n"


def test_serialized_fixture_reports_match_the_report_dict(tmp_path):
    for pir in sorted(FIXTURES.glob("*.pir")):
        cfg = build_config(make_parser().parse_args(analyze_args(pir, tmp_path)))
        assert_serialized_as_report_dict(run_analysis(pir.read_bytes(), cfg).report)


GEN_DPV = DpvMap(
    category_iri={c: f"iri:{c}" for c in ("Location", "DeviceId", "Name")},
    sinkkind_iri={k.value: f"iri:{k.value}" for k in SinkKind},
    collection_iri="iri:collect",
    pseudonymisation_iri="iri:pseudo",
)


def test_serialized_generated_reports_match_the_report_dict():
    rng = random.Random(3232)
    programs = [gen_program(rng, allow_loops=True, allow_recursion=True) for _ in range(200)]
    programs += [gen_hub_program(rng, n_methods=rng.randint(2, 8)) for _ in range(40)]
    kinds = set()
    for p in programs:
        cg, g, labels, rules = analyze_generated(p)
        taint = build_taint_result(rules, p, GEN_SINKS, g)
        slices = [forward_slice(g, l) for l in labels]
        r = build_report(p, labels, slices, taint, GEN_DPV, GEN_SINKS, "0" * 64)
        assert_serialized_as_report_dict(r)
        kinds |= {f.kind for f in r.findings}
    assert kinds == set(FindingKind)


# Strings with every character JSON escapes, spaces, line separators,
# non-BMP characters and the empty string
_NASTY = st.text(st.characters() | st.sampled_from('"\\\x00\x01\n\x1f\x7f \xa0\u2028😀𝄞'),
                 max_size=6)


@st.composite
def audit_reports(draw):
    """AuditReports whose records share a few locations and labels, with
    empty lists, None names, both origin kinds, and slice entries whose
    roots and sink nodes are the same locations."""
    locs = st.sampled_from(draw(st.lists(st.builds(Loc, _NASTY, _NASTY, st.integers(0, 10**9)),
                                         min_size=1, max_size=4)))
    origin = st.builds(Origin, st.sampled_from(["SystemApi", "UserInput"]) | _NASTY,
                       st.none() | _NASTY, st.none() | _NASTY)
    labels = st.sampled_from(draw(st.lists(
        st.builds(SourceLabel, st.integers(0, 10**9), locs,
                  st.builds(PersonalDataCategory, _NASTY), origin),
        min_size=1, max_size=4)))
    texts = st.lists(_NASTY, max_size=3).map(tuple)
    flow = st.builds(Flow, labels, st.builds(SinkRef, locs, st.sampled_from(SinkKind),
                                             st.none() | _NASTY),
                     st.sampled_from(Status), st.lists(locs, max_size=5).map(tuple), texts)
    provenance = (st.tuples(st.just("flow"), st.integers(0, 10**9), locs)
                  | st.tuples(st.just("collection"), st.integers(0, 10**9)))
    statement = st.builds(ComplianceStatement, _NASTY, _NASTY, st.none() | _NASTY, texts,
                          st.sampled_from(Status), provenance)
    risk = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([1e16, 5e-324])
    findings = draw(st.lists(
        st.builds(Finding, _NASTY, st.sampled_from(FindingKind), risk, labels,
                  st.none() | flow, statement),
        max_size=6))
    slices = draw(st.lists(
        st.builds(SliceEntry, st.integers(0, 10**9), locs, st.integers(0, 10**9),
                  st.integers(0, 10**9), st.lists(locs, max_size=4).map(tuple)),
        max_size=4))
    return AuditReport(__version__, draw(_NASTY), ASSUMPTIONS, findings, slices,
                       draft_data_safety(findings))


@settings(deadline=None)
@given(audit_reports())
def test_serialized_reports_match_the_report_dict(r):
    assert_serialized_as_report_dict(r)


# draft_data_safety always sets "collected" and writes only two security
# values; the template takes any entry of that shape.
@pytest.mark.parametrize("data_safety", [
    {},
    {"Location": {"collected": False, "shared_with": [], "security": None}},
    {"EmailAddress": {"collected": True, "shared_with": ["Tracker", "network"],
                      "security": "pseudonymised"}},
    {'"\\ 😀': {"collected": False, "shared_with": ['"', "\x00\x1f", ""],
                     "security": "\x7f\n"}},
    {"": {"collected": True, "shared_with": ["a"], "security": None},
     "Name": {"collected": False, "shared_with": [], "security": ""}},
])
def test_data_safety_entries_are_written_as_json_dumps(data_safety):
    assert_serialized_as_report_dict(
        AuditReport(__version__, "0" * 64, ASSUMPTIONS, [], [], data_safety))


@pytest.mark.parametrize("sinks", ["none", "root", "witness"])
def test_slice_entries_are_written_as_json_dumps(sinks):
    """A slice with no sink nodes, one whose sink node is its own root
    (its text at indent 6 and at indent 8), and one whose sink nodes are
    the findings' witness locations (their indent-8 texts shared)."""
    *_, report, _, _ = pipeline(FIXTURE_A)
    flow = next(f.flow for f in report.findings if f.flow is not None)
    root = Loc('app."Screen" ', "onCreate/0", 7)
    sink_nodes = {"none": (), "root": (root, root), "witness": flow.witness}[sinks]
    report.slices = [SliceEntry(0, root, 12, 2, sink_nodes), *report.slices]
    assert_serialized_as_report_dict(report)


@pytest.mark.parametrize("tool_version, assumptions", [
    ('0.1"\\\x00', ()),
    ("", ("", "  😀", '"quoted"\n')),
])
def test_version_and_assumptions_are_written_as_json_dumps(tool_version, assumptions):
    assert_serialized_as_report_dict(
        AuditReport(tool_version, "", assumptions, [], [], {}))


def test_serialize_peak_memory_is_about_twice_the_output():
    # json.dumps(indent=2) builds a chunk list of the whole output: about 7x its length.
    loc = lambda i, j: Loc(f"app.Screen{i}", f"onSubmit{j}/1", j)
    slices = [
        SliceEntry(i, loc(i, 0), 40 + i, 3, tuple(loc(i, j) for j in range(5)))
        for i in range(4000)
    ]
    r = AuditReport(__version__, "0" * 64, ASSUMPTIONS, [], slices, {})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = serialize_report(r)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 2_500_000
    assert peak <= 3 * len(text)


def test_serialize_peak_memory_with_shared_locations_stays_near_the_output():
    """4,000 findings over 50 locations, with 10-step witnesses: the memo
    of location and label texts and the lists of finding texts stay within
    the output's own size."""
    locs = [Loc(f"app.Screen{i}", f"onSubmit{i}/1", i) for i in range(50)]
    labels = [SourceLabel(i, locs[i], PersonalDataCategory("EmailAddress"),
                          Origin("UserInput", f"field{i}", "email")) for i in range(50)]
    findings = []
    for n in range(4000):
        sink = SinkRef(locs[n * 7 % 50], SinkKind.ANALYTICS, "Tracker")
        flow = Flow(labels[n % 50], sink, Status.RAW,
                    tuple(locs[(n + k) % 50] for k in range(10)), ())
        findings.append(Finding(f"F{n}", FindingKind.RAW_FLOW, 6.0, flow.source, flow,
                                map_flow(flow, DPV)))
    r = AuditReport(__version__, "0" * 64, ASSUMPTIONS, findings, [], {})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = serialize_report(r)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 5_000_000
    assert peak <= 3 * len(text)


def test_digest_changes_with_input():
    assert input_digest("x") != input_digest("y")
    assert input_digest("ab", "c") != input_digest("a", "bc")


def test_summary_derived_from_the_findings():
    *_, report, _, _ = pipeline(FIXTURE_A)
    text = summarize(report)
    assert "EmailAddress -> Tracker (Analytics)" in text
    assert "risk 6" in text
    assert "\x1b[" not in text
    colored = summarize(report, color=True)
    assert "\x1b[31m" in colored


def test_summary_mentions_no_egress():
    src = """\
class C extends D {
  method void f() {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: return
  }
}
"""
    *_, report, _, _ = pipeline(src)
    text = summarize(report)
    assert "never reaches a sink" in text
