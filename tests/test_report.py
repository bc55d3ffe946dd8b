import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_A, FIXTURE_B, FIXTURE_B_PRIME, fixture_registries
from gen import gen_hub_program, shared_cell_program
from pdaudit import __version__
from pdaudit.dpv import DpvMap
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
    FindingKind,
    ReportConfig,
    build_report,
    draft_data_safety,
    encode_json,
    input_digest,
    render_dot,
    report_json,
    risk_score,
    serialize_report,
    summarize,
)
from pdaudit.slicer import forward_slice
from pdaudit.taint import Status, build_taint_result, propagate
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
    assert len(report.statements) == 1


def test_fixture_b_prime_report():
    *_, report, _, _ = pipeline(FIXTURE_B_PRIME)
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.kind is FindingKind.PSEUDONYMIZED_FLOW
    assert f.risk == 2.0


def test_empty_program_report():
    *_, report, _, _ = pipeline("")
    assert report.findings == []
    assert report.statements == []
    assert report.data_safety == {}
    text = serialize_report(report)
    assert json.loads(text)["findings"] == []


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
    assert f.sink is None
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


def test_statement_count_partition():
    *_, report, _, _ = pipeline(FIXTURE_B)
    assert len(report.statements) == len(report.findings) == 1


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
    assert report.data_safety == draft_data_safety(report)


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
    assert list(report_json(report)) == [
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


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029é€😀'))
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308])
    | _TEXT,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(deadline=None)
@given(_JSON_VALUES)
def test_encoder_matches_json_dumps(value):
    assert encode_json(value) == json.dumps(value, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_encoder_rejects_non_finite_floats(value):
    with pytest.raises(ValueError):
        json.dumps(value, allow_nan=False)
    with pytest.raises(ValueError):
        encode_json({"findings": [{"risk": value}]})


@pytest.mark.parametrize("value", [(1, 2), {1: "x"}, {"a": b"x"}, {"a": object()}])
def test_encoder_rejects_other_types(value):
    with pytest.raises(TypeError):
        encode_json(value)


def test_serialize_peak_memory_is_about_twice_the_output():
    # json.dumps(indent=2) builds a chunk list of the whole output: about 7x its length.
    loc = lambda i, j: {"class": f"app.Screen{i}", "method": f"onSubmit{j}/1", "index": j}
    slices = [
        {"label": i, "root": loc(i, 0), "node_count": 40 + i, "methods_touched": 3,
         "sink_nodes": [loc(i, j) for j in range(5)]}
        for i in range(4000)
    ]
    r = AuditReport(__version__, "0" * 64, ASSUMPTIONS, [], slices, {}, [])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = serialize_report(r)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 2_500_000
    assert peak <= 3 * len(text)


def test_digest_changes_with_input():
    assert input_digest("x") != input_digest("y")
    assert input_digest("ab", "c") != input_digest("a", "bc")


def test_summary_derived_from_json():
    *_, report, _, _ = pipeline(FIXTURE_A)
    d = report_json(report)
    text = summarize(d)
    assert "EmailAddress -> Tracker (Analytics)" in text
    assert "risk 6" in text
    assert "\x1b[" not in text
    colored = summarize(d, color=True)
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
    text = summarize(report_json(report))
    assert "never reaches a sink" in text
