import random

import pytest

from conftest import FIXTURE_A, FIXTURE_B, FIXTURE_B_PRIME, fixture_registries
from gen import SANITIZER_SIGS, SINK_SIGS, SOURCE_SIGS, gen_program
from oracles import (
    all_paths_taint,
    expected_all_paths_pseudonymized,
    program_sink_stmts,
    round_robin_taint,
)
from pdaudit.graph import MethodId, build_call_graph, build_pdg
from pdaudit.ir import AssignCall, Goto, If, Loc, parse_program
from pdaudit.registry import (
    Lexicon,
    PersonalDataCategory,
    SanitizerRegistry,
    SinkKind,
    SinkMatch,
    SinkRegistry,
    SourceRegistry,
    label_sources,
)
from pdaudit.taint import (
    FieldCell,
    LocalCell,
    NotALabelError,
    Status,
    build_taint_result,
    collect_flows,
    derived_data,
    propagate,
    unsunk_labels,
)


def analyze(text):
    sources, sinks, sanitizers, lexicon = fixture_registries()
    p = parse_program(text)
    cg = build_call_graph(p)
    g = build_pdg(p, cg)
    labels = label_sources(p, sources, lexicon)
    pr = propagate(p, cg, labels, sanitizers)
    return p, cg, g, labels, pr, sinks, sanitizers


GEN_SOURCES = SourceRegistry({sig: PersonalDataCategory(cat) for sig, cat in SOURCE_SIGS.items()})
GEN_SINKS = SinkRegistry(
    exact={sig: SinkMatch(SinkKind(kind), name) for sig, (kind, name) in SINK_SIGS.items()},
    prefixes={},
)
GEN_SANITIZERS = SanitizerRegistry(frozenset(SANITIZER_SIGS))
GEN_LEXICON = Lexicon({})


def analyze_generated(p):
    cg = build_call_graph(p)
    g = build_pdg(p, cg)
    labels = label_sources(p, GEN_SOURCES, GEN_LEXICON)
    pr = propagate(p, cg, labels, GEN_SANITIZERS)
    return cg, g, labels, pr


# ---------------------------------------------------------------------------
# Fixture facts (hand-derived by running the transfer rules on paper)
# ---------------------------------------------------------------------------


def test_fixture_a_fact_at_sink():
    p, _, _, labels, pr, _, _ = analyze(FIXTURE_A)
    loc = Loc("com.app.Main", "onCreate/0", 1)
    assert pr.raw_before(loc) == {("$e", 0): Status.RAW}


def test_fixture_b_join_is_raw():
    p, _, _, _, pr, _, _ = analyze(FIXTURE_B)
    loc = Loc("com.app.Loc", "send/1", 5)
    assert pr.raw_before(loc) == {("$l", 0): Status.RAW, ("$p", 0): Status.RAW}


def test_fixture_b_prime_is_pseudonymized():
    p, _, _, _, pr, _, _ = analyze(FIXTURE_B_PRIME)
    loc = Loc("com.app.Loc", "send/1", 5)
    assert pr.raw_before(loc) == {
        ("$l", 0): Status.RAW,
        ("$p", 0): Status.PSEUDONYMIZED,
    }


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


def test_fixture_a_flow():
    p, cg, g, labels, pr, sinks, _ = analyze(FIXTURE_A)
    flows = collect_flows(pr, sinks, g)
    assert len(flows) == 1
    f = flows[0]
    assert f.source.id == 0
    assert f.sink.kind is SinkKind.ANALYTICS and f.sink.name == "Tracker"
    assert f.sink.location.index == 1
    assert f.status is Status.RAW
    assert [w.index for w in f.witness] == [0, 1]
    assert f.manipulations == ()


def test_fixture_b_flow_witness_tiebreak():
    # two shortest paths 0-2-5 and 0-4-5; lexicographic order picks 0-2-5,
    # whose interior statement is the hash call
    p, cg, g, labels, pr, sinks, _ = analyze(FIXTURE_B)
    flows = collect_flows(pr, sinks, g)
    assert len(flows) == 1
    f = flows[0]
    assert f.sink.kind is SinkKind.NETWORK
    assert f.status is Status.RAW
    assert [w.index for w in f.witness] == [0, 2, 5]
    assert f.manipulations == ("com.app.Crypto.hash",)


def test_unsunk_label_reported():
    src = """\
class C extends D {
  method void f() {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: return
  }
}
"""
    p, cg, g, labels, pr, sinks, _ = analyze(src)
    flows = collect_flows(pr, sinks, g)
    assert flows == []
    assert [l.id for l in unsunk_labels(labels, flows)] == [0]


def test_flow_status_fixtures():
    for text, status in [
        (FIXTURE_A, Status.RAW),
        (FIXTURE_B, Status.RAW),
        (FIXTURE_B_PRIME, Status.PSEUDONYMIZED),
    ]:
        p, cg, g, labels, pr, sinks, _ = analyze(text)
        flows = collect_flows(pr, sinks, g)
        assert len(flows) == 1
        assert flows[0].status is status


def test_witness_edges_exist_in_graph():
    p, cg, g, labels, pr, sinks, _ = analyze(FIXTURE_B)
    pairs = {(e.src, e.dst) for e in g.edges}
    for f in collect_flows(pr, sinks, g):
        for a, b in zip(f.witness, f.witness[1:]):
            assert (a, b) in pairs


def test_flow_through_field_cell():
    src = """\
class C extends D {
  method void put() {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: store C.loc = $l
    2: return
  }
  method void push() {
    0: $v = load C.loc
    1: call com.net.Http.post($v)
    2: return
  }
}
"""
    p, cg, g, labels, pr, sinks, _ = analyze(src)
    flows = collect_flows(pr, sinks, g)
    assert len(flows) == 1
    f = flows[0]
    assert f.sink.location == Loc("C", "push/0", 1)
    assert f.status is Status.RAW
    assert [(w.method, w.index) for w in f.witness] == [
        ("put/0", 0),
        ("put/0", 1),
        ("push/0", 0),
        ("push/0", 1),
    ]


def test_interprocedural_flow_and_sanitizer_idempotence():
    src = """\
class C extends D {
  method void f() {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: $h = call com.app.Crypto.hash($l)
    2: $h2 = call com.app.Crypto.hash($h)
    3: call com.net.Http.post($h2)
    4: return
  }
}
"""
    p, cg, g, labels, pr, sinks, _ = analyze(src)
    flows = collect_flows(pr, sinks, g)
    assert len(flows) == 1
    assert flows[0].status is Status.PSEUDONYMIZED


def test_resolved_call_propagates_through_params_and_return():
    src = """\
class Main extends E {
  method void go() {
    0: $x = call android.location.LocationManager.getLastKnownLocation()
    1: $y = call Help.id($x)
    2: call com.net.Http.post($y)
    3: return
  }
}
class Help extends E {
  method java.lang.String id(p0) {
    0: return p0
  }
}
"""
    p, cg, g, labels, pr, sinks, _ = analyze(src)
    flows = collect_flows(pr, sinks, g)
    assert len(flows) == 1
    assert flows[0].status is Status.RAW
    assert flows[0].sink.location == Loc("Main", "go/0", 2)


def test_resolved_callee_sanitizing_internally():
    # the hash happens inside the callee; the verdict and the witness must
    # route through the callee body, not through an arg-to-lhs shortcut
    src = """\
class Main extends E {
  method void go() {
    0: $x = call android.location.LocationManager.getLastKnownLocation()
    1: $y = call Main.scrub($x)
    2: call com.net.Http.post($y)
    3: return
  }
  method java.lang.String scrub(p0) {
    0: $h = call com.app.Crypto.hash(p0)
    1: return $h
  }
}
"""
    p, cg, g, labels, pr, sinks, sanitizers = analyze(src)
    flows = collect_flows(pr, sinks, g)
    assert len(flows) == 1
    f = flows[0]
    assert f.status is Status.PSEUDONYMIZED
    assert [(w.method, w.index) for w in f.witness] == [
        ("go/0", 0),
        ("scrub/1", 0),
        ("scrub/1", 1),
        ("go/0", 1),
        ("go/0", 2),
    ]
    assert f.manipulations == ("com.app.Crypto.hash", "Main.scrub")
    from oracles import expected_all_paths_pseudonymized

    assert expected_all_paths_pseudonymized(g, p, sanitizers, cg, f)


def test_resolved_callee_ignoring_arg_yields_no_flow():
    src = """\
class Main extends E {
  method void go() {
    0: $x = call android.location.LocationManager.getLastKnownLocation()
    1: $y = call Help.konst($x)
    2: call com.net.Http.post($y)
    3: return
  }
}
class Help extends E {
  method java.lang.String konst(p0) {
    0: $c = "fixed"
    1: return $c
  }
}
"""
    p, cg, g, labels, pr, sinks, _ = analyze(src)
    assert collect_flows(pr, sinks, g) == []


def test_unreachable_source_generates_no_facts():
    src = """\
class C extends D {
  method void f() {
    0: goto 3
    1: $l = call android.location.LocationManager.getLastKnownLocation()
    2: call com.net.Http.post($l)
    3: return
  }
}
"""
    p, cg, g, labels, pr, sinks, _ = analyze(src)
    assert len(labels) == 1  # still labelled: collection exists in the code
    assert collect_flows(pr, sinks, g) == []


def test_derived_data_fixture_b():
    p, cg, g, labels, pr, sinks, _ = analyze(FIXTURE_B)
    dd = derived_data(pr, labels[0])
    assert {c.name for c in dd.cells if isinstance(c, LocalCell)} == {"$l", "$p"}
    assert dd.signatures == frozenset({"com.app.Crypto.hash"})


def test_derived_data_fixture_a():
    p, cg, g, labels, pr, sinks, _ = analyze(FIXTURE_A)
    dd = derived_data(pr, labels[0])
    assert {c.name for c in dd.cells} == {"$e"}
    assert dd.signatures == frozenset()


def test_derived_data_includes_field_cells():
    src = """\
class C extends D {
  method void f() {
    0: $l = call android.location.LocationManager.getLastKnownLocation()
    1: store C.loc = $l
    2: return
  }
}
"""
    p, cg, g, labels, pr, sinks, _ = analyze(src)
    dd = derived_data(pr, labels[0])
    assert FieldCell("C", "loc") in dd.cells


def test_derived_data_unknown_label():
    p, cg, g, labels, pr, sinks, _ = analyze(FIXTURE_A)
    from pdaudit.registry import Origin, SourceLabel

    ghost = SourceLabel(99, labels[0].location, labels[0].category, Origin("SystemApi"))
    with pytest.raises(NotALabelError):
        derived_data(pr, ghost)


# ---------------------------------------------------------------------------
# Oracle comparison (the full 500-program run lives in test_acceptance)
# ---------------------------------------------------------------------------


def assert_matches_oracle(p):
    cg, g, labels, pr = analyze_generated(p)
    expected_points, expected_fields = all_paths_taint(p, cg, labels, GEN_SANITIZERS)
    for sink in program_sink_stmts(p, GEN_SINKS):
        assert pr.raw_before(sink) == expected_points.get(sink, {}), f"at {sink}"
    got_fields = {cell: dict(v) for cell, v in pr.field_cells.items() if v}
    exp_fields = {cell: dict(v) for cell, v in expected_fields.items() if v}
    assert got_fields == exp_fields


def test_fixpoint_matches_path_oracle_smoke():
    rng = random.Random(2024)
    for _ in range(60):
        assert_matches_oracle(gen_program(rng))


def _has_call_cycle(p, cg):
    calls = {MethodId(c.name, m.key): set() for c, m in p.iter_methods()}
    for loc, _ in p.iter_locs():
        calls[MethodId(loc.cls, loc.method)].update(cg.resolved(loc))
    done, active = set(), set()

    def cyclic(mid):
        if mid in active:
            return True
        if mid in done:
            return False
        active.add(mid)
        found = any(cyclic(t) for t in sorted(calls[mid]))
        active.discard(mid)
        done.add(mid)
        return found

    return any(cyclic(mid) for mid in sorted(calls))


def _dense_derived_data(before, after, fields, label, p):
    """derived_data read off dense per-point states: every local named in
    any state with the label's id, field cells holding it, and assignments
    from calls (other than the label's own) whose after-state holds it."""
    cells = {
        LocalCell(loc.cls, loc.method, name)
        for table in (before, after)
        for loc, state in table.items()
        for name, sid in state
        if sid == label.id
    }
    cells |= {FieldCell(c, f) for (c, f), held in fields.items() if label.id in held}
    sigs = set()
    stmt_at = dict(p.iter_locs())
    for loc, state in after.items():
        stmt = stmt_at[loc]
        if loc != label.location and isinstance(stmt, AssignCall) and (stmt.lhs, label.id) in state:
            sigs.add(stmt.callee)
    return cells, sigs


def test_fixpoint_matches_round_robin_oracle_with_loops_and_recursion():
    rng = random.Random(7177)
    looped = recursive = 0
    for _ in range(120):
        p = gen_program(rng, allow_loops=True, allow_recursion=True)
        cg, g, labels, pr = analyze_generated(p)
        before, after, fields = round_robin_taint(p, cg, labels, GEN_SANITIZERS)
        for loc, _ in p.iter_locs():
            assert pr.raw_before(loc) == before.get(loc, {}), f"at {loc}"
        got_fields = {cell: dict(v) for cell, v in pr.field_cells.items() if v}
        assert got_fields == {cell: dict(v) for cell, v in fields.items() if v}
        for label in labels:
            dd = derived_data(pr, label)
            assert (dd.cells, dd.signatures) == _dense_derived_data(
                before, after, fields, label, p
            )
        for _, m in p.iter_methods():
            assert pr.raw_before(Loc("app.Main", m.key, len(m.body))) == {}
            assert pr.raw_before(Loc("app.Main", m.key, -1)) == {}
        assert pr.raw_before(Loc("app.Other", "m0/0", 0)) == {}
        looped += any(
            isinstance(s, (If, Goto)) and s.target <= i
            for _, m in p.iter_methods()
            for i, s in enumerate(m.body)
        )
        recursive += _has_call_cycle(p, cg)
    assert looped >= 30 and recursive >= 30, (looped, recursive)


def test_loops_terminate_and_overapproximate_unrolled():
    # k=2 unrolling: copy the body, aim back-jumps of the first copy at the
    # second, cut the second copy's back-jumps to the method end
    rng = random.Random(55)
    checked = 0
    for _ in range(120):
        p = gen_program(rng, allow_loops=True)
        has_back = any(
            isinstance(s, (If, Goto)) and s.target <= i
            for _, m in p.iter_methods()
            for i, s in enumerate(m.body)
        )
        if not has_back:
            continue
        checked += 1
        unrolled = _unroll_twice(p)
        cg, g, labels, pr = analyze_generated(p)
        ucg, ug, ulabels, upr = analyze_generated(unrolled)
        n_by_method = {m.key: (len(m.body) - 1) // 2 for _, m in unrolled.iter_methods()}

        def orig_index(method, i):
            n = n_by_method[method]
            return None if i >= 2 * n else (i if i < n else i - n)

        orig_label_at = {l.location: l.id for l in labels}
        id_map = {}
        for ul in ulabels:
            oi = orig_index(ul.location.method, ul.location.index)
            id_map[ul.id] = orig_label_at[
                Loc(ul.location.cls, ul.location.method, oi)
            ]
        for loc, _ in unrolled.iter_locs():
            oi = orig_index(loc.method, loc.index)
            if oi is None:
                continue
            base = pr.raw_before(Loc(loc.cls, loc.method, oi))
            for (name, uid), st in upr.raw_before(loc).items():
                assert base.get((name, id_map[uid]), 0) >= st, (loc, name, uid)
    assert checked >= 10


def _unroll_twice(p):
    from copy import deepcopy

    p2 = deepcopy(p)
    for cls in p2.classes:
        for m in cls.methods:
            n = len(m.body)
            copy_b = deepcopy(m.body)
            for i, s in enumerate(m.body):
                if isinstance(s, (If, Goto)) and s.target <= i:
                    s.target += n
            for i, s in enumerate(copy_b):
                if isinstance(s, (If, Goto)):
                    if s.target <= i:
                        s.target = 2 * n  # cut the loop
                    else:
                        s.target += n
            from pdaudit.ir import Return

            m.body = m.body + copy_b + [Return(None)]
    return p2


def test_monotone_in_labels():
    rng = random.Random(31)
    for _ in range(40):
        p = gen_program(rng)
        cg = build_call_graph(p)
        g = build_pdg(p, cg)
        labels = label_sources(p, GEN_SOURCES, GEN_LEXICON)
        if len(labels) < 2:
            continue
        pr_all = propagate(p, cg, labels, GEN_SANITIZERS)
        pr_some = propagate(p, cg, labels[:-1], GEN_SANITIZERS)
        flows_all = {
            (f.sink.location, f.source.id)
            for f in collect_flows(pr_all, GEN_SINKS, g)
        }
        flows_some = {
            (f.sink.location, f.source.id)
            for f in collect_flows(pr_some, GEN_SINKS, g)
        }
        assert flows_some <= flows_all


def test_taint_result_partition():
    p, cg, g, labels, pr, sinks, _ = analyze(FIXTURE_B)
    tr = build_taint_result(pr, p, sinks, g)
    assert {f.source.id for f in tr.flows} | {l.id for l in tr.unsunk} == {
        l.id for l in labels
    }
    assert {f.source.id for f in tr.flows} & {l.id for l in tr.unsunk} == set()
