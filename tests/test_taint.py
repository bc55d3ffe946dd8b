import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_A, FIXTURE_B, FIXTURE_B_PRIME, fixture_registries
from gen import (
    SANITIZER_SIGS,
    SINK_SIGS,
    SOURCE_SIGS,
    gen_hub_program,
    gen_perf_program,
    gen_program,
    shared_cell_program,
)
from oracles import (
    all_paths_taint,
    blocked_pass_through_locs,
    expected_all_paths_pseudonymized,
    program_sink_stmts,
    round_robin_taint,
    shortest_witness,
)
from pdaudit.graph import CallGraph, MethodId, build_call_graph, build_pdg, method_facts
from pdaudit.ir import Goto, If, Loc, parse_program
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
    Status,
    _witnesses,
    build_taint_result,
    collect_flows,
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


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["gen", "perf", "hub", "shared"]))
def test_witness_search_finds_each_targets_least_shortest_valid_path(seed, shape):
    """_witnesses from any src, to any 1-4 targets, over any blocked set,
    gives each target oracles.shortest_witness, and leaves out exactly the
    targets the oracle finds no path to. Half the draws take their targets
    from the nodes a search to every node reaches. Loops and recursion
    give cycles; hub and shared cell programs give field cells with many
    stores, where a wrong parent for a load would show."""
    rng = random.Random(seed)
    if shape == "perf":
        p = gen_perf_program(rng, n_methods=6, stmts_each=20)
    elif shape == "hub":
        p = gen_hub_program(rng, n_methods=rng.randint(2, 8))
    elif shape == "shared":
        p = shared_cell_program(rng.randint(2, 6))
    else:
        p = gen_program(rng, allow_loops=True, allow_recursion=True)
    g = build_pdg(p, build_call_graph(p))
    n = len(g.locs)
    blocked = set(rng.sample(range(n), rng.randrange(n // 3 + 1)))
    src = rng.randrange(n)
    pool = list(_witnesses(g, src, set(range(n)), blocked)) if rng.random() < 0.5 else range(n)
    targets = set(rng.sample(pool, rng.randint(1, min(len(pool), 4))))
    got = _witnesses(g, src, targets, blocked)
    assert got.keys() <= targets
    for dst in targets:
        want = shortest_witness(g, g.locs[src], g.locs[dst], frozenset(g.locs[b] for b in blocked))
        path = got.get(dst)
        assert (None if path is None else [g.locs[w] for w in path]) == want, (src, dst)


@pytest.mark.parametrize("shape, programs, minimum", [
    ("gen", 300, 100), ("loops", 300, 100), ("hub", 30, 300), ("perf", 10, 30),
    ("shared", 7, 30)])
def test_every_witness_is_the_least_shortest_valid_path(shape, programs, minimum):
    """Each flow's witness is oracles.shortest_witness of its source and
    sink: the least, by (length, Loc sequence), of the valid data paths.
    Programs with and without loops and recursion, hub programs whose
    slices meet in field cells, small desk-shaped draws, and programs of
    2-8 methods that all store into and load from one cell, which each
    search expands once."""
    rng = random.Random(7373)
    checked = 0
    for k in range(programs):
        if shape == "gen":
            p = gen_program(rng)
        elif shape == "loops":
            p = gen_program(rng, allow_loops=True, allow_recursion=True)
        elif shape == "hub":
            p = gen_hub_program(rng, n_methods=rng.randint(2, 8))
        elif shape == "shared":
            p = shared_cell_program(2 + k)
        else:
            p = gen_perf_program(rng, n_methods=50, stmts_each=50)
        cg, g, labels, pr = analyze_generated(p)
        blocked = blocked_pass_through_locs(p, cg, GEN_SANITIZERS)
        for f in collect_flows(pr, GEN_SINKS, g):
            want = shortest_witness(g, f.source.location, f.sink.location, blocked)
            assert list(f.witness) == want, (f.source.location, f.sink.location)
            checked += 1
    assert checked >= minimum, checked


def test_witness_search_stops_once_its_targets_are_found():
    """On a desk-scale program a source's search for its own sinks expands
    fewer states than the same search run to every node."""
    p = gen_perf_program(random.Random(6161), n_methods=100, stmts_each=50)
    cg, g, labels, pr = analyze_generated(p)
    targets = {}
    for f in collect_flows(pr, GEN_SINKS, g):
        targets.setdefault(g.id_of(f.source.location), set()).add(g.id_of(f.sink.location))
    blocked = pr.blocked_pass_through  # graph ids
    every = set(range(len(g.locs)))
    calls = 0
    data_out = g.data_out

    def counted(v, expanded):
        nonlocal calls
        calls += 1
        return data_out(v, expanded)

    g.data_out = counted
    for src, ts in targets.items():
        _witnesses(g, src, ts, blocked)
    early, calls = calls, 0
    for src in targets:
        _witnesses(g, src, every, blocked)
    assert len(targets) >= 3 and early < calls, (len(targets), early, calls)


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


def test_fixpoint_matches_round_robin_oracle_with_loops_and_recursion():
    rng = random.Random(7177)
    looped = recursive = 0
    for _ in range(120):
        p = gen_program(rng, allow_loops=True, allow_recursion=True)
        cg, g, labels, pr = analyze_generated(p)
        before, _, fields = round_robin_taint(p, cg, labels, GEN_SANITIZERS)
        for loc, _ in p.iter_locs():
            assert pr.raw_before(loc) == before.get(loc, {}), f"at {loc}"
        got_fields = {cell: dict(v) for cell, v in pr.field_cells.items() if v}
        assert got_fields == {cell: dict(v) for cell, v in fields.items() if v}
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


def test_propagate_reads_call_targets_and_loads_from_the_method_facts(monkeypatch):
    """Once method_facts has run, propagate asks the call graph nothing and
    builds, hashes or compares no Loc: the field loads, each call's targets
    and the blocked pass-through statements come from the facts' record.
    blocked_pass_through holds the graph ids of the oracle's blocked
    statements that are reachable."""

    def refuse(*args, **kwargs):
        raise AssertionError("propagate asked the call graph or used a Loc")

    rng = random.Random(3131)
    programs = [gen_program(rng, allow_loops=True, allow_recursion=True) for _ in range(40)]
    programs += [gen_hub_program(rng, n_methods=6), gen_perf_program(rng, 20, 30)]
    bitten = 0  # programs with a label and a resolved call
    for p in programs:
        cg, g, labels, want = analyze_generated(p)
        facts = method_facts(p, cg)
        blocked = {
            g.id_of(loc) for loc in blocked_pass_through_locs(p, cg, GEN_SANITIZERS)
            if loc.index in facts[MethodId(loc.cls, loc.method)].reachable
        }
        cold = build_call_graph(p)
        method_facts(p, cold)
        with monkeypatch.context() as mp:
            for name in ("__init__", "__hash__", "__eq__"):
                mp.setattr(Loc, name, refuse)
            mp.setattr(CallGraph, "resolved", refuse)
            got = propagate(p, cold, labels, GEN_SANITIZERS)
        assert got.blocked_pass_through == blocked
        assert (got._entry, got._defs, got.field_cells) == (want._entry, want._defs, want.field_cells)
        bitten += bool(labels and cg.edges)
    assert bitten >= 15, bitten


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
