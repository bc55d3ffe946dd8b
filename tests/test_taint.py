import random
from pathlib import Path

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
    round_robin_taint,
    shortest_witness,
    sink_facts,
)
from pdaudit.graph import MethodId, build_call_graph, build_pdg
from pdaudit import taint
from pdaudit.ir import Call, Goto, If, Loc, parse_program
from pdaudit.registry import (
    Lexicon,
    PersonalDataCategory,
    SanitizerRegistry,
    SinkKind,
    SinkMatch,
    SinkRegistry,
    SourceRegistry,
    label_sources,
    load_registries,
)
from pdaudit.taint import (
    Status,
    _least_path,
    _search,
    build_taint_result,
    collect_flows,
    propagate,
    unsunk_labels,
)


FIXTURES = Path(__file__).parent / "fixtures"


def analyze(text):
    sources, sinks, sanitizers, lexicon = fixture_registries()
    p = parse_program(text)
    cg = build_call_graph(p)
    g = build_pdg(p, cg)
    labels = label_sources(p, sources, lexicon)
    rules = propagate(p, cg, labels, sanitizers)
    return p, cg, g, labels, rules, sinks, sanitizers


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
    rules = propagate(p, cg, labels, GEN_SANITIZERS)
    return cg, g, labels, rules


# ---------------------------------------------------------------------------
# Fixture verdicts (hand-derived by running the transfer rules on paper)
# ---------------------------------------------------------------------------


def flow_set(text):
    """{(sink Loc, source id, status)} of the flows of a fixture text."""
    p, _, g, _, rules, sinks, _ = analyze(text)
    return {(f.sink.location, f.source.id, f.status) for f in collect_flows(rules, sinks, g)}


def test_fixture_a_fact_at_sink():
    assert flow_set(FIXTURE_A) == {(Loc("com.app.Main", "onCreate/0", 1), 0, Status.RAW)}


def test_fixture_b_join_is_raw():
    # $p joins a hashed and a raw copy of the location at the sink
    assert flow_set(FIXTURE_B) == {(Loc("com.app.Loc", "send/1", 5), 0, Status.RAW)}


def test_fixture_b_prime_is_pseudonymized():
    # both branches hash; $l stays raw, but the sink reads only $p
    assert flow_set(FIXTURE_B_PRIME) == {
        (Loc("com.app.Loc", "send/1", 5), 0, Status.PSEUDONYMIZED)
    }


def analyze_fixture(name):
    """analyze for tests/fixtures/<name> under the on-disk fixture
    registries."""
    reg = FIXTURES / "registries"
    sources, sinks, sanitizers, lexicon = load_registries(
        *(reg / f"{part}.json" for part in ("sources", "sinks", "sanitizers", "lexicon")))
    p = parse_program((FIXTURES / name).read_text(encoding="utf-8"))
    cg = build_call_graph(p)
    g = build_pdg(p, cg)
    labels = label_sources(p, sources, lexicon)
    rules = propagate(p, cg, labels, sanitizers)
    return p, cg, g, labels, rules, sinks, sanitizers


def test_sanitizer_method_body_receives_its_argument_raw():
    """A registry sanitizer that is also a program method feeds its body,
    whose log call is a Raw flow, while the call's result stays
    Pseudonymized; the round-robin oracle follows the same rule."""
    p, cg, g, labels, rules, sinks, sanitizers = analyze_fixture("sanitizer_method.pir")
    flows = collect_flows(rules, sinks, g)
    want = {
        (Loc("com.app.Crypto", "hash/1", 0), 0, Status.RAW),
        (Loc("com.app.Main", "onCreate/0", 2), 0, Status.PSEUDONYMIZED),
    }
    assert {(f.sink.location, f.source.id, f.status) for f in flows} == want
    assert flows[1].manipulations == ("com.app.Crypto.hash",)
    before, _, _ = round_robin_taint(p, cg, labels, sanitizers)
    assert sink_facts(p, before, sinks) == want


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.pir")))
def test_fixture_search_rules_and_flows_match_the_oracles(name):
    """propagate's blocked pass-through ids are the oracle's resolved
    non-sanitizer calls, its sanitizer ids the calls to registry
    sanitizers, and the fixture's flows are the round-robin oracle's
    (sink, source id, status) set."""
    p, cg, g, labels, rules, sinks, sanitizers = analyze_fixture(name)
    assert {g.locs[v] for v in rules.blocked_pass_through} == blocked_pass_through_locs(
        p, cg, sanitizers)
    assert {g.locs[v] for v in rules.sanitizers} == {
        loc for loc, s in p.iter_locs() if isinstance(s, Call) and s.callee in sanitizers}
    assert rules.labels == labels
    flows = collect_flows(rules, sinks, g)
    before, _, _ = round_robin_taint(p, cg, labels, sanitizers)
    assert {(f.sink.location, f.source.id, f.status) for f in flows} == sink_facts(
        p, before, sinks)


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


def test_fixture_a_flow():
    p, cg, g, labels, rules, sinks, _ = analyze(FIXTURE_A)
    flows = collect_flows(rules, sinks, g)
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
    p, cg, g, labels, rules, sinks, _ = analyze(FIXTURE_B)
    flows = collect_flows(rules, sinks, g)
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
    p, cg, g, labels, rules, sinks, _ = analyze(src)
    flows = collect_flows(rules, sinks, g)
    assert flows == []
    assert [l.id for l in unsunk_labels(labels, flows)] == [0]


def test_flow_status_fixtures():
    for text, status in [
        (FIXTURE_A, Status.RAW),
        (FIXTURE_B, Status.RAW),
        (FIXTURE_B_PRIME, Status.PSEUDONYMIZED),
    ]:
        p, cg, g, labels, rules, sinks, _ = analyze(text)
        flows = collect_flows(rules, sinks, g)
        assert len(flows) == 1
        assert flows[0].status is status


@pytest.mark.parametrize("shape", ["a", "b", "b_prime", "hub"])
def test_one_search_per_label(monkeypatch, shape):
    """collect_flows runs _search once per label that has a graph node,
    also when the search meets a sanitizer call (b, b_prime) or reaches
    sinks through field cells (hub), and hands it the search rules."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _search(*args)

    monkeypatch.setattr(taint, "_search", counted)
    if shape == "hub":
        rng = random.Random(5151)
        cases = []
        for _ in range(40):
            _, g, _, rules = analyze_generated(gen_hub_program(rng, n_methods=rng.randint(2, 8)))
            cases.append((g, rules, GEN_SINKS))
    else:
        text = {"a": FIXTURE_A, "b": FIXTURE_B, "b_prime": FIXTURE_B_PRIME}[shape]
        _, _, g, _, rules, sinks, _ = analyze(text)
        cases = [(g, rules, sinks)]
    for g, rules, sinks in cases:
        calls.clear()
        collect_flows(rules, sinks, g)
        srcs = [g.id_of(l.location) for l in rules.labels]
        assert calls == [(g, src, rules.blocked_pass_through, rules.sanitizers)
                         for src in srcs if src is not None]
        assert calls


def test_witness_edges_exist_in_graph():
    p, cg, g, labels, rules, sinks, _ = analyze(FIXTURE_B)
    pairs = {(e.src, e.dst) for e in g.edges}
    for f in collect_flows(rules, sinks, g):
        for a, b in zip(f.witness, f.witness[1:]):
            assert (a, b) in pairs


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["gen", "perf", "hub", "shared"]))
def test_search_keeps_each_nodes_least_shortest_valid_path(seed, shape):
    """_search from any src, over any blocked and sanitizer sets, gives 1-4
    nodes oracles.shortest_witness as their _least_path, and reaches
    exactly the nodes the oracle finds a path to; over its clean states
    alone, it gives them the oracle's path with the sanitizers stopped.
    Half the draws take their nodes from those the search reaches. Loops
    and recursion give cycles; hub and shared cell programs give field
    cells with many stores, where a wrong parent for a load would show."""
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
    blocked = frozenset(rng.sample(range(n), rng.randrange(n // 3 + 1)))
    sanitizers = frozenset(rng.sample(range(n), rng.randrange(n // 4 + 1)))
    src = rng.randrange(n)
    parent = _search(g, src, blocked, sanitizers)
    clean = {s: t for s, t in parent.items() if not s & 1}  # clean states have clean parents
    pool = sorted({s >> 2 for s in parent}) if rng.random() < 0.5 else range(n)
    blocked_locs = frozenset(g.locs[b] for b in blocked)
    for dst in rng.sample(pool, rng.randint(1, min(len(pool), 4))):
        for reached, stopped in ((parent, frozenset()), (clean, sanitizers)):
            want = shortest_witness(g, g.locs[src], g.locs[dst], blocked_locs,
                                    frozenset(g.locs[s] for s in stopped))
            path = _least_path(reached, dst)
            assert (None if path is None else [g.locs[w] for w in path]) == want, (
                src, dst, stopped)


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
        cg, g, labels, rules = analyze_generated(p)
        blocked = blocked_pass_through_locs(p, cg, GEN_SANITIZERS)
        for f in collect_flows(rules, GEN_SINKS, g):
            want = shortest_witness(g, f.source.location, f.sink.location, blocked)
            assert list(f.witness) == want, (f.source.location, f.sink.location)
            checked += 1
    assert checked >= minimum, checked


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
    p, cg, g, labels, rules, sinks, _ = analyze(src)
    flows = collect_flows(rules, sinks, g)
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
    p, cg, g, labels, rules, sinks, _ = analyze(src)
    flows = collect_flows(rules, sinks, g)
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
    p, cg, g, labels, rules, sinks, _ = analyze(src)
    flows = collect_flows(rules, sinks, g)
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
    p, cg, g, labels, rules, sinks, sanitizers = analyze(src)
    flows = collect_flows(rules, sinks, g)
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
    p, cg, g, labels, rules, sinks, _ = analyze(src)
    assert collect_flows(rules, sinks, g) == []


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
    p, cg, g, labels, rules, sinks, _ = analyze(src)
    assert len(labels) == 1  # still labelled: collection exists in the code
    assert collect_flows(rules, sinks, g) == []


# ---------------------------------------------------------------------------
# Oracle comparison (the full 500-program run lives in test_acceptance)
# ---------------------------------------------------------------------------


def flow_facts(p):
    """{(sink Loc, source id, status)} of p's flows under the gen registries,
    and p's call graph and labels."""
    cg, g, labels, rules = analyze_generated(p)
    flows = build_taint_result(rules, p, GEN_SINKS, g).flows
    return {(f.sink.location, f.source.id, f.status) for f in flows}, cg, labels


def assert_matches_oracle(p):
    got, cg, labels = flow_facts(p)
    before, _ = all_paths_taint(p, cg, labels, GEN_SANITIZERS)
    assert got == sink_facts(p, before, GEN_SINKS)


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
        got, cg, labels = flow_facts(p)
        before, _, _ = round_robin_taint(p, cg, labels, GEN_SANITIZERS)
        assert got == sink_facts(p, before, GEN_SINKS)
        looped += any(
            isinstance(s, (If, Goto)) and s.target <= i
            for _, m in p.iter_methods()
            for i, s in enumerate(m.body)
        )
        recursive += _has_call_cycle(p, cg)
    assert looped >= 30 and recursive >= 30, (looped, recursive)


def test_flows_match_round_robin_oracle_on_hub_programs():
    """Hub programs store into and load from program-wide field cells from
    many methods, so the flows depend on the cells' contents."""
    rng = random.Random(4343)
    via_cell = 0
    for _ in range(40):
        p = gen_hub_program(rng, n_methods=rng.randint(2, 8))
        got, cg, labels = flow_facts(p)
        before, _, fields = round_robin_taint(p, cg, labels, GEN_SANITIZERS)
        assert got == sink_facts(p, before, GEN_SINKS)
        via_cell += bool(got) and any(fields.values())
    assert via_cell >= 20, via_cell


def test_loops_terminate_and_overapproximate_unrolled():
    # k=2 unrolling: copy the body, aim back-jumps of the first copy at the
    # second, cut the second copy's back-jumps to the method end
    rng = random.Random(55)
    checked = mapped = 0
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
        flows, _, labels = flow_facts(p)
        uflows, _, ulabels = flow_facts(unrolled)
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
        status = {(loc, sid): st for loc, sid, st in flows}
        for loc, uid, st in uflows:  # sinks are calls: none is the added return
            orig = (Loc(loc.cls, loc.method, orig_index(loc.method, loc.index)), id_map[uid])
            assert status.get(orig, 0) >= st, (loc, uid)
            mapped += 1
    assert checked >= 10 and mapped >= 10, (checked, mapped)


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
        rules_all = propagate(p, cg, labels, GEN_SANITIZERS)
        rules_some = propagate(p, cg, labels[:-1], GEN_SANITIZERS)
        flows_all = {
            (f.sink.location, f.source.id)
            for f in collect_flows(rules_all, GEN_SINKS, g)
        }
        flows_some = {
            (f.sink.location, f.source.id)
            for f in collect_flows(rules_some, GEN_SINKS, g)
        }
        assert flows_some <= flows_all


def test_taint_result_partition():
    p, cg, g, labels, rules, sinks, _ = analyze(FIXTURE_B)
    tr = build_taint_result(rules, p, sinks, g)
    assert {f.source.id for f in tr.flows} | {l.id for l in tr.unsunk} == {
        l.id for l in labels
    }
    assert {f.source.id for f in tr.flows} & {l.id for l in tr.unsunk} == set()
