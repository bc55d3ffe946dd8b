import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import FIXTURE_A, FIXTURE_B, MUTUAL_EXTENDS, SELF_EXTENDS, time_limit
from gen import gen_hub_program, gen_perf_program, gen_program
from oracles import (
    brute_control_pairs,
    data_dep_pairs_by_paths,
    exit_unreachable,
    multi_pass_facts,
    reaching_defs_by_search,
    successors,
)
from pdaudit.graph import (
    _KIND_BITS,
    ENTRY_DEF,
    EXIT,
    CallGraph,
    DepEdge,
    DepGraph,
    EdgeKind,
    MethodId,
    _MethodFacts,
    build_call_graph,
    build_pdg,
    method_facts,
)
from pdaudit.ir import (
    AssignConst,
    AssignCopy,
    AssignFieldLoad,
    Call,
    ClassDef,
    FieldStore,
    Goto,
    If,
    Loc,
    MethodDef,
    Program,
    Return,
    parse_program,
    stmt_uses,
)


def loc(cls, method, i):
    return Loc(cls, method, i)


def edge_pairs(edges, kind):
    return {(e.src.index, e.dst.index) for e in edges if e.kind is kind}


def method_pairs(p, kind):
    """(src index, dst index) of build_pdg's edges of one kind, on a
    one-method program."""
    assert len(list(p.iter_methods())) == 1
    return edge_pairs(build_pdg(p, build_call_graph(p)).edges, kind)


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


def test_unresolved_call_goes_opaque():
    p = parse_program(FIXTURE_A)
    cg = build_call_graph(p)
    site = loc("com.app.Main", "onCreate/0", 1)
    assert site not in cg.edges
    assert cg.resolved(site) == ()


def test_cha_resolves_base_and_overrides():
    src = """\
class A extends java.lang.Object {
  method void f() { 0: return }
}
class B extends A {
  method void f() { 0: return }
}
class Main extends java.lang.Object {
  method void go() {
    0: call A.f()
    1: return
  }
}
"""
    cg = build_call_graph(parse_program(src))
    targets = cg.edges[loc("Main", "go/0", 0)]
    assert set(targets) == {MethodId("A", "f/0"), MethodId("B", "f/0")}


def test_cha_inherited_method_resolves_to_superclass_def():
    src = """\
class A extends java.lang.Object {
  method void f() { 0: return }
}
class B extends A {
}
class Main extends java.lang.Object {
  method void go() {
    0: call B.f()
    1: return
  }
}
"""
    cg = build_call_graph(parse_program(src))
    assert cg.edges[loc("Main", "go/0", 0)] == (MethodId("A", "f/0"),)


def test_cha_terminates_on_a_cyclic_hierarchy():
    # validate rejects these programs; the call graph still ends, walking
    # each chain up to its first repeated class
    with time_limit(5):
        mutual = build_call_graph(parse_program(MUTUAL_EXTENDS))
        alone = build_call_graph(parse_program(SELF_EXTENDS))
    assert mutual.edges == {loc("A", "f/0", 0): (MethodId("B", "g/0"),)}
    assert alone.edges == {}


def test_cha_arity_must_match():
    src = """\
class A extends java.lang.Object {
  method void f(p0) { 0: return }
}
class Main extends java.lang.Object {
  method void go() {
    0: call A.f()
    1: return
  }
}
"""
    cg = build_call_graph(parse_program(src))
    assert cg.edges == {}


def test_no_calls_no_edges():
    p = parse_program("class C extends D { method void f() { 0: return } }")
    cg = build_call_graph(p)
    assert cg.edges == {}


# ---------------------------------------------------------------------------
# Data dependences
# ---------------------------------------------------------------------------


def test_data_deps_fixture_a():
    assert method_pairs(parse_program(FIXTURE_A), EdgeKind.DATA) == {(0, 1)}


def test_data_deps_fixture_b():
    assert method_pairs(parse_program(FIXTURE_B), EdgeKind.DATA) == {
        (0, 2),
        (0, 4),
        (2, 5),
        (4, 5),
    }


def test_data_deps_strong_kill():
    src = 'class C extends D { method void f() { 0: $a = "x" 1: $a = "y" 2: call e.F.g($a) 3: return } }'
    assert method_pairs(parse_program(src), EdgeKind.DATA) == {(1, 2)}


def test_field_edges_order_insensitive():
    src = """\
class C extends D {
  method void f() {
    0: $a = load S.cell
    1: store S.cell = $b
    2: $c = load S.other
    3: return
  }
}
"""
    p = parse_program(src)
    edges = edge_pairs(build_pdg(p, build_call_graph(p)).edges, EdgeKind.DATA)
    assert (1, 0) in edges  # a later store can feed an earlier load (re-invocation)
    assert (1, 2) not in edges  # different cell


def test_unreachable_statements_have_no_edges():
    src = """\
class C extends D {
  method void f() {
    0: $a = "x"
    1: goto 4
    2: $b = $a
    3: call e.F.g($b)
    4: return
  }
}
"""
    p = parse_program(src)
    assert build_pdg(p, build_call_graph(p)).edges == frozenset()


def _random_local_method(rng):
    n = rng.randint(2, 12)
    body = []
    pool = ["$a", "$b", "$c"]
    branches = 0
    for i in range(n - 1):
        roll = rng.random()
        remaining = n - 1 - i
        if roll < 0.25 and branches < 3 and remaining >= 2:
            body.append(If(rng.choice(pool), rng.randrange(i + 1, n)))
            branches += 1
        elif roll < 0.5:
            body.append(AssignConst(rng.choice(pool), "k"))
        elif roll < 0.75:
            body.append(AssignCopy(rng.choice(pool), rng.choice(pool)))
        else:
            body.append(Call("x.Y.g", (rng.choice(pool),)))
    body.append(Return(None))
    return MethodDef("f", "void", (), body)


def test_data_deps_match_path_oracle_on_random_methods():
    rng = random.Random(911)
    for _ in range(300):
        m = _random_local_method(rng)
        p = Program([ClassDef("C", "D", [], [m])])
        edges = build_pdg(p, build_call_graph(p)).edges
        got = {(e.src, e.dst) for e in edges if e.kind is EdgeKind.DATA}
        assert got == data_dep_pairs_by_paths("C", m)


def _random_def_use_body(rng):
    """1-12 statements with branches and gotos in every direction (self
    loops included) over 2-3 locals and 0-2 parameters: constants, copies
    and calls with and without a lhs (any of which may redefine a
    parameter), and returns with and without a value."""
    params = ("p0", "p1")[: rng.randint(0, 2)]
    names = ["$a", "$b", "$c"][: rng.randint(2, 3)] + list(params)
    pick = lambda: rng.choice(names)
    n = rng.randint(1, 12)
    body = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.2:
            body.append(If(pick(), rng.randrange(n)))
        elif roll < 0.3:
            body.append(Goto(rng.randrange(n)))
        elif roll < 0.38:
            body.append(Return(rng.choice((None, pick()))))
        elif roll < 0.55:
            body.append(AssignConst(pick(), "k"))
        elif roll < 0.75:
            body.append(AssignCopy(pick(), pick()))
        elif roll < 0.9:
            lhs = pick()
            body.append(Call("x.Y.g", tuple(pick() for _ in range(rng.randint(0, 2))), lhs=lhs))
        else:
            body.append(Call("x.Y.h", tuple(pick() for _ in range(rng.randint(1, 3)))))
    return MethodDef("f", "void", params, body)


def test_reaching_definitions_match_search_oracle_on_loop_bodies():
    rng = random.Random(9190)
    carried = 0  # bodies where a definition reaches a statement at or before it
    for _ in range(4000):
        m = _random_def_use_body(rng)
        f = _MethodFacts(m)
        want = reaching_defs_by_search(m)
        assert set(f.reachable) == set(want), m.body
        def_uses: dict[int, list[int]] = {}
        entry_uses: dict[str, list[int]] = {}
        for i in sorted(want):
            assert {d for k, d in enumerate(f.defs) if f.before[i] >> k & 1} == want[i], (m.body, i)
            uses = stmt_uses(m.body[i])
            assert f.use_defs.get(i, ()) == tuple(
                tuple(sorted(d for w, d in want[i] if w == v)) for v in uses
            ), (m.body, i)
            for v, d in want[i]:
                if v in uses:
                    (entry_uses.setdefault(v, []) if d == ENTRY_DEF else def_uses.setdefault(d, [])).append(i)
        assert set(f.use_defs) == {i for i in want if stmt_uses(m.body[i])}
        assert (f.def_uses, f.entry_uses) == (def_uses, entry_uses), m.body
        carried += any(d >= i for i, reach in want.items() for _, d in reach)
    assert carried >= 1000  # definitions carried around loops are exercised


_FACT_FIELDS = ("defs", "before", "use_defs", "def_uses", "entry_uses", "loads", "stores",
                "returns", "calls", "control")


def test_one_pass_facts_equal_the_multi_pass_reference():
    """_MethodFacts, which classifies each statement once, holds field by
    field what oracles.multi_pass_facts computes with a pass per question,
    on looped and recursive draws, hub draws, desk-shaped draws and bodies
    that redefine a few locals. Uses that no definition reaches, one
    reaches and several reach all occur."""
    rng = random.Random(3434)
    programs = [gen_program(rng, max_branches=4, allow_loops=True, allow_recursion=True)
                for _ in range(1000)]
    programs += [gen_hub_program(rng, n_methods=rng.randint(2, 8)) for _ in range(30)]
    programs += [gen_perf_program(rng, n_methods=40, stmts_each=30) for _ in range(2)]
    methods = [m for p in programs for _, m in p.iter_methods()]
    methods += [_random_def_use_body(rng) for _ in range(1000)]  # few locals, redefined
    looped = 0
    reaching = {0: 0, 1: 0, 2: 0}  # uses by number of reaching definitions, 2 for more
    for m in methods:
        f = _MethodFacts(m)
        want = multi_pass_facts(m)
        for name in _FACT_FIELDS:
            assert getattr(f, name) == want[name], (name, m.body)
        looped += any(isinstance(s, (If, Goto)) and s.target <= i for i, s in enumerate(m.body))
        for per_use in want["use_defs"].values():
            for ds in per_use:
                reaching[min(len(ds), 2)] += 1
    assert looped >= 300, looped
    assert min(reaching.values()) >= 100, reaching


# ---------------------------------------------------------------------------
# Control dependences
# ---------------------------------------------------------------------------


def test_control_deps_straight_line_empty():
    assert method_pairs(parse_program(FIXTURE_A), EdgeKind.CONTROL) == set()


def test_control_deps_fixture_b():
    assert method_pairs(parse_program(FIXTURE_B), EdgeKind.CONTROL) == {
        (1, 2),
        (1, 3),
        (1, 4),
    }


def test_control_deps_branch_over_returns():
    src = """\
class C extends D {
  method void f(p0) {
    0: if p0 goto 2
    1: return
    2: return
  }
}
"""
    assert method_pairs(parse_program(src), EdgeKind.CONTROL) == {(0, 1), (0, 2)}


def test_control_deps_branch_into_self_loop():
    # 3 cannot reach the exit, so it is postdominated by itself alone and 1,
    # 2 postdominate the branch: only the branch's edge into 3 is a dependence
    src = """\
class C extends D {
  method void f(p0) {
    0: if p0 goto 3
    1: $a = "x"
    2: return
    3: goto 3
  }
}
"""
    assert method_pairs(parse_program(src), EdgeKind.CONTROL) == {(0, 3)}


def _random_jump_body(rng):
    """1-12 statements: branches and gotos in every direction (self loops
    included), returns and plain statements."""
    n = rng.randint(1, 12)
    body = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.3:
            body.append(If("$a", rng.randrange(n)))
        elif roll < 0.45:
            body.append(Goto(rng.randrange(n)))
        elif roll < 0.6:
            body.append(Return(None))
        else:
            body.append(AssignConst("$a", "k"))
    return MethodDef("f", "void", (), body)


_CFG_SHAPES = """\
class C extends D {
  method void trailing_if() {
    0: $c = "x"
    1: if $c goto 0
  }
  method void branch_to_next() {
    0: $c = "x"
    1: if $c goto 2
    2: return
  }
  method void self_loop() {
    0: goto 0
  }
  method void empty() {
  }
}
"""


def test_cfg_successors_match_the_grammar_oracle():
    """The successors _MethodFacts' classification pass records against
    the oracles' own successor function, which the path,
    reaching-definition, control and taint oracles read."""
    shapes = {m.name: m for _, m in parse_program(_CFG_SHAPES).iter_methods()}
    assert successors(shapes["trailing_if"]) == {0: (1,), 1: (EXIT, 0)}
    assert successors(shapes["branch_to_next"]) == {0: (1,), 1: (2,), 2: (EXIT,)}
    assert successors(shapes["self_loop"]) == {0: (0,)}
    assert successors(shapes["empty"]) == {}
    rng = random.Random(9186)
    bodies = list(shapes.values())
    for _ in range(300):
        bodies += [m for _, m in gen_program(rng, max_branches=4, allow_loops=True).iter_methods()]
    back_jumps = 0
    for m in bodies:
        assert dict(enumerate(_MethodFacts(m).succs)) == successors(m), m.body
        back_jumps += sum(isinstance(s, (If, Goto)) and s.target <= i for i, s in enumerate(m.body))
    assert back_jumps >= 100  # the draws hold loops


def test_control_pairs_match_deletion_oracle_on_random_bodies():
    rng = random.Random(9187)
    stuck = 0
    for _ in range(5000):
        m = _random_jump_body(rng)
        got = set(_MethodFacts(m).control)
        assert got == brute_control_pairs(m), m.body
        stuck += bool(exit_unreachable(m))
    assert stuck >= 1000  # the cannot-reach-exit convention is exercised


def test_control_edges_match_deletion_oracle_on_loop_programs():
    rng = random.Random(9188)
    pairs = 0
    for _ in range(200):
        p = gen_program(rng, max_branches=4, allow_loops=True, allow_recursion=True)
        g = build_pdg(p, build_call_graph(p))
        got = {(e.src, e.dst) for e in g.edges if e.kind is EdgeKind.CONTROL}
        want = set()
        for cls, m in p.iter_methods():
            want |= {(loc(cls.name, m.key, b), loc(cls.name, m.key, j))
                     for b, j in brute_control_pairs(m)}
        assert got == want
        pairs += len(want)
    assert pairs >= 200


# ---------------------------------------------------------------------------
# Whole-program graph
# ---------------------------------------------------------------------------


def test_pdg_fixture_a():
    p = parse_program(FIXTURE_A)
    g = build_pdg(p, build_call_graph(p))
    assert g.locs == tuple(loc("com.app.Main", "onCreate/0", i) for i in range(3))
    assert g.edges == frozenset(
        {
            DepEdge(
                loc("com.app.Main", "onCreate/0", 0),
                loc("com.app.Main", "onCreate/0", 1),
                EdgeKind.DATA,
            )
        }
    )


def test_pdg_interprocedural_chain():
    src = """\
class Main extends java.lang.Object {
  method void go() {
    0: $x = call ext.Sys.read()
    1: $y = call Help.id($x)
    2: call ext.Net.send($y)
    3: return
  }
}
class Help extends java.lang.Object {
  method java.lang.String id(p0) {
    0: return p0
  }
}
"""
    p = parse_program(src)
    g = build_pdg(p, build_call_graph(p))
    main = lambda i: loc("Main", "go/0", i)
    helper = loc("Help", "id/1", 0)
    assert DepEdge(main(0), helper, EdgeKind.PARAM_IN) in g.edges
    assert DepEdge(helper, main(1), EdgeKind.RETURN_OUT) in g.edges
    assert DepEdge(main(1), helper, EdgeKind.CALL) in g.edges
    assert DepEdge(main(1), main(2), EdgeKind.DATA) in g.edges


def test_pdg_param_passthrough_chain():
    # go -> relay(p0) -> use(p0): the source def must feed use's read of q0
    src = """\
class Main extends java.lang.Object {
  method void go() {
    0: $x = call ext.Sys.read()
    1: call Relay.r($x)
    2: return
  }
}
class Relay extends java.lang.Object {
  method void r(p0) {
    0: call Use.u(p0)
    1: return
  }
}
class Use extends java.lang.Object {
  method void u(p0) {
    0: call ext.Net.send(p0)
    1: return
  }
}
"""
    p = parse_program(src)
    g = build_pdg(p, build_call_graph(p))
    assert DepEdge(loc("Main", "go/0", 0), loc("Relay", "r/1", 0), EdgeKind.PARAM_IN) in g.edges
    assert DepEdge(loc("Main", "go/0", 0), loc("Use", "u/1", 0), EdgeKind.PARAM_IN) in g.edges


_REPEATED_READS = """\
class C extends D {
  method void go() {
    0: $a = call ext.Sys.read()
    1: call ext.f($a, $a)
    2: $x = call ext.Sys.read()
    3: call C.g($x, $x)
    4: return
  }
  method void g(p0, p1) {
    0: call ext.Net.send(p0, p1)
    1: return
  }
}
"""


def test_build_pdg_emits_each_edge_once(monkeypatch):
    """No (src, dst) pair reaches DepGraph twice: not a local def read at
    two argument positions, nor a def fed to two parameters that one
    callee statement reads. The pairs are the edges between statements,
    and per field cell one edge from each store and one to each load,
    which the edges view expands into stores x loads pairs."""
    init = DepGraph.__init__
    handed = []  # per graph built, the (src id, packed dst) pairs it got

    def capture(self, locs, stmts, src, dst, cells):
        handed.append(list(zip(src, dst)))
        init(self, locs, stmts, src, dst, cells)

    monkeypatch.setattr(DepGraph, "__init__", capture)
    p = parse_program(_REPEATED_READS)
    g = build_pdg(p, build_call_graph(p))
    assert len(handed[-1]) == len(set(handed[-1])) == len(g.edges)
    go, callee = (lambda i: loc("C", "go/0", i)), loc("C", "g/2", 0)
    assert DepEdge(go(0), go(1), EdgeKind.DATA) in g.edges
    assert DepEdge(go(2), callee, EdgeKind.PARAM_IN) in g.edges
    rng = random.Random(9189)
    edges = 0
    for _ in range(200):
        p = gen_program(rng, max_branches=4, allow_loops=True, allow_recursion=True)
        g = build_pdg(p, build_call_graph(p))
        pairs = handed[-1]
        assert len(pairs) == len(set(pairs))
        n = len(g.locs)
        between = [(i, d) for i, d in pairs if i < n and d >> _KIND_BITS < n]
        into = Counter(d >> _KIND_BITS for i, d in pairs if d >> _KIND_BITS >= n)
        out_of = Counter(i for i, _ in pairs if i >= n)
        assert set(into) == set(out_of) == set(range(n, n + len(g.cells)))
        assert len(between) + sum(k * out_of[c] for c, k in into.items()) == len(g.edges)
        assert len(between) + sum(into.values()) + sum(out_of.values()) == len(pairs)
        edges += len(pairs)
    assert edges >= 1000


def test_pdg_empty_program():
    p = Program([])
    g = build_pdg(p, build_call_graph(p))
    assert g.locs == () and g.edges == frozenset()


def test_pdg_nodes_cover_all_statements_even_unreachable():
    src = "class C extends D { method void f() { 0: goto 2 1: $a = \"x\" 2: return } }"
    p = parse_program(src)
    g = build_pdg(p, build_call_graph(p))
    assert loc("C", "f/0", 1) in g.locs


def test_pdg_independent_of_class_order():
    a = """\
class A extends E { method void f() { 0: $x = call ext.S.r() 1: call B.g($x) 2: return } }
class B extends E { method void g(p0) { 0: call ext.Net.send(p0) 1: return } }
"""
    b = """\
class B extends E { method void g(p0) { 0: call ext.Net.send(p0) 1: return } }
class A extends E { method void f() { 0: $x = call ext.S.r() 1: call B.g($x) 2: return } }
"""
    pa, pb = parse_program(a), parse_program(b)
    ga = build_pdg(pa, build_call_graph(pa))
    gb = build_pdg(pb, build_call_graph(pb))
    assert ga.locs == gb.locs and ga.edges == gb.edges


def test_resolved_targets_are_the_method_targets():
    rng = random.Random(8087)
    for _ in range(60):
        p = gen_program(rng, allow_recursion=True)
        cg = build_call_graph(p)
        calls = {site for site, s in p.iter_locs() if isinstance(s, Call)}
        assert set(cg.edges) <= calls and all(cg.edges.values())  # opaque sites: no entry
        for site in calls:
            targets = cg.resolved(site)
            assert targets == cg.edges.get(site, ())
            assert targets is cg.resolved(site)  # stored, not rebuilt
            assert all(isinstance(t, MethodId) for t in targets)
            assert list(targets) == sorted(set(targets))


def test_call_sites_of_one_callee_and_arity_share_their_targets():
    """build_call_graph resolves each (callee, arity) once, so the sites
    that call it hold one targets tuple."""
    rng = random.Random(8089)
    repeats = 0
    for k in range(60):
        if k % 2:
            p = gen_program(rng, allow_recursion=True)
        else:
            p = gen_hub_program(rng, n_methods=rng.randint(2, 8))
        cg = build_call_graph(p)
        first: dict[tuple[str, int], tuple[MethodId, ...]] = {}
        for site, s in p.iter_locs():
            if site in cg.edges:
                pair = (s.callee, len(s.args))
                repeats += pair in first
                assert cg.edges[site] is first.setdefault(pair, cg.edges[site])
    assert repeats >= 40, repeats


def _classified(f, cg, locs):
    """(loads, stores, returns, calls) of f's method, classified afresh
    from its reachable statements, with each call's targets from cg and
    the opaque calls left out."""
    loads, stores, returns, calls = {}, {}, [], {}
    for i in sorted(f.reachable):
        s = f.m.body[i]
        if isinstance(s, AssignFieldLoad):
            loads.setdefault((s.cls, s.fld), []).append(i)
        elif isinstance(s, FieldStore):
            stores.setdefault((s.cls, s.fld), []).append(i)
        elif isinstance(s, Return) and s.value is not None:
            returns.append(i)
        elif isinstance(s, Call) and cg.resolved(locs[f.base + i]):
            calls[i] = cg.resolved(locs[f.base + i])
    return loads, stores, returns, calls


@pytest.mark.parametrize("shape, programs", [("gen", 200), ("loops", 200), ("hub", 30), ("perf", 2)])
def test_method_record_is_a_fresh_classification_of_reachable_statements(shape, programs):
    """Each method's record (field loads and stores per cell, value
    returns, call targets) equals a classification of sorted(f.reachable)
    made with cg.resolved, and holds the call graph's own target tuples."""
    rng = random.Random(6464)
    seen = dict.fromkeys(["load", "store", "return", "call", "unreachable"], 0)
    for _ in range(programs):
        if shape == "gen":
            p = gen_program(rng)
        elif shape == "loops":
            p = gen_program(rng, allow_loops=True, allow_recursion=True)
        elif shape == "hub":
            p = gen_hub_program(rng, n_methods=rng.randint(2, 8))
        else:
            p = gen_perf_program(rng, n_methods=20, stmts_each=30)
        cg = build_call_graph(p)
        locs = p.locs()
        for f in dict(method_facts(p, cg)).values():
            want = _classified(f, cg, locs)
            assert (f.loads, f.stores, f.returns, f.calls) == want
            assert list(f.calls) == sorted(f.calls)
            for i, targets in f.calls.items():
                assert targets is cg.edges[locs[f.base + i]]  # stored, not copied
            seen["load"] += sum(map(len, f.loads.values()))
            seen["store"] += sum(map(len, f.stores.values()))
            seen["return"] += len(f.returns)
            seen["call"] += len(f.calls)
            seen["unreachable"] += len(f.m.body) - len(f.reachable)
    assert all(n > 0 for k, n in seen.items() if shape != "perf" or k != "unreachable"), seen


def test_one_method_facts_per_method_in_an_analysis(monkeypatch):
    from pdaudit.cli import Config

    built = []
    init = _MethodFacts.__init__

    def counting_init(self, m):
        built.append(m)
        init(self, m)

    monkeypatch.setattr(_MethodFacts, "__init__", counting_init)
    fixtures = Path(__file__).parent / "fixtures"
    reg = fixtures / "registries"
    cfg = Config(
        sources=reg / "sources.json",
        sinks=reg / "sinks.json",
        sanitizers=reg / "sanitizers.json",
        lexicon=reg / "lexicon.json",
        dpv=reg / "dpv.json",
    )
    program = _run_keeping_program(monkeypatch, (fixtures / "cha_override.pir").read_text(), cfg)
    methods = [m for _, m in program.iter_methods()]
    assert len(methods) == 3
    assert sorted(map(id, built)) == sorted(map(id, methods))


def test_analysis_artifacts_reach_no_method_facts(tmp_path):
    """build_pdg drops the method facts, and run_analysis the call graph
    and the search rules once the flows are built: nothing it returns
    refers to them, nor to the program. The DOT mapping keeps the graph,
    and so its statements, until the files are written."""
    import gc
    import types

    from pdaudit.cli import run_analysis
    from pdaudit.ir import Program
    from pdaudit.taint import SearchRules

    for text, cfg in _loc_inputs(tmp_path):
        artifacts = run_analysis(text, cfg)
        seen, work = set(), [artifacts]
        while work:
            obj = work.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (_MethodFacts, CallGraph, SearchRules, Program)), obj
            work += gc.get_referents(obj)
        assert len(seen) > len(artifacts.report.findings) > 0


@pytest.mark.parametrize("shape", ["perf", "hub"])
def test_build_pdg_holds_at_most_two_method_facts(monkeypatch, shape):
    """build_pdg reads the method facts one method at a time: when one is
    built, at most the one read just before it is alive besides it, and
    none is left once the graph is returned."""
    live = weakref.WeakSet()
    alive_at_init = []
    init = _MethodFacts.__init__

    def tracking_init(self, m):
        live.add(self)
        alive_at_init.append(len(live))
        init(self, m)

    monkeypatch.setattr(_MethodFacts, "__init__", tracking_init)
    rng = random.Random(2929)
    for _ in range(3 if shape == "perf" else 30):
        if shape == "perf":
            p = gen_perf_program(rng, n_methods=20, stmts_each=30)
        else:
            p = gen_hub_program(rng, n_methods=rng.randint(3, 8))
        cg = build_call_graph(p)
        alive_at_init.clear()
        build_pdg(p, cg)
        assert len(alive_at_init) == len(list(p.iter_methods())) >= 3
        assert max(alive_at_init) <= 2 and len(live) == 0, alive_at_init


def test_method_facts_memo_not_part_of_equality_or_repr():
    p = parse_program(FIXTURE_B)
    fresh = parse_program(FIXTURE_B)
    before = repr(p)
    cg = build_call_graph(p)
    assert method_facts(p, cg) is not method_facts(p, cg)  # kept nowhere
    assert set(vars(cg)) == {"edges"}
    assert set(vars(p)) <= {"classes", "_locs"}  # the Program keeps only its Loc memo
    assert p == fresh and repr(p) == before


def _run_keeping_program(monkeypatch, text, cfg):
    """The program cli.run_analysis parsed from text, which the artifacts it
    returns do not keep."""
    from pdaudit import cli

    parsed = []

    def parse(text):
        parsed.append(parse_program(text))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_program", parse)
    cli.run_analysis(text, cfg)
    return parsed[0]


def _loc_inputs(tmp_path):
    """(PIR text, Config) of a fixture and of a gen_perf_program draw."""
    from pdaudit.cli import Config
    from regen_goldens import perf_inputs

    fixtures = Path(__file__).parent / "fixtures"
    names = ("sources", "sinks", "sanitizers", "lexicon", "dpv")
    fixture_cfg = Config(**{n: fixtures / "registries" / f"{n}.json" for n in names})
    perf_inputs(tmp_path, n_methods=20)
    perf_cfg = Config(**{n: tmp_path / f"{n}.json" for n in names})
    return [((fixtures / "cha_override.pir").read_text(encoding="utf-8"), fixture_cfg),
            ((tmp_path / "perf.pir").read_text(encoding="utf-8"), perf_cfg)]


def test_one_loc_per_statement_in_an_analysis(monkeypatch, tmp_path):
    built = []
    new = Loc.__new__

    def counting_new(cls, *args):
        built.append(args)
        return new(cls, *args)

    inputs = _loc_inputs(tmp_path)
    monkeypatch.setattr(Loc, "__new__", counting_new)
    for text, cfg in inputs:
        built.clear()
        program = _run_keeping_program(monkeypatch, text, cfg)
        n_stmts = sum(len(m.body) for _, m in program.iter_methods())
        assert n_stmts > 0 and len(built) == n_stmts


def test_call_graph_labels_and_method_facts_share_the_graphs_locs(tmp_path):
    from pdaudit.registry import label_sources, load_registries

    for text, cfg in _loc_inputs(tmp_path):
        p = parse_program(text)
        cg = build_call_graph(p)
        g = build_pdg(p, cg)
        src, _, _, lex = load_registries(cfg.sources, cfg.sinks, cfg.sanitizers, cfg.lexicon)
        labels = label_sources(p, src, lex)
        assert g.locs is p.locs() and cg.edges and labels
        assert all(g.locs[g.id_of(site)] is site for site in cg.edges)
        assert all(g.locs[g.id_of(l.location)] is l.location for l in labels)
        for mid, f in dict(method_facts(p, cg)).items():  # base is the method's first id
            for i in range(len(f.m.body)):
                loc = g.locs[f.base + i]
                assert (loc.cls, loc.method, loc.index) == (mid.cls, mid.method, i)
        assert [loc for loc, _ in p.iter_locs()] == list(g.locs)
        assert all(s is t for (_, s), t in zip(p.iter_locs(), g.stmts))


def test_program_locs_memo_not_part_of_equality_or_repr():
    p = parse_program(FIXTURE_B)
    before = repr(p)
    assert p.locs() is p.locs()
    assert p == parse_program(FIXTURE_B) and repr(p) == before
