import random

import pytest

from conftest import FIXTURE_A, FIXTURE_B
from gen import gen_perf_program, gen_program
from oracles import explicit_graph, naive_closure
from pdaudit.dpv import DpvMap
from pdaudit.graph import DepEdge, EdgeKind, build_call_graph, build_pdg
from pdaudit.ir import Call, Loc, parse_program
from pdaudit.registry import (
    Lexicon,
    Origin,
    PersonalDataCategory,
    SinkKind,
    SinkMatch,
    SinkRegistry,
    SourceLabel,
    SourceRegistry,
    label_sources,
)
from pdaudit.report import build_report
from pdaudit.slicer import forward_slice
from pdaudit.taint import TaintResult
from test_taint import GEN_LEXICON, GEN_SINKS, GEN_SOURCES

SOURCES = SourceRegistry(
    {
        "android.location.LocationManager.getLastKnownLocation": PersonalDataCategory("Location"),
    }
)
LEXICON = Lexicon({"email": PersonalDataCategory("EmailAddress")})
SINKS = SinkRegistry(
    exact={},
    prefixes={
        "com.analytics.": SinkMatch(SinkKind.ANALYTICS, "Tracker"),
        "com.net.": SinkMatch(SinkKind.NETWORK, None),
    },
)


def build(p):
    return build_pdg(p, build_call_graph(p))


def label_at(loc):
    return SourceLabel(0, loc, PersonalDataCategory("Location"), Origin("SystemApi"))


def slice_entries(p, slices, sinks=SINKS):
    """The slices list of the report build_report makes from slices, with
    no flows: so no finding, and no DPV term is looked up."""
    report = build_report(p, [s.root for s in slices], slices, TaintResult([], []),
                          DpvMap({}, {}, "", ""), sinks, "")
    return report.slices


def test_slice_fixture_a():
    p = parse_program(FIXTURE_A)
    g = build(p)
    labels = label_sources(p, SOURCES, LEXICON)
    s = forward_slice(g, labels[0])
    assert {n.index for n in s.nodes} == {0, 1}
    assert slice_entries(p, [s]) == slice_entries(p, [s])
    (e,) = slice_entries(p, [s])
    assert (e.node_count, e.methods_touched) == (2, 1)
    assert [n.index for n in e.sink_nodes] == [1]


def test_slice_fixture_b():
    p = parse_program(FIXTURE_B)
    g = build(p)
    labels = label_sources(p, SOURCES, LEXICON)
    s = forward_slice(g, labels[0])
    assert {n.index for n in s.nodes} == {0, 2, 4, 5}
    (e,) = slice_entries(p, [s])
    assert (e.node_count, e.methods_touched) == (4, 1)
    assert [n.index for n in e.sink_nodes] == [5]


def test_singleton_slice():
    p = parse_program("class C extends D { method void f() { 0: $a = call e.S.r() 1: return } }")
    g = build(p)
    s = forward_slice(g, label_at(Loc("C", "f/0", 0)))
    assert s.nodes == frozenset({Loc("C", "f/0", 0)})
    assert s.edges == frozenset()
    (e,) = slice_entries(p, [s])
    assert (e.node_count, e.methods_touched, e.sink_nodes) == (1, 1, ())


def test_slice_entries_recount_slice_ids():
    """Each report slices entry, recounted from its slice's node ids with
    one registry match per statement: the node count, the distinct
    (class, method) pairs, and the sink statements in Loc order."""
    rng = random.Random(79)
    programs = [gen_program(rng, max_methods=8, max_stmts=60, allow_loops=True,
                            allow_recursion=True) for _ in range(60)]
    programs.append(gen_perf_program(rng, n_methods=40, stmts_each=25))
    with_sinks = multi_method = 0
    for p in programs:
        g = build(p)
        slices = [forward_slice(g, l) for l in label_sources(p, GEN_SOURCES, GEN_LEXICON)]
        entries = slice_entries(p, slices, GEN_SINKS)
        assert [e.label for e in entries] == sorted(s.root.id for s in slices)
        for e, s in zip(entries, sorted(slices, key=lambda s: s.root.id)):
            locs = [g.locs[i] for i in s.ids]
            sink_locs = sorted(
                g.locs[i] for i in s.ids
                if isinstance(g.stmts[i], Call)
                and GEN_SINKS.match(g.stmts[i].callee) is not None
            )
            assert e.node_count == len(locs)
            assert e.methods_touched == len({(n.cls, n.method) for n in locs})
            assert list(e.sink_nodes) == sink_locs
            with_sinks += bool(sink_locs)
            multi_method += e.methods_touched > 1
    assert with_sinks >= 30 and multi_method >= 10


def test_slice_root_must_be_a_node():
    p = parse_program(FIXTURE_A)
    g = build(p)
    with pytest.raises(ValueError):
        forward_slice(g, label_at(Loc("Nope", "f/0", 0)))


def _random_graph(rng, max_nodes=200):
    n = rng.randint(1, max_nodes)
    nodes = [Loc("C", f"m{i % 7}/0", i) for i in range(n)]
    kinds = list(EdgeKind)
    edges = set()
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.choice(nodes), rng.choice(nodes)
        edges.add(DepEdge(a, b, rng.choice(kinds)))
    return explicit_graph(dict.fromkeys(nodes), frozenset(edges)), nodes


def test_slice_matches_naive_closure_on_random_graphs():
    rng = random.Random(77)
    for _ in range(100):
        g, nodes = _random_graph(rng, max_nodes=60)
        root = rng.choice(nodes)
        s = forward_slice(g, label_at(root))
        assert s.nodes == naive_closure(g, root)
        assert s.edges == {e for e in g.edges if e.src in s.nodes and e.dst in s.nodes}


def test_slice_monotone_under_edge_addition():
    rng = random.Random(78)
    for _ in range(50):
        g, nodes = _random_graph(rng, max_nodes=40)
        root = rng.choice(nodes)
        base = forward_slice(g, label_at(root)).nodes
        extra = DepEdge(rng.choice(nodes), rng.choice(nodes), EdgeKind.DATA)
        g2 = explicit_graph(dict.fromkeys(g.locs), g.edges | {extra})
        assert base <= forward_slice(g2, label_at(root)).nodes


def test_slices_do_not_mutate_graph():
    p = parse_program(FIXTURE_B)
    g = build(p)
    before = set(g.edges)
    forward_slice(g, label_at(Loc("com.app.Loc", "send/1", 0)))
    assert set(g.edges) == before
