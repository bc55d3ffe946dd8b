import random

import pytest

from conftest import FIXTURE_A, FIXTURE_B
from oracles import explicit_graph, naive_closure
from pdaudit.graph import DepEdge, EdgeKind, build_call_graph, build_pdg
from pdaudit.ir import Loc, parse_program
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
from pdaudit.slicer import forward_slice, slice_stats

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


def test_slice_fixture_a():
    p = parse_program(FIXTURE_A)
    g = build(p)
    labels = label_sources(p, SOURCES, LEXICON)
    s = forward_slice(g, labels[0])
    assert {n.index for n in s.nodes} == {0, 1}
    assert slice_stats(s, SINKS) == slice_stats(s, SINKS)
    st = slice_stats(s, SINKS)
    assert (st.node_count, st.methods_touched) == (2, 1)
    assert {n.index for n in st.sink_nodes} == {1}


def test_slice_fixture_b():
    p = parse_program(FIXTURE_B)
    g = build(p)
    labels = label_sources(p, SOURCES, LEXICON)
    s = forward_slice(g, labels[0])
    assert {n.index for n in s.nodes} == {0, 2, 4, 5}
    st = slice_stats(s, SINKS)
    assert (st.node_count, st.methods_touched) == (4, 1)
    assert {n.index for n in st.sink_nodes} == {5}


def test_singleton_slice():
    p = parse_program("class C extends D { method void f() { 0: $a = call e.S.r() 1: return } }")
    g = build(p)
    s = forward_slice(g, label_at(Loc("C", "f/0", 0)))
    assert s.nodes == frozenset({Loc("C", "f/0", 0)})
    assert s.edges == frozenset()
    st = slice_stats(s, SINKS)
    assert (st.node_count, st.methods_touched, st.sink_nodes) == (1, 1, frozenset())


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
