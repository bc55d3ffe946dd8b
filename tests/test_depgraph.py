"""The integer-id dependence graph against its explicit-edge reading.

build_pdg makes each field cell a node, with a Data edge from each store
and to each load, and never stores the store -> load edges it stands for.
oracles.explicit_graph rebuilt from the materialized edge set has no
cells, every edge explicit, so the two must agree on the edge set, its
repr, and on flows and slices. Their DOT files
differ only in the cell nodes: oracles.expand_cell_nodes turns the cell
graph's DOT into the explicit graph's, whose edge lines come in (src Loc,
dst Loc, kind) order.
"""

import json
import random
import tracemalloc
from array import array

from gen import (
    gen_hub_program,
    gen_perf_program,
    gen_program,
    registry_json,
    shared_cell_program,
)
from oracles import DATA_KINDS, expand_cell_nodes, explicit_graph
from pdaudit.graph import DepEdge, build_call_graph, build_pdg
from pdaudit.ir import AssignFieldLoad, Call, FieldStore, Loc, parse_program
from pdaudit.registry import SinkKind, SinkMatch, SinkRegistry
from pdaudit.report import render_dot
from pdaudit.slicer import forward_slice
from pdaudit.taint import collect_flows
from test_taint import GEN_SANITIZERS, GEN_SINKS, analyze_generated


def _dot_id(loc):
    return f"{loc.cls}.{loc.method}:{loc.index}".replace("\\", "\\\\").replace('"', '\\"')


def _is_field_pair(stmt_at, src, dst):
    return isinstance(stmt_at[src], FieldStore) and isinstance(stmt_at[dst], AssignFieldLoad)


def _statement_node_lines(dot):
    return [ln for ln in dot.splitlines() if 'kind="' in ln and 'kind="field"' not in ln]


def _edge_lines(dot):
    return [ln for ln in dot.splitlines() if " -> " in ln and 'kind="' not in ln]


def test_cell_graph_matches_explicit_edge_graph():
    rng = random.Random(3131)
    with_cells = through_cells = 0
    while with_cells < 200:  # programs whose field stores and loads share a cell
        has_cells, _ = _assert_cells_match_explicit_edges(
            gen_program(rng, allow_loops=True, allow_recursion=True)
        )
        with_cells += has_cells
    for _ in range(4):
        _, through = _assert_cells_match_explicit_edges(
            gen_perf_program(rng, n_methods=80, stmts_each=50)
        )
        through_cells += through
    assert through_cells >= 20, through_cells
    # hub draws: few cells, each stored to and loaded from in many methods,
    # so many slices share a cell and each holds all of its loads
    hub_cells = through_cells = 0
    for _ in range(40):
        has_cells, through = _assert_cells_match_explicit_edges(
            gen_hub_program(rng, n_methods=rng.randint(2, 8))
        )
        hub_cells += has_cells
        through_cells += through
    assert hub_cells >= 30 and through_cells >= 200, (hub_cells, through_cells)
    for n in range(2, 7):  # one cell that every method stores to and loads from
        assert _assert_cells_match_explicit_edges(shared_cell_program(n))[1] >= n


def test_data_layer_gives_each_nodes_states_in_ascending_order():
    """taint._search keeps each layer in the order of its states' least
    paths, so DepGraph.data_layer must give the new states of one state in
    ascending order, each once, for both dirty bits: a node's CSR run in
    (dst id, kind) order, or a field store's cell loads in id order. A
    store's one edge is into its cell, so the two never mix; expanded
    holds the cell node ids, and a store whose cell is in it gives no
    state."""
    rng = random.Random(6060)
    multi_load = 0
    none: frozenset[int] = frozenset()
    for k in range(120):
        if k % 2:
            p = gen_hub_program(rng, n_methods=rng.randint(2, 8))
        else:
            p = gen_program(rng, max_branches=4, allow_loops=True, allow_recursion=True)
        g = build_pdg(p, build_call_graph(p))
        n = len(g.locs)
        every_cell = set(range(n, n + len(g.cells)))
        for s, stmt in enumerate(g.stmts):
            if isinstance(stmt, FieldStore):
                assert g.data_layer([4 * s], {}, (every_cell, every_cell), 4 * s, none, none) == []
        for dirty in (0, 1):
            expanded: tuple[set[int], set[int]] = (set(), set())
            for v in range(len(g.locs)):
                cells_before = len(expanded[dirty])
                state = 4 * v + dirty
                states = g.data_layer([state], {}, expanded, state, none, none)
                assert states == sorted(set(states)), (v, states)
                assert all(s & 1 == dirty for s in states)
                assert not expanded[1 - dirty] and expanded[dirty] <= every_cell
                multi_load += len(expanded[dirty]) > cells_before and len(states) > 1
    assert multi_load >= 50, multi_load


def _assert_cells_match_explicit_edges(p) -> tuple[bool, int]:
    """Check one program with a field cell. Returns whether it has one and
    the number of its flows whose witness steps from a store to a load."""
    cg, g, labels, pr = analyze_generated(p)
    if not g.cells:
        return False, 0
    stmt_at = dict(p.iter_locs())
    h = explicit_graph(stmt_at, g.edges)
    assert not h.cells
    assert h.locs == g.locs and h.edges == g.edges and repr(g) == repr(h)
    flows = collect_flows(pr, GEN_SINKS, g)
    assert flows == collect_flows(pr, GEN_SINKS, h)  # witnesses included
    for label in labels:
        s, t = forward_slice(g, label), forward_slice(h, label)
        assert s.nodes == t.nodes and s.edges == t.edges
        dot = render_dot(s, p, labels, GEN_SINKS, GEN_SANITIZERS)
        explicit = render_dot(t, p, labels, GEN_SINKS, GEN_SANITIZERS)
        assert _statement_node_lines(dot) == _statement_node_lines(explicit)
        edge_lines = _edge_lines(dot)
        assert len(set(edge_lines)) == len(edge_lines), "an edge line repeats"
        expanded = _edge_lines(expand_cell_nodes(dot))
        assert _edge_lines(explicit) == [
            f'  "{_dot_id(e.src)}" -> "{_dot_id(e.dst)}" [label="{e.kind.value}"];'
            for e in sorted(s.edges, key=lambda e: (e.src, e.dst, e.kind.value))
        ]
        assert set(expanded) == set(_edge_lines(explicit)) and len(expanded) == len(s.edges)
        assert expand_cell_nodes(dot) == explicit
    return True, sum(
        any(_is_field_pair(stmt_at, a, b) for a, b in zip(f.witness, f.witness[1:]))
        for f in flows
    )


def test_induced_on_closed_id_sets_gives_each_edge_between_them_once():
    """induced on all ids, and on the ids one node reaches, gives the
    graph's edges between those ids, cell pairs expanded, each once."""
    rng = random.Random(3232)
    with_cells = 0
    for _ in range(40):
        p = gen_perf_program(rng, n_methods=8, stmts_each=30)
        g = build_pdg(p, build_call_graph(p))
        n = len(g.locs)
        with_cells += bool(g.cells)
        every = list(g.induced(range(n)))
        assert len(set(every)) == len(every) == len(g.edges)
        succs: dict[int, list[int]] = {}
        for i, j, _ in every:
            succs.setdefault(i, []).append(j)
        for root in rng.sample(range(n), min(n, 5)):
            reach, work = {root}, [root]
            while work:
                for j in succs.get(work.pop(), ()):
                    if j not in reach:
                        reach.add(j)
                        work.append(j)
            inside = list(g.induced(sorted(reach)))
            assert len(set(inside)) == len(inside)
            assert set(inside) == {e for e in every if e[0] in reach and e[1] in reach}
    assert with_cells >= 20, with_cells


def test_depgraph_holds_csr_arrays_not_per_node_lists():
    """The outgoing edges are one offsets array and one packed-edge array
    that holds exactly the edges between statements and each cell's edge
    from each of its stores and to each of its loads, with no reversed
    copy; no attribute is a sequence holding lists."""
    rng = random.Random(4141)
    for p in (gen_perf_program(rng, n_methods=20, stmts_each=30),
              gen_program(rng, allow_loops=True, allow_recursion=True)):
        g = build_pdg(p, build_call_graph(p))
        n = len(g.locs)
        for name, value in vars(g).items():
            if isinstance(value, (list, tuple)):
                assert not any(isinstance(x, list) for x in value), name
        stmt_at = dict(zip(g.locs, g.stmts))
        pairs = [e for e in g.edges if _is_field_pair(stmt_at, e.src, e.dst)]
        stores, loads = {e.src for e in pairs}, {e.dst for e in pairs}
        assert len(g._out[1]) == len(g.edges) - len(pairs) + len(stores) + len(loads)
        assert not any(hasattr(g, name) for name in ("_inn", "_load_cell", "_store_cell"))
        offsets, packed = g._out
        assert isinstance(offsets, array) and isinstance(packed, array)
        assert len(offsets) == n + len(g.cells) + 1
        assert offsets[0] == 0 and offsets[-1] == len(packed)
        assert list(offsets) == sorted(offsets)


def test_cell_nodes_follow_the_statements_and_no_path_steps_on_one():
    """Cell c is node len(locs) + c: closed_cell_edges on all ids gives
    every cell by that node id, with an edge from each of its stores and
    to each of its loads, and cell_field names the field they write and
    read. No reach result, slice id or witness step is a cell node: reach
    gives the statements the edges view reaches, in id order, and each
    witness step is a data-carrying edge of that view."""
    rng = random.Random(5151)
    with_cells = 0
    for k in range(60):
        p = (gen_hub_program(rng, n_methods=rng.randint(2, 8)) if k % 2
             else gen_perf_program(rng, n_methods=6, stmts_each=30))
        _, g, labels, pr = analyze_generated(p)
        n = len(g.locs)
        with_cells += bool(g.cells)
        cells, edges = g.closed_cell_edges(range(n))
        assert sorted(cells) == list(range(n, n + len(g.cells)))
        for c in cells:
            into = [g.stmts[i] for i, j, _ in edges if j == c]
            out = [g.stmts[j] for i, j, _ in edges if i == c]
            assert into and out
            assert all(isinstance(s, FieldStore) for s in into)
            assert all(isinstance(s, AssignFieldLoad) for s in out)
            assert {(s.cls, s.fld) for s in into + out} == {g.cell_field(c)}
        assert {j for _, j, _ in edges if j >= n} == set(cells)
        succs: dict[int, set[int]] = {}
        for e in g.edges:
            succs.setdefault(g.id_of(e.src), set()).add(g.id_of(e.dst))
        for root in rng.sample(range(n), min(n, 5)):
            reach = g.reach(root)
            want, work = {root}, [root]
            while work:
                for j in succs.get(work.pop(), ()):
                    if j not in want:
                        want.add(j)
                        work.append(j)
            assert reach == sorted(want)
        for label in labels:
            ids = forward_slice(g, label).ids
            assert isinstance(ids, array) and list(ids) == sorted(set(ids))
            assert all(i < n for i in ids)
        data_edges = {(e.src, e.dst) for e in g.edges if e.kind in DATA_KINDS}
        for f in collect_flows(pr, GEN_SINKS, g):
            assert all(g.id_of(w) is not None for w in f.witness)
            assert all(step in data_edges for step in zip(f.witness, f.witness[1:]))
    assert with_cells >= 30, with_cells


def test_slice_ids_hold_at_most_16_bytes_each():
    """A slice's ids are one array of C longs: holding the ids of every
    slice of a 2,000-statement program costs at most 16 bytes per id, not
    a tuple slot and an int object for each."""
    p = gen_perf_program(random.Random(7070), n_methods=40, stmts_each=50)
    _, g, labels, _ = analyze_generated(p)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [forward_slice(g, label).ids for label in labels]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_ids = sum(map(len, held))
    assert n_ids >= 500, n_ids
    assert grown / n_ids <= 16, (grown, n_ids)


def test_id_of_is_none_off_the_graphs_nodes():
    """id_of finds every node and nothing else: not a Loc of an unknown
    class or method, past the end of a method, at a negative index, or a
    statement left out of a sparse explicit_graph."""
    rng = random.Random(4242)
    for k in range(30):
        p = (gen_perf_program(rng, n_methods=4, stmts_each=12) if k % 3 == 0
             else gen_program(rng, allow_loops=True, allow_recursion=True))
        g = build_pdg(p, build_call_graph(p))
        assert [g.id_of(loc) for loc in g.locs] == list(range(len(g.locs)))
        ends = {(loc.cls, loc.method): loc.index + 1 for loc in g.locs}
        for (cls, method), end in ends.items():
            assert g.id_of(Loc(cls, method, end)) is None
            assert g.id_of(Loc(cls, method, -1)) is None
            assert g.id_of(Loc(cls + "x", method, 0)) is None
            assert g.id_of(Loc(cls, "nope/0", 0)) is None
        kept = [loc for loc in g.locs if rng.random() < 0.5]
        inside = set(kept)
        h = explicit_graph(dict.fromkeys(kept),
                           frozenset(e for e in g.edges if e.src in inside and e.dst in inside))
        for loc in g.locs:
            assert h.id_of(loc) == (kept.index(loc) if loc in inside else None)


def test_sink_table_equals_a_per_statement_match():
    """g.sink_table(sinks) is the per-statement call + match scan, in
    id order; it is kept for the same registry and rebuilt for another,
    also when a registry's entries change in place."""
    other = SinkRegistry(exact={"ext.Log.info": SinkMatch(SinkKind.STORAGE, None)},
                         prefixes={"ext.": SinkMatch(SinkKind.NETWORK, None),
                                   "ext.Crypto.": SinkMatch(SinkKind.LOG, None)})
    edited = SinkRegistry(exact=dict(GEN_SINKS.exact), prefixes={})
    rng = random.Random(3333)
    for k in range(40):
        p = (gen_perf_program(rng, n_methods=6, stmts_each=30) if k % 4 == 0
             else gen_program(rng, allow_loops=True, allow_recursion=True))
        g = build_pdg(p, build_call_graph(p))
        for sinks in (GEN_SINKS, other, edited, GEN_SINKS):
            table = g.sink_table(sinks)
            want = {}
            for i, stmt in enumerate(g.stmts):
                if isinstance(stmt, Call) and sinks.match(stmt.callee) is not None:
                    want[i] = sinks.match(stmt.callee)
            assert table == want and list(table) == sorted(table)
            assert g.sink_table(sinks) is table
        del edited.exact["ext.Net.send"]
        assert g.sink_table(edited) == {
            i: m for i, m in g.sink_table(GEN_SINKS).items() if g.stmts[i].callee != "ext.Net.send"
        }
        edited.exact["ext.Net.send"] = GEN_SINKS.exact["ext.Net.send"]


def _one_cell_program(n_methods: int = 30, pairs_each: int = 10) -> str:
    """One field cell with n_methods x pairs_each stores and as many loads.
    Each method stores $v and loads it back into $v pairs_each times, then
    sends $v to a sink; $v starts as a source value in the first method and
    as a constant in the others."""
    lines = []
    for k in range(n_methods):
        body = ["$v = call ext.Sys.location()" if k == 0 else '$v = "k"']
        for j in range(pairs_each):
            body += ["store app.State.f0 = $v", f"$l{j} = load app.State.f0", f"$v = $l{j}"]
        body += ["call ext.Net.send($v)", "return"]
        stmts = "\n".join(f"    {i}: {s}" for i, s in enumerate(body))
        lines.append(f"  method void m{k}() {{\n{stmts}\n  }}")
    return "class app.Main extends java.lang.Object {\n" + "\n".join(lines) + "\n}\n"


def test_no_store_load_pair_materialized_in_an_analysis(tmp_path, monkeypatch):
    from pdaudit.cli import Config, run_analysis

    paths = {}
    for name, data in {**registry_json(), "dpv": _dpv_json()}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    cfg = Config(**paths)
    text = _one_cell_program()

    built = []
    init = DepEdge.__init__

    def counting_init(self, src, dst, kind):
        built.append(kind)
        init(self, src, dst, kind)

    monkeypatch.setattr(DepEdge, "__init__", counting_init)
    artifacts = run_analysis(text, cfg)
    monkeypatch.undo()

    p = parse_program(text)
    g = build_pdg(p, build_call_graph(p))
    stmt_at = dict(p.iter_locs())
    field_pairs = sum(_is_field_pair(stmt_at, e.src, e.dst) for e in g.edges)
    non_field = len(g.edges) - field_pairs
    assert field_pairs == 300 * 300
    assert len(artifacts.report.findings) > 0
    # the source's slice holds every load and all stores but those of the
    # 29 constants; its DOT file draws the cell as one node, with one Data
    # line per store and per load, and writes no store -> load line
    stores = {_dot_id(loc) for loc, st in stmt_at.items() if isinstance(st, FieldStore)}
    loads = {_dot_id(loc) for loc, st in stmt_at.items() if isinstance(st, AssignFieldLoad)}
    data_lines = [ln for d in artifacts.dots.values() for ln in _edge_lines(d)
                  if ln.endswith('[label="Data"];')]
    assert len(data_lines) <= 3 * (len(stores) + len(loads)), len(data_lines)
    for ln in data_lines:
        src, dst = ln.split('" -> "')
        assert not (src[3:] in stores and dst.split('" [')[0] in loads), ln
    assert len(built) < non_field, (len(built), non_field)


def _dpv_json() -> dict:
    categories = {"Location": "iri:loc", "DeviceId": "iri:dev", "Name": "iri:name",
                  "EmailAddress": "iri:email", "PhoneNumber": "iri:phone"}
    kinds = {k: f"iri:{k}" for k in ("Network", "Analytics", "ThirdParty", "Storage", "Log")}
    return {"categories": categories, "sink_kinds": kinds, "collection": "iri:collect",
            "pseudonymisation": "iri:pseudo"}
