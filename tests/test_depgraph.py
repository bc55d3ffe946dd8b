"""The integer-id dependence graph against its explicit-edge reading.

build_pdg keeps each field cell as one (stores, loads) pair and never
stores the store -> load edges it implies. oracles.explicit_graph rebuilt
from the materialized edge set has no cells, every edge explicit, so the
two must agree on the edge set and on every output built from the graph,
and the DOT edge lines must come in (src Loc, dst Loc, kind) order.
"""

import json
import random

from gen import gen_perf_program, gen_program, registry_json
from oracles import explicit_graph
from pdaudit.graph import DepEdge, build_call_graph, build_pdg
from pdaudit.ir import AssignFieldLoad, FieldStore, parse_program
from pdaudit.report import render_dot
from pdaudit.slicer import forward_slice
from pdaudit.taint import collect_flows
from test_taint import GEN_SANITIZERS, GEN_SINKS, analyze_generated


def _dot_id(loc):
    return f"{loc.cls}.{loc.method}:{loc.index}".replace("\\", "\\\\").replace('"', '\\"')


def _is_field_pair(stmt_at, src, dst):
    return isinstance(stmt_at[src], FieldStore) and isinstance(stmt_at[dst], AssignFieldLoad)


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
        assert dot == render_dot(t, p, labels, GEN_SINKS, GEN_SANITIZERS)
        assert [ln for ln in dot.splitlines() if " -> " in ln and 'kind="' not in ln] == [
            f'  "{_dot_id(e.src)}" -> "{_dot_id(e.dst)}" [label="{e.kind.value}"];'
            for e in sorted(s.edges, key=lambda e: (e.src, e.dst, e.kind.value))
        ]
    return True, sum(
        any(_is_field_pair(stmt_at, a, b) for a, b in zip(f.witness, f.witness[1:]))
        for f in flows
    )


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
    # 29 constants: its DOT file writes 271 x 300 store -> load lines
    assert sum(d.count('[label="Data"]') for d in artifacts.dots.values()) > 271 * 300
    assert len(built) < non_field, (len(built), non_field)


def _dpv_json() -> dict:
    categories = {"Location": "iri:loc", "DeviceId": "iri:dev", "Name": "iri:name",
                  "EmailAddress": "iri:email", "PhoneNumber": "iri:phone"}
    kinds = {k: f"iri:{k}" for k in ("Network", "Analytics", "ThirdParty", "Storage", "Log")}
    return {"categories": categories, "sink_kinds": kinds, "collection": "iri:collect",
            "pseudonymisation": "iri:pseudo"}
