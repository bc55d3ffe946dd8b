"""Taint flows and their pseudonymization status, read off the dependence
graph as valid data paths.

The dependence graph (graph.build_pdg) is the one statement of the
transfer rules. A value moves along its data-carrying edges: Data (local
def-use chains and field store -> load pairs), ParamIn (argument
definitions -> callee statements reading the parameter) and ReturnOut
(callee value returns -> call-site lhs). Read as paths, those edges give:

* a labelled call with a lhs starts a path at its own statement;
* copies move a value, constants define a local that no path reaches
  (strong update on locals, through reaching definitions);
* a resolved call feeds its argument values into the callee's parameters
  and the callee's returned values into the lhs, context-insensitively
  (one summary per method, joined over all call sites);
* a resolved non-sanitizer call's lhs comes from the callee's returns
  alone: a path may leave it only when it arrived on a ReturnOut edge;
* an opaque non-sanitizer call copies its arguments into the lhs;
* a sanitizer call pseudonymizes every value it passes on: over its
  arguments and, when it resolves, over the callee's returns too, while a
  sanitizer body still receives its arguments raw through ParamIn;
* field stores and loads go through one program-wide (class, field) cell
  with no kill;
* branch conditions do not taint assigned values (no implicit flows).

Every method is treated as a framework entry point: statements unreachable
from a method's own entry carry no dependence edges, so no path.

A label flows to a sink statement when a valid path from the label's
statement reaches the sink with the value on an argument, that is, not
arriving on a ReturnOut edge. Its status is Raw when such a path passes
through no sanitizer call past the source, else Pseudonymized: status is
a two-point lattice where Raw absorbs Pseudonymized, and Pseudonymized
answers "pseudonymized along every path?".

One layered breadth-first search per source statement finds every sink
its value reaches, each flow's witness and its status: the search's states
carry a clean bit, which a path loses when it leaves a sanitizer call past
the source, and a flow is Raw exactly when the search reaches its sink in
a clean state with the value on an argument. Each flow's witness is the
least valid data path from the label's statement to the sink, shortest
first, then by Loc sequence.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple, Optional

from .graph import CallGraph, DepGraph
from .ir import Call, Loc, Program
from .registry import SanitizerRegistry, SinkKind, SinkRegistry, SourceLabel


class Status(IntEnum):
    PSEUDONYMIZED = 1
    RAW = 2  # top: join(Raw, x) = Raw


class SinkRef(NamedTuple):
    location: Loc
    kind: SinkKind
    name: Optional[str]


class Flow(NamedTuple):
    source: SourceLabel
    sink: SinkRef
    status: Status
    witness: tuple[Loc, ...]
    manipulations: tuple[str, ...]


class TaintResult:
    def __init__(self, flows: list[Flow], unsunk: list[SourceLabel]):
        self.flows, self.unsunk = flows, unsunk


class SearchRules(NamedTuple):
    """What the flow search reads besides the graph: the labels, the graph
    ids of the resolved non-sanitizer calls (blocked_pass_through: a path
    may leave one only when it arrived on a ReturnOut edge) and the graph
    ids of the sanitizer calls."""

    labels: list[SourceLabel]
    blocked_pass_through: frozenset[int]
    sanitizers: frozenset[int]


def propagate(
    p: Program,
    cg: CallGraph,
    labels: list[SourceLabel],
    san: SanitizerRegistry,
) -> SearchRules:
    """The search rules of p's call statements. A statement's graph id is
    its rank in p.locs(), the order build_pdg numbers nodes in."""
    blocked: list[int] = []
    sanitizing: list[int] = []
    for i, (loc, s) in enumerate(p.iter_locs()):
        if isinstance(s, Call):
            if s.callee in san:
                sanitizing.append(i)
            elif loc in cg.edges:
                blocked.append(i)
    return SearchRules(labels, frozenset(blocked), frozenset(sanitizing))


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


def _search(
    g: DepGraph, src: int, blocked: frozenset[int], sanitizing: frozenset[int]
) -> dict[int, int]:
    """{state: parent state} of every state a valid path from src reaches
    over data-carrying edges, the start state its own parent.

    A state is 4 * node id + 2 * (the path arrived via ReturnOut) + dirty,
    where dirty is 1 once the path has left a sanitizing node past the
    start; the search starts from the clean state 4 * src + 2. Validity: a
    path may leave a blocked node only when it arrived via ReturnOut; the
    start may always be left, since its own definition is what the path
    tracks. The dirty bit does not change which edges a path may take, so
    the states of a node hold the valid paths to it, and its clean states
    the valid paths that leave no sanitizing node past the start.

    The search is breadth-first, one layer at a time, and keeps each layer
    in the order of its states' least paths: a parent's new states, which
    data_out gives in id order, are appended after those of earlier
    parents, so the first parent to reach a state gives it its least path
    (shortest, then the lexicographically smallest node sequence; ids
    compare as their Locs do), which the state keeps. A field cell is
    expanded once per dirty bit, at its first store with that bit: that
    store gives every load of the cell with the same bit its least path."""
    start = 4 * src + 2
    parent = {start: start}
    layer = [start]
    expanded: tuple[set[int], set[int]] = (set(), set())
    while layer:
        nxt = []
        for state in layer:
            v = state >> 2
            dirty = state & 1
            if state != start:
                if not state & 2 and v in blocked:
                    continue
                dirty |= v in sanitizing
            for s in g.data_out(v, expanded[dirty], dirty):
                if s not in parent:
                    parent[s] = state
                    nxt.append(s)
        layer = nxt
    return parent


def _least_path(parent: dict[int, int], v: int) -> Optional[list[int]]:
    """The least of the paths _search kept to node v's four states, as node
    ids, or None when it reached none of them."""
    paths = []
    for state in range(4 * v, 4 * v + 4):
        if state in parent:
            path = [v]
            while parent[state] != state:
                state = parent[state]
                path.append(state >> 2)
            paths.append(path[::-1])
    return min(paths, key=lambda path: (len(path), path), default=None)


def collect_flows(rules: SearchRules, sinks: SinkRegistry, g: DepGraph) -> list[Flow]:
    """One Flow per (sink statement, label) where the label's value reaches
    an argument of the sink, in sink id, then source id order.

    One _search per label (a statement carries one label at most) decides
    each of its flows: the flow is Raw when the search reached the sink's
    clean state 4 * sink id, that is, along a path that leaves no
    sanitizer call past the source, and its witness is the least valid
    dependence path from the label's statement to the sink over the sink's
    four states. Manipulations are the callee signatures of interior call
    statements along the witness. The sink statements come from
    g.sink_table(sinks), which report building and DOT output read again."""
    table = g.sink_table(sinks)
    blocked, sanitizing = rules.blocked_pass_through, rules.sanitizers
    locs, stmts = g.locs, g.stmts
    rows: list[tuple[int, int, SourceLabel, list[int], Status]] = []
    for label in rules.labels:
        src = g.id_of(label.location)
        if src is None:
            continue
        reached = _search(g, src, blocked, sanitizing)
        for dst in {s >> 2 for s in reached if not s & 2 and s >> 2 in table}:
            status = Status.RAW if 4 * dst in reached else Status.PSEUDONYMIZED
            rows.append((dst, label.id, label, _least_path(reached, dst), status))
    rows.sort(key=lambda row: row[:2])

    flows: list[Flow] = []
    for dst, _, label, path, status in rows:
        match = table[dst]
        manipulations = [stmts[w].callee for w in path[1:-1] if isinstance(stmts[w], Call)]
        flows.append(
            Flow(
                source=label,
                sink=SinkRef(locs[dst], match.kind, match.name),
                status=status,
                witness=tuple(locs[w] for w in path),
                manipulations=tuple(manipulations),
            )
        )
    return flows


def unsunk_labels(labels: list[SourceLabel], flows: list[Flow]) -> list[SourceLabel]:
    sunk = {f.source.id for f in flows}
    return [l for l in labels if l.id not in sunk]


def build_taint_result(
    pr: SearchRules, p: Program, sinks: SinkRegistry, g: DepGraph
) -> TaintResult:
    """The flows and the labels no flow starts from, under pr, the search
    rules of propagate. p is not read: the traced benchmark
    (bench/layers.py) pins this signature."""
    flows = collect_flows(pr, sinks, g)
    return TaintResult(flows, unsunk_labels(pr.labels, flows))
