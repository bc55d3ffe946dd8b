"""Interprocedural taint propagation with pseudonymization status.

Facts are (cell, source id, status) triples. Cells are method locals or
(class, field) pairs; status is a two-point lattice where Raw absorbs
Pseudonymized, so the fact status at a join answers "pseudonymized along
every path?" directly: it is Pseudonymized exactly when every dependence
path that delivers the value applied a sanitizer.

Transfer rules (the engine and the test oracles each implement these):

* a labelled call with a lhs generates (lhs, label id, Raw) in addition to
  its ordinary call effect;
* copies move facts, constants kill them (strong update on locals);
* a sanitizer call writes its argument facts into the lhs as Pseudonymized,
  whatever their input status (hashing twice stays pseudonymized);
* a resolved call feeds argument facts into the callee's parameters and the
  callee's returned facts into the lhs, context-insensitively (one summary
  per method, joined over all call sites);
* an opaque non-sanitizer call copies argument facts to the lhs unchanged;
* field stores/loads go through a global per-(class, field) cell with no
  kill, matching the dependence graph's field abstraction;
* branch conditions do not taint assigned values (no implicit flows).

Every method is treated as a framework entry point: statements unreachable
from a method's own entry never execute and carry no facts.

Propagation is sparse: facts move along def-use chains, not from statement
to statement. The engine keeps one value {source id: status} per reachable
definition of a local, plus each method's entry value per parameter, its
returned facts and the field cells. A statement reads local v as the join
of v's values at the definitions of v reaching it (the method's reaching
definitions from graph.method_facts, shared with the dependence graph). A
definition whose value grows re-queues only the statements reading it; a
parameter's entry value re-queues its entry-value readers, a field cell
its loads and a return value the method's call sites. The state before a
statement, {(local, source id): status}, is derived on demand from the
same reaching definitions.

The loads of each field cell, each call's targets and the resolved call
statements come from the method facts' record, which the dependence
graph reads too: propagation asks the call graph nothing, touches no Loc
and classifies a statement only to apply its transfer rule.

Each flow's witness is the least valid data path from the label's
statement to the sink, shortest first, then by Loc sequence. One layered
breadth-first search per source statement, forward over the dependence
graph, finds the witnesses to all of that statement's sinks, and stops once
it has found them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from .graph import (
    ENTRY_DEF,
    CallGraph,
    DepGraph,
    MethodId,
    _MethodFacts,
    method_facts,
)
from .ir import AssignCopy, AssignFieldLoad, Call, FieldStore, Loc, Program, Return
from .registry import SanitizerRegistry, SinkKind, SinkMatch, SinkRegistry, SourceLabel


class TaintError(Exception):
    pass


class FixpointBudgetExceededError(TaintError):
    """The worklist ran past any sane bound; signals an engine bug, not a
    property of the analyzed program (the lattice is finite)."""


class Status(IntEnum):
    PSEUDONYMIZED = 1
    RAW = 2  # top: join(Raw, x) = Raw


@dataclass(frozen=True)
class SinkRef:
    location: Loc
    kind: SinkKind
    name: Optional[str]


@dataclass(frozen=True)
class Flow:
    source: SourceLabel
    sink: SinkRef
    status: Status
    witness: tuple[Loc, ...]
    manipulations: tuple[str, ...]


@dataclass
class TaintResult:
    flows: list[Flow]
    unsunk: list[SourceLabel]


# The facts at a program point, as raw_before returns them:
# {(local name, source id): Status}. Field cells live in one global map.
_State = dict[tuple[str, int], Status]
_Facts = dict[int, Status]  # {source id: Status}


def _join_into(dst: dict, src: dict) -> bool:
    changed = False
    for k, v in src.items():
        if dst.get(k, 0) < v:
            dst[k] = v
            changed = True
    return changed


class PropagationResult:
    """Fixpoint facts: the value of every reachable local definition, every
    parameter's entry value, and the field cells. The state before any
    statement is derived from these and the method's reaching definitions.

    blocked_pass_through holds the dependence graph ids of the resolved
    non-sanitizer call statements: their lhs comes from the callee's return
    alone, so a dependence path may continue through them only when it
    arrived on a ReturnOut edge."""

    def __init__(
        self,
        labels: list[SourceLabel],
        facts: dict[MethodId, _MethodFacts],
        entry: dict[MethodId, dict[str, _Facts]],
        defs: dict[MethodId, dict[int, _Facts]],
        field_cells: dict[tuple[str, str], _Facts],
        blocked_pass_through: frozenset[int],
    ):
        self.labels = labels
        self._facts = facts
        self._entry = entry
        self._defs = defs
        self.field_cells = field_cells
        self.blocked_pass_through = blocked_pass_through

    def raw_before(self, loc: Loc) -> _State:
        """The facts holding just before loc; {} when loc is unreachable or
        not a statement."""
        mid = MethodId(loc.cls, loc.method)
        f = self._facts.get(mid)
        if f is None:
            return {}
        entry, defs = self._entry[mid], self._defs[mid]
        state: _State = {}
        for v, d in f.pairs(f.before.get(loc.index, 0)):
            held = entry.get(v) if d == ENTRY_DEF else defs.get(d)
            if held:
                for sid, st in held.items():
                    if state.get((v, sid), 0) < st:
                        state[(v, sid)] = st
        return state


def _read(
    v: str, ds: tuple[int, ...], entry: dict[str, _Facts], defs: dict[int, _Facts]
) -> _Facts:
    """The facts of local v where the definitions ds of it reach: a shared
    dict when there is one, not to be mutated."""
    if len(ds) == 1:
        held = entry.get(v) if ds[0] == ENTRY_DEF else defs.get(ds[0])
        return held or {}
    acc: _Facts = {}
    for d in ds:
        held = entry.get(v) if d == ENTRY_DEF else defs.get(d)
        if held:
            _join_into(acc, held)
    return acc


def propagate(
    p: Program,
    cg: CallGraph,
    labels: list[SourceLabel],
    san: SanitizerRegistry,
) -> PropagationResult:
    """Least fixpoint of the transfer rules over all reachable statements,
    propagated sparsely along def-use chains."""
    facts = method_facts(p, cg)
    entry: dict[MethodId, dict[str, _Facts]] = {mid: {} for mid in facts}
    defs: dict[MethodId, dict[int, _Facts]] = {mid: {} for mid in facts}
    ret_facts: dict[MethodId, _Facts] = {mid: {} for mid in facts}
    field_cells: dict[tuple[str, str], _Facts] = {}

    # The loads of each field cell, per method, and the callers of each
    # method, from the method facts' record of the reachable statements.
    loads_of: dict[tuple[str, str], list[tuple[MethodId, list[int]]]] = {}
    callers_of: dict[MethodId, list[tuple[MethodId, int]]] = {}
    blocked: set[int] = set()
    for mid, f in facts.items():
        for c, at in f.loads.items():
            loads_of.setdefault(c, []).append((mid, at))
        for i, targets in f.calls.items():
            for t in targets:
                callers_of.setdefault(t, []).append((mid, i))
            if f.m.body[i].callee not in san:
                blocked.add(f.base + i)

    work: deque[tuple[MethodId, int]] = deque()
    queued: set[tuple[MethodId, int]] = set()

    def push(mid: MethodId, i: int) -> None:
        if (mid, i) not in queued:
            queued.add((mid, i))
            work.append((mid, i))

    # Facts start at labelled calls; every other statement is visited once
    # one of its inputs (a reaching definition, an entry value, a field
    # cell, a callee's return) gains a fact.
    label_at: dict[tuple[MethodId, int], int] = {}
    for l in labels:
        mid = MethodId(l.location.cls, l.location.method)
        if mid in facts and l.location.index in facts[mid].reachable:
            label_at[(mid, l.location.index)] = l.id
    for mid, i in sorted(label_at):
        push(mid, i)

    n_stmts = len(p.locs())
    budget = 4 * max(1, n_stmts) * max(1, 2 * len(labels)) + 1000
    steps = 0

    while work:
        steps += 1
        if steps > budget:
            raise FixpointBudgetExceededError(
                f"fixpoint exceeded {budget} statement visits on {n_stmts} statements"
            )
        item = work.popleft()
        queued.discard(item)
        mid, i = item
        f = facts[mid]
        stmt = f.m.body[i]
        mentry, mdefs = entry[mid], defs[mid]
        uses = f.use_defs.get(i, ())

        value: Optional[_Facts] = None  # the facts of the local stmt defines
        if isinstance(stmt, AssignCopy):
            value = _read(stmt.rhs, uses[0], mentry, mdefs)
        elif isinstance(stmt, AssignFieldLoad):
            value = field_cells.get((stmt.cls, stmt.fld), {})
        elif isinstance(stmt, FieldStore):
            moved = _read(stmt.rhs, uses[0], mentry, mdefs)
            if moved and _join_into(field_cells.setdefault((stmt.cls, stmt.fld), {}), moved):
                for lmid, at in loads_of.get((stmt.cls, stmt.fld), ()):
                    for u in at:
                        push(lmid, u)
        elif isinstance(stmt, Return):
            if stmt.value is not None and _join_into(
                ret_facts[mid], _read(stmt.value, uses[0], mentry, mdefs)
            ):
                for caller in callers_of.get(mid, ()):
                    push(*caller)
        elif isinstance(stmt, Call):
            arg_facts = [_read(a, ds, mentry, mdefs) for a, ds in zip(stmt.args, uses)]
            result: _Facts = {}
            if stmt.callee in san:
                for af in arg_facts:
                    for sid in af:
                        result[sid] = Status.PSEUDONYMIZED
            else:
                resolved = f.calls.get(i, ())
                for t in resolved:
                    tf, tentry = facts[t], entry[t]
                    for param, af in zip(tf.m.params, arg_facts):
                        if af and _join_into(tentry.setdefault(param, {}), af):
                            for u in tf.entry_uses.get(param, ()):
                                push(t, u)
                    _join_into(result, ret_facts[t])
                if not resolved:
                    for af in arg_facts:
                        _join_into(result, af)
            if stmt.lhs is not None:
                value = result
                sid = label_at.get(item)
                if sid is not None:
                    value[sid] = Status.RAW
        # Constants define a local with no facts; If/Goto have no fact effect.

        if value and _join_into(mdefs.setdefault(i, {}), value):
            for u in f.def_uses.get(i, ()):
                push(mid, u)

    return PropagationResult(labels, facts, entry, defs, field_cells, frozenset(blocked))


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


def _witnesses(
    g: DepGraph, src: int, targets: set[int], blocked: set[int]
) -> dict[int, list[int]]:
    """{dst: path} for each dst of targets that a valid path from src
    reaches: the shortest valid src -> dst path over data-carrying edges,
    as node ids, and among equal-length paths the lexicographically
    smallest node sequence (ids compare as their Locs do).

    Validity: a path may leave a blocked statement (resolved non-sanitizer
    call) only when it arrived there via ReturnOut; the start may always be
    left, since its own definition is what the path tracks. Search states
    are therefore 2 * node id + 1 when the path arrived via ReturnOut, else
    2 * node id, and the search starts from 2 * src + 1.

    The search is breadth-first, one layer at a time, and keeps each layer
    in the order of its states' least paths: a parent's new states are
    sorted by id and appended after those of earlier parents, so the first
    parent to reach a state gives it its least path, which the state keeps.
    A field cell is expanded once, at its first store: that store gives
    every load of the cell its least path. The search stops once every
    target is found."""
    start = 2 * src + 1
    parent = {start: start}
    left = set(targets)
    found: dict[int, list[int]] = {}

    def reached(state: int) -> None:
        path = [state >> 1]
        while state != start:
            state = parent[state]
            path.append(state >> 1)
        found[path[0]] = path[::-1]
        left.discard(path[0])

    if src in left:
        reached(start)
    layer = [start]
    expanded: set[int] = set()
    while layer and left:
        nxt = []
        for state in layer:
            v = state >> 1
            if not state & 1 and v in blocked:
                continue
            for s in sorted(g.data_out(v, expanded)):
                if s not in parent:
                    parent[s] = state
                    nxt.append(s)
                    if s >> 1 in left:
                        reached(s)
                        if not left:
                            return found
        layer = nxt
    return found


def collect_flows(pr: PropagationResult, sinks: SinkRegistry, g: DepGraph) -> list[Flow]:
    """One Flow per (sink statement, source id) with a fact on any argument,
    in sink id, then source id order.

    Status is the lattice join across arguments; the witness is the
    pinned-down shortest dependence path, from one _witnesses search per
    source statement to all of that statement's sinks (labels on one
    statement share it); manipulations are the callee signatures of
    interior call statements along the witness. The sink statements come
    from g.sink_table(sinks), which report building and DOT output read
    again."""
    label_by_id = {l.id: l for l in pr.labels}
    locs, stmts = g.locs, g.stmts
    rows: list[tuple[int, SinkMatch, SourceLabel, Optional[int], Status]] = []
    targets: dict[int, set[int]] = {}  # source statement id -> its sinks
    for dst, match in g.sink_table(sinks).items():
        args = stmts[dst].args
        per_id: dict[int, Status] = {}
        for (name, sid), st in pr.raw_before(locs[dst]).items():
            if name in args:
                per_id[sid] = max(per_id.get(sid, Status.PSEUDONYMIZED), st)
        for sid in sorted(per_id):
            label = label_by_id[sid]
            src = g.id_of(label.location)
            rows.append((dst, match, label, src, per_id[sid]))
            if src is not None:
                targets.setdefault(src, set()).add(dst)
    blocked = pr.blocked_pass_through
    paths = {src: _witnesses(g, src, ts, blocked) for src, ts in targets.items()}

    flows: list[Flow] = []
    for dst, match, label, src, status in rows:
        path = None if src is None else paths[src].get(dst)
        if path is None:
            raise TaintError(
                f"no dependence path for flow {label.location} -> {locs[dst]}; "
                "graph and facts disagree"
            )
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
    pr: PropagationResult, p: Program, sinks: SinkRegistry, g: DepGraph
) -> TaintResult:
    """The flows and the labels no flow starts from. p is not read: the
    traced benchmark (bench/layers.py) pins this signature."""
    flows = collect_flows(pr, sinks, g)
    return TaintResult(flows, unsunk_labels(pr.labels, flows))

