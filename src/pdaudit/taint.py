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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Union

from .graph import (
    ENTRY_DEF,
    CallGraph,
    DepGraph,
    MethodId,
    _MethodFacts,
    method_facts,
)
from .ir import (
    AssignCall,
    AssignCopy,
    AssignFieldLoad,
    Call,
    FieldStore,
    Loc,
    Program,
    Return,
    call_parts,
    stmt_defs,
)
from .registry import SanitizerRegistry, SinkKind, SinkRegistry, SourceLabel


class TaintError(Exception):
    pass


class FixpointBudgetExceededError(TaintError):
    """The worklist ran past any sane bound; signals an engine bug, not a
    property of the analyzed program (the lattice is finite)."""


class NotALabelError(TaintError):
    def __init__(self, label_id: int):
        self.label_id = label_id
        super().__init__(f"no source label with id {label_id}")


class Status(IntEnum):
    PSEUDONYMIZED = 1
    RAW = 2  # top: join(Raw, x) = Raw


@dataclass(frozen=True, order=True)
class LocalCell:
    cls: str
    method: str
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class FieldCell:
    cls: str
    fld: str

    def __str__(self) -> str:
        return f"{self.cls}.{self.fld}"


Cell = Union[LocalCell, FieldCell]


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

    blocked_pass_through holds the resolved non-sanitizer call statements:
    their lhs comes from the callee's return alone, so a dependence path may
    continue through them only when it arrived on a ReturnOut edge."""

    def __init__(
        self,
        labels: list[SourceLabel],
        facts: dict[MethodId, _MethodFacts],
        entry: dict[MethodId, dict[str, _Facts]],
        defs: dict[MethodId, dict[int, _Facts]],
        field_cells: dict[tuple[str, str], _Facts],
        blocked_pass_through: frozenset[Loc] = frozenset(),
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
    facts = method_facts(p)
    entry: dict[MethodId, dict[str, _Facts]] = {mid: {} for mid in facts}
    defs: dict[MethodId, dict[int, _Facts]] = {mid: {} for mid in facts}
    ret_facts: dict[MethodId, _Facts] = {mid: {} for mid in facts}
    field_cells: dict[tuple[str, str], _Facts] = {}

    loads_of: dict[tuple[str, str], list[tuple[MethodId, int]]] = {}
    callers_of: dict[MethodId, list[tuple[MethodId, int]]] = {}
    blocked: set[Loc] = set()
    for mid, f in facts.items():
        for i in sorted(f.reachable):
            s = f.m.body[i]
            if isinstance(s, AssignFieldLoad):
                loads_of.setdefault((s.cls, s.fld), []).append((mid, i))
            elif isinstance(s, (AssignCall, Call)):
                site = f.loc(i)
                resolved = cg.resolved(site)
                for t in resolved:
                    callers_of.setdefault(t, []).append((mid, i))
                if resolved and s.callee not in san:
                    blocked.add(site)

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

    n_stmts = sum(len(m.body) for _, m in p.iter_methods())
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
                for load in loads_of.get((stmt.cls, stmt.fld), ()):
                    push(*load)
        elif isinstance(stmt, Return):
            if stmt.value is not None and _join_into(
                ret_facts[mid], _read(stmt.value, uses[0], mentry, mdefs)
            ):
                for caller in callers_of.get(mid, ()):
                    push(*caller)
        elif isinstance(stmt, (AssignCall, Call)):
            arg_facts = [_read(a, ds, mentry, mdefs) for a, ds in zip(stmt.args, uses)]
            result: _Facts = {}
            if stmt.callee in san:
                for af in arg_facts:
                    for sid in af:
                        result[sid] = Status.PSEUDONYMIZED
            else:
                resolved = cg.resolved(f.loc(i))
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
            if isinstance(stmt, AssignCall):
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


def _witness_rdist(g: DepGraph, dst: int, blocked: set[int]) -> dict[int, int]:
    """Fewest valid steps to node dst per search state.

    A state is 2 * node id + 1 when the path arrived via ReturnOut, else
    2 * node id. The first load of a field cell to be dequeued gives every
    store of the cell its distance; later loads of the cell would give the
    stores no shorter one, so the cell is expanded once."""
    rdist = {2 * dst: 0, 2 * dst + 1: 0}
    work = deque(rdist)
    expanded: set[int] = set()
    while work:
        state = work.popleft()
        d = rdist[state] + 1
        for v in g.data_in(state >> 1, bool(state & 1), expanded):
            stay = 2 * v
            if stay not in rdist and v not in blocked:
                rdist[stay] = d
                work.append(stay)
            if stay + 1 not in rdist:
                rdist[stay + 1] = d
                work.append(stay + 1)
    return rdist


def _witness(
    g: DepGraph, src: int, dst: int, blocked: set[int], rdist: dict[int, int]
) -> Optional[list[int]]:
    """Shortest valid src -> dst path over data-carrying edges, as node ids;
    among equal-length paths, the lexicographically smallest node sequence.
    rdist is _witness_rdist(g, dst, blocked).

    Validity: a path may leave a blocked statement (resolved non-sanitizer
    call) only when it arrived there via ReturnOut; the start may always be
    left, since its own definition is what the path tracks. Search states
    are therefore (location, arrived-via-ReturnOut)."""
    if src == dst:
        return [src]
    start = 2 * src + 1
    if start not in rdist:
        return None

    # frontier greedy: at each step pick the smallest next location that
    # still reaches dst in the remaining number of steps
    path = [src]
    frontier: set[int] = {start}
    remaining = rdist[start]
    while remaining > 0:
        candidates: dict[int, set[int]] = {}
        for state in frontier:
            v = state >> 1
            if not state & 1 and v in blocked:
                continue
            for w, via_ret in g.data_out(v):
                nxt = 2 * w + via_ret
                if rdist.get(nxt) == remaining - 1:
                    candidates.setdefault(w, set()).add(nxt)
        step = min(candidates)
        path.append(step)
        frontier = candidates[step]
        remaining -= 1
    return path


def collect_flows(pr: PropagationResult, sinks: SinkRegistry, g: DepGraph) -> list[Flow]:
    """One Flow per (sink statement, source id) with a fact on any argument.

    Status is the lattice join across arguments; the witness is the
    pinned-down shortest dependence path; manipulations are the callee
    signatures of interior call statements along the witness."""
    label_by_id = {l.id: l for l in pr.labels}
    flows: list[Flow] = []
    locs, stmts = g.locs, g.stmts
    blocked = {i for i in map(g.id_of, pr.blocked_pass_through) if i is not None}
    for dst, stmt in enumerate(stmts):
        parts = call_parts(stmt)
        if parts is None:
            continue
        match = sinks.match(parts[0])
        if match is None:
            continue
        loc = locs[dst]
        state = pr.raw_before(loc)
        per_id: dict[int, Status] = {}
        for (name, sid), st in state.items():
            if name in parts[1]:
                per_id[sid] = max(per_id.get(sid, Status.PSEUDONYMIZED), st)
        rdist: Optional[dict[int, int]] = None
        for sid in sorted(per_id):
            label = label_by_id[sid]
            src = g.id_of(label.location)
            path = None
            if src is not None:
                if rdist is None:
                    rdist = _witness_rdist(g, dst, blocked)
                path = _witness(g, src, dst, blocked, rdist)
            if path is None:
                raise TaintError(
                    f"no dependence path for flow {label.location} -> {loc}; "
                    "graph and facts disagree"
                )
            manipulations = []
            for w in path[1:-1]:
                wparts = call_parts(stmts[w])
                if wparts is not None:
                    manipulations.append(wparts[0])
            flows.append(
                Flow(
                    source=label,
                    sink=SinkRef(loc, match.kind, match.name),
                    status=per_id[sid],
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


# ---------------------------------------------------------------------------
# Derived data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedData:
    cells: frozenset[Cell]
    signatures: frozenset[str]


def derived_data(pr: PropagationResult, label: SourceLabel) -> DerivedData:
    """Every cell that ever holds the label's fact, and every call whose
    output carries it (excluding the label's own acquisition site)."""
    if not any(l.id == label.id for l in pr.labels):
        raise NotALabelError(label.id)
    cells: set[Cell] = set()
    sigs: set[str] = set()
    for mid, f in pr._facts.items():
        for d, held in pr._defs[mid].items():
            if label.id not in held:
                continue
            stmt = f.m.body[d]
            cells.add(LocalCell(mid.cls, mid.method, stmt_defs(stmt)))
            if isinstance(stmt, AssignCall) and f.loc(d) != label.location:
                sigs.add(stmt.callee)
        if f.m.body:  # entry values hold at the first statement
            for param, held in pr._entry[mid].items():
                if label.id in held:
                    cells.add(LocalCell(mid.cls, mid.method, param))
    for (cls, fld), cell_state in pr.field_cells.items():
        if label.id in cell_state:
            cells.add(FieldCell(cls, fld))
    return DerivedData(frozenset(cells), frozenset(sigs))
