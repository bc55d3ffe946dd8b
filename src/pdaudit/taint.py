"""Interprocedural taint propagation with pseudonymization status.

Facts are (cell, source id, status) triples. Cells are method locals or
(class, field) pairs; status is a two-point lattice where Raw absorbs
Pseudonymized, so the fact status at a join answers "pseudonymized along
every path?" directly: it is Pseudonymized exactly when every dependence
path that delivers the value applied a sanitizer.

Transfer rules (the worklist and the test oracle both implement these):

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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional, Union

from .graph import (
    DATA_KINDS,
    CallGraph,
    DepGraph,
    EXIT,
    EdgeKind,
    MethodId,
    cfg_successors,
    reachable_indices,
)
from .ir import (
    AssignCall,
    AssignConst,
    AssignCopy,
    AssignFieldLoad,
    Call,
    FieldStore,
    Loc,
    Program,
    Return,
    call_parts,
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


def _cell_key(c: Cell):
    if isinstance(c, LocalCell):
        return (0, c.cls, c.method, c.name)
    return (1, c.cls, c.fld, "")


@dataclass(frozen=True)
class TaintFact:
    cell: Cell
    source_id: int
    status: Status

    def sort_key(self):
        return (_cell_key(self.cell), self.source_id, self.status)


class Verdict(Enum):
    ALL_PATHS_PSEUDONYMIZED = "AllPathsPseudonymized"
    RAW_ON_SOME_PATH = "RawOnSomePath"


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


# Internal state representation: {(local name, source id): Status} per
# program point; field cells live in one global map.
_State = dict[tuple[str, int], Status]


def _join_into(dst: dict, src: dict) -> bool:
    changed = False
    for k, v in src.items():
        if dst.get(k, 0) < v:
            dst[k] = v
            changed = True
    return changed


class PropagationResult:
    """Fixpoint facts: per-point before/after states plus field cells.

    blocked_pass_through holds the resolved non-sanitizer call statements:
    their lhs comes from the callee's return alone, so a dependence path may
    continue through them only when it arrived on a ReturnOut edge."""

    def __init__(
        self,
        program: Program,
        labels: list[SourceLabel],
        before: dict[Loc, _State],
        after: dict[Loc, _State],
        field_cells: dict[tuple[str, str], dict[int, Status]],
        blocked_pass_through: frozenset[Loc] = frozenset(),
    ):
        self.program = program
        self.labels = labels
        self._before = before
        self._after = after
        self.field_cells = field_cells
        self.blocked_pass_through = blocked_pass_through

    def _facts_at(self, table: dict[Loc, _State], loc: Loc) -> frozenset[TaintFact]:
        state = table.get(loc, {})
        cell = lambda name: LocalCell(loc.cls, loc.method, name)
        return frozenset(TaintFact(cell(n), i, st) for (n, i), st in state.items())

    def before(self, loc: Loc) -> frozenset[TaintFact]:
        return self._facts_at(self._before, loc)

    def after(self, loc: Loc) -> frozenset[TaintFact]:
        return self._facts_at(self._after, loc)

    def raw_before(self, loc: Loc) -> _State:
        return self._before.get(loc, {})


def propagate(
    p: Program,
    cg: CallGraph,
    labels: list[SourceLabel],
    san: SanitizerRegistry,
) -> PropagationResult:
    """Least fixpoint of the transfer rules over all reachable statements."""
    label_at = {l.location: l for l in labels}

    methods: dict[MethodId, tuple] = {}
    for cls, m in p.iter_methods():
        mid = MethodId(cls.name, m.key)
        succs = cfg_successors(m)
        reach = reachable_indices(m, succs)
        preds: dict[int, list[int]] = {i: [] for i in reach}
        for i in reach:
            for j in succs[i]:
                if j != EXIT:
                    preds[j].append(i)
        methods[mid] = (m, reach, succs, preds)

    entry_facts: dict[MethodId, _State] = {mid: {} for mid in methods}
    ret_facts: dict[MethodId, dict[int, Status]] = {mid: {} for mid in methods}
    field_cells: dict[tuple[str, str], dict[int, Status]] = {}
    before: dict[Loc, _State] = {}
    after: dict[Loc, _State] = {}

    loads_of: dict[tuple[str, str], list[tuple[MethodId, int]]] = {}
    callers_of: dict[MethodId, list[tuple[MethodId, int]]] = {}
    blocked: set[Loc] = set()
    for mid, (m, reach, _, _) in methods.items():
        for i in sorted(reach):
            s = m.body[i]
            if isinstance(s, AssignFieldLoad):
                loads_of.setdefault((s.cls, s.fld), []).append((mid, i))
            elif isinstance(s, (AssignCall, Call)):
                site = Loc(mid.cls, mid.method, i)
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

    for mid in sorted(methods):
        for i in sorted(methods[mid][1]):
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
        mid, i = work.popleft()
        queued.discard((mid, i))
        m, reach, succs, preds = methods[mid]
        loc = Loc(mid.cls, mid.method, i)
        stmt = m.body[i]

        in_state: _State = {}
        if i == 0:
            _join_into(in_state, entry_facts[mid])
        for pr in preds[i]:
            ploc = Loc(mid.cls, mid.method, pr)
            _join_into(in_state, after.get(ploc, {}))
        before[loc] = in_state

        out: _State = dict(in_state)
        if isinstance(stmt, AssignConst):
            out = {k: v for k, v in out.items() if k[0] != stmt.lhs}
        elif isinstance(stmt, AssignCopy):
            out = {k: v for k, v in out.items() if k[0] != stmt.lhs}
            for (name, sid), st in in_state.items():
                if name == stmt.rhs:
                    key = (stmt.lhs, sid)
                    out[key] = max(out.get(key, Status.PSEUDONYMIZED), st)
        elif isinstance(stmt, AssignFieldLoad):
            out = {k: v for k, v in out.items() if k[0] != stmt.lhs}
            for sid, st in field_cells.get((stmt.cls, stmt.fld), {}).items():
                out[(stmt.lhs, sid)] = st
        elif isinstance(stmt, FieldStore):
            cell = field_cells.setdefault((stmt.cls, stmt.fld), {})
            moved = {sid: st for (name, sid), st in in_state.items() if name == stmt.rhs}
            if _join_into(cell, moved):
                for lmid, li in loads_of.get((stmt.cls, stmt.fld), ()):
                    push(lmid, li)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                moved = {sid: st for (name, sid), st in in_state.items() if name == stmt.value}
                if _join_into(ret_facts[mid], moved):
                    for cmid, ci in callers_of.get(mid, ()):
                        push(cmid, ci)
        elif isinstance(stmt, (AssignCall, Call)):
            arg_facts: list[dict[int, Status]] = []
            for a in stmt.args:
                arg_facts.append(
                    {sid: st for (name, sid), st in in_state.items() if name == a}
                )
            lhs = stmt.lhs if isinstance(stmt, AssignCall) else None
            lhs_facts: dict[int, Status] = {}
            if stmt.callee in san:
                for af in arg_facts:
                    for sid in af:
                        lhs_facts[sid] = Status.PSEUDONYMIZED
            else:
                resolved = cg.resolved(loc)
                for t in resolved:
                    tm = methods[t][0]
                    contrib: _State = {}
                    for k, af in enumerate(arg_facts):
                        if k < len(tm.params):
                            for sid, st in af.items():
                                key = (tm.params[k], sid)
                                contrib[key] = max(contrib.get(key, Status.PSEUDONYMIZED), st)
                    if _join_into(entry_facts[t], contrib) and tm.body:
                        push(t, 0)
                    _join_into(lhs_facts, ret_facts[t])
                if not resolved:
                    for af in arg_facts:
                        _join_into(lhs_facts, af)
            if lhs is not None:
                out = {k: v for k, v in out.items() if k[0] != lhs}
                for sid, st in lhs_facts.items():
                    out[(lhs, sid)] = st
                lab = label_at.get(loc)
                if lab is not None:
                    out[(lhs, lab.id)] = Status.RAW
        # If/Goto: no fact effect.

        if out != after.get(loc):
            after[loc] = out
            for j in succs[i]:
                if j != EXIT:
                    push(mid, j)

    return PropagationResult(p, labels, before, after, field_cells, frozenset(blocked))


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


def _witness_rdist(
    g: DepGraph, dst: Loc, blocked: frozenset[Loc]
) -> dict[tuple[Loc, bool], int]:
    """Fewest valid steps to dst per (location, arrived-via-ReturnOut)."""

    def can_leave(loc: Loc, via_ret: bool) -> bool:
        return via_ret or loc not in blocked

    rdist: dict[tuple[Loc, bool], int] = {(dst, False): 0, (dst, True): 0}
    work = deque([(dst, False), (dst, True)])
    while work:
        w, mode_w = work.popleft()
        d = rdist[(w, mode_w)]
        for e in g.preds(w):
            if e.kind not in DATA_KINDS:
                continue
            if mode_w != (e.kind is EdgeKind.RETURN_OUT):
                continue
            for mode_v in (False, True):
                state = (e.src, mode_v)
                if state not in rdist and can_leave(e.src, mode_v):
                    rdist[state] = d + 1
                    work.append(state)
    return rdist


def _witness(
    g: DepGraph,
    src: Loc,
    dst: Loc,
    blocked: frozenset[Loc],
    rdist_cache: Optional[dict[Loc, dict]] = None,
) -> Optional[tuple[Loc, ...]]:
    """Shortest valid src -> dst path over data-carrying edges; among
    equal-length paths, the lexicographically smallest node sequence.

    Validity: a path may leave a blocked statement (resolved non-sanitizer
    call) only when it arrived there via ReturnOut; the start may always be
    left, since its own definition is what the path tracks. Search states
    are therefore (location, arrived-via-ReturnOut)."""
    if src == dst:
        return (src,)

    def can_leave(loc: Loc, via_ret: bool) -> bool:
        return via_ret or loc not in blocked

    if rdist_cache is not None and dst in rdist_cache:
        rdist = rdist_cache[dst]
    else:
        rdist = _witness_rdist(g, dst, blocked)
        if rdist_cache is not None:
            rdist_cache[dst] = rdist
    start = (src, True)
    if start not in rdist:
        return None

    # frontier greedy: at each step pick the smallest next location that
    # still reaches dst in the remaining number of steps
    path = [src]
    frontier: set[tuple[Loc, bool]] = {start}
    remaining = rdist[start]
    while remaining > 0:
        candidates: dict[Loc, set[tuple[Loc, bool]]] = {}
        for v, mode_v in frontier:
            if not can_leave(v, mode_v):
                continue
            for e in g.succs(v):
                if e.kind not in DATA_KINDS:
                    continue
                state = (e.dst, e.kind is EdgeKind.RETURN_OUT)
                if rdist.get(state) == remaining - 1:
                    candidates.setdefault(e.dst, set()).add(state)
        nxt = min(candidates)
        path.append(nxt)
        frontier = candidates[nxt]
        remaining -= 1
    return tuple(path)


def collect_flows(
    pr: PropagationResult, p: Program, sinks: SinkRegistry, g: DepGraph
) -> list[Flow]:
    """One Flow per (sink statement, source id) with a fact on any argument.

    Status is the lattice join across arguments; the witness is the
    pinned-down shortest dependence path; manipulations are the callee
    signatures of interior call statements along the witness."""
    label_by_id = {l.id: l for l in pr.labels}
    flows: list[Flow] = []
    rdist_cache: dict[Loc, dict] = {}
    for loc, stmt in p.iter_locs():
        parts = call_parts(stmt)
        if parts is None:
            continue
        match = sinks.match(parts[0])
        if match is None:
            continue
        state = pr.raw_before(loc)
        per_id: dict[int, Status] = {}
        for (name, sid), st in state.items():
            if name in parts[1]:
                per_id[sid] = max(per_id.get(sid, Status.PSEUDONYMIZED), st)
        for sid in sorted(per_id):
            label = label_by_id[sid]
            witness = _witness(g, label.location, loc, pr.blocked_pass_through, rdist_cache)
            if witness is None:
                raise TaintError(
                    f"no dependence path for flow {label.location} -> {loc}; "
                    "graph and facts disagree"
                )
            manipulations = []
            for w in witness[1:-1]:
                ws = p.stmt_at(w)
                wparts = call_parts(ws) if ws is not None else None
                if wparts is not None:
                    manipulations.append(wparts[0])
            flows.append(
                Flow(
                    source=label,
                    sink=SinkRef(loc, match.kind, match.name),
                    status=per_id[sid],
                    witness=witness,
                    manipulations=tuple(manipulations),
                )
            )
    return flows


def check_pseudonymization(f: Flow) -> Verdict:
    """Pseudonymized at the sink means every dependence path applied a
    sanitizer; anything else means raw data arrives on some path."""
    if f.status is Status.PSEUDONYMIZED:
        return Verdict.ALL_PATHS_PSEUDONYMIZED
    return Verdict.RAW_ON_SOME_PATH


def unsunk_labels(labels: list[SourceLabel], flows: list[Flow]) -> list[SourceLabel]:
    sunk = {f.source.id for f in flows}
    return [l for l in labels if l.id not in sunk]


def build_taint_result(
    pr: PropagationResult, p: Program, sinks: SinkRegistry, g: DepGraph
) -> TaintResult:
    flows = collect_flows(pr, p, sinks, g)
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
    for table in (pr._before, pr._after):
        for loc, state in table.items():
            for (name, sid), _ in state.items():
                if sid == label.id:
                    cells.add(LocalCell(loc.cls, loc.method, name))
    for (cls, fld), cell_state in pr.field_cells.items():
        if label.id in cell_state:
            cells.add(FieldCell(cls, fld))
    for loc, state in pr._after.items():
        if loc == label.location:
            continue
        stmt = pr.program.stmt_at(loc)
        if not isinstance(stmt, AssignCall):
            continue
        if (stmt.lhs, label.id) in state:
            sigs.add(stmt.callee)
    return DerivedData(frozenset(cells), frozenset(sigs))
