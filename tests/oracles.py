"""Brute-force oracles, independent of the implementations they check.

Everything here recomputes results the slow, obvious way: explicit path
enumeration and chaotic iteration. Nothing imports from the algorithmic
internals under test beyond public data types.
"""

from __future__ import annotations

from itertools import count

from pdaudit.graph import DATA_KINDS, DepGraph, EXIT, cfg_successors
from pdaudit.ir import Loc, MethodDef, Program, stmt_defs, stmt_uses


def enumerate_cfg_paths(m: MethodDef, limit: int = 200000) -> list[list[int]]:
    """All entry-to-exit paths of a loop-free method body."""
    if not m.body:
        return [[]]
    succs = cfg_successors(m)
    paths: list[list[int]] = []
    counter = count()

    def walk(i: int, acc: list[int]) -> None:
        if next(counter) > limit:
            raise RuntimeError("path explosion; generator produced a loop?")
        acc = acc + [i]
        for j in succs[i]:
            if j == EXIT:
                paths.append(acc)
            else:
                walk(j, acc)

    walk(0, [])
    return paths


def data_dep_pairs_by_paths(cls_name: str, m: MethodDef) -> set[tuple[Loc, Loc]]:
    """Local def-use pairs with no intervening redefinition, path by path."""
    pairs: set[tuple[Loc, Loc]] = set()
    for path in enumerate_cfg_paths(m):
        last_def: dict[str, int] = {}
        for i in path:
            s = m.body[i]
            for v in stmt_uses(s):
                if v in last_def:
                    pairs.add((Loc(cls_name, m.key, last_def[v]), Loc(cls_name, m.key, i)))
            d = stmt_defs(s)
            if d is not None:
                last_def[d] = i
    return pairs


def naive_closure(g: DepGraph, root: Loc) -> set[Loc]:
    """Forward transitive closure by chaotic iteration over the edge set."""
    if root not in g.nodes:
        return set()
    inside = {root}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e.src in inside and e.dst not in inside:
                inside.add(e.dst)
                changed = True
    return inside


def simple_data_paths(
    g: DepGraph,
    src: Loc,
    dst: Loc,
    blocked: frozenset[Loc] = frozenset(),
    limit: int = 100000,
) -> list[list[Loc]]:
    """All simple valid paths src -> dst over data-carrying edges.

    A blocked node (resolved non-sanitizer call: its lhs is the callee's
    return value, not a mix of its arguments) can be left only when the path
    arrived on a ReturnOut edge; the start node can always be left."""
    from pdaudit.graph import EdgeKind

    paths: list[list[Loc]] = []
    counter = count()

    def walk(node: Loc, acc: list[Loc], seen: set[Loc], via_ret: bool) -> None:
        if next(counter) > limit:
            raise RuntimeError("path explosion in simple-path enumeration")
        if node == dst:
            paths.append(acc + [node])
            return
        if acc and node in blocked and not via_ret:
            return
        for e in g.succs(node):
            if e.kind in DATA_KINDS and e.dst not in seen:
                walk(
                    e.dst,
                    acc + [node],
                    seen | {e.dst},
                    e.kind is EdgeKind.RETURN_OUT,
                )

    walk(src, [], {src}, True)
    return paths


def blocked_pass_through_locs(p: Program, cg, san) -> frozenset[Loc]:
    """Resolved non-sanitizer call statements, recomputed from scratch."""
    from pdaudit.ir import AssignCall, Call

    out = set()
    for loc, s in p.iter_locs():
        if isinstance(s, (AssignCall, Call)) and s.callee not in san and cg.resolved(loc):
            out.add(loc)
    return frozenset(out)


def program_sink_stmts(p: Program, sinks) -> list[Loc]:
    from pdaudit.ir import AssignCall, Call

    out = []
    for loc, s in p.iter_locs():
        if isinstance(s, (AssignCall, Call)) and sinks.match(s.callee) is not None:
            out.append(loc)
    return out


# ---------------------------------------------------------------------------
# Taint oracles. The statement transfer below is a deliberate, separate
# re-coding of the documented rules; it shares no code with the engine.
# Two fixpoints drive it: all-paths enumeration per method (loop-free
# programs), and a round-robin sweep over every reachable statement.
# ---------------------------------------------------------------------------

PSEUDO, RAW = 1, 2


def _join(dst: dict, src: dict) -> bool:
    ch = False
    for k, v in src.items():
        if dst.get(k, 0) < v:
            dst[k] = v
            ch = True
    return ch


class _Summaries:
    """Boundary facts shared by all statements: each method's entry state
    {(param, sid): status} and returned facts {sid: status}, and the field
    cells {(class, field): {sid: status}}."""

    def __init__(self, p: Program, cg, labels, san):
        from pdaudit.graph import MethodId

        self.cg = cg
        self.san = san
        self.label_at = {l.location: l for l in labels}
        self.params = {MethodId(c.name, m.key): m.params for c, m in p.iter_methods()}
        self.entry = {mid: {} for mid in self.params}
        self.retf = {mid: {} for mid in self.params}
        self.fields: dict[tuple[str, str], dict[int, int]] = {}

    def step(self, s, loc: Loc, state: dict) -> tuple[dict, bool]:
        """The state after s given the state before it, and whether any
        boundary fact grew."""
        from pdaudit.graph import MethodId
        from pdaudit.ir import (
            AssignCall,
            AssignConst,
            AssignCopy,
            AssignFieldLoad,
            Call,
            FieldStore,
            Return,
        )

        changed = False
        if isinstance(s, AssignConst):
            state = {k: v for k, v in state.items() if k[0] != s.lhs}
        elif isinstance(s, AssignCopy):
            moved = {(s.lhs, sid): st for (n, sid), st in state.items() if n == s.rhs}
            state = {k: v for k, v in state.items() if k[0] != s.lhs}
            state.update(moved)
        elif isinstance(s, AssignFieldLoad):
            state = {k: v for k, v in state.items() if k[0] != s.lhs}
            for sid, st in self.fields.get((s.cls, s.fld), {}).items():
                state[(s.lhs, sid)] = st
        elif isinstance(s, FieldStore):
            stored = {sid: st for (n, sid), st in state.items() if n == s.rhs}
            if _join(self.fields.setdefault((s.cls, s.fld), {}), stored):
                changed = True
        elif isinstance(s, Return):
            if s.value is not None:
                returned = {sid: st for (n, sid), st in state.items() if n == s.value}
                if _join(self.retf[MethodId(loc.cls, loc.method)], returned):
                    changed = True
        elif isinstance(s, (AssignCall, Call)):
            per_arg = [{sid: st for (n, sid), st in state.items() if n == a} for a in s.args]
            lhs = s.lhs if isinstance(s, AssignCall) else None
            out_facts: dict[int, int] = {}
            if s.callee in self.san:
                for af in per_arg:
                    for sid in af:
                        out_facts[sid] = PSEUDO
            else:
                targets = self.cg.resolved(loc)
                for t in targets:
                    params = self.params[t]
                    contrib = {}
                    for k, af in enumerate(per_arg):
                        if k < len(params):
                            for sid, st in af.items():
                                kk = (params[k], sid)
                                contrib[kk] = max(contrib.get(kk, 0), st)
                    if _join(self.entry[t], contrib):
                        changed = True
                    _join(out_facts, self.retf[t])
                if not targets:
                    for af in per_arg:
                        _join(out_facts, af)
            if lhs is not None:
                state = {k: v for k, v in state.items() if k[0] != lhs}
                for sid, st in out_facts.items():
                    state[(lhs, sid)] = st
                if loc in self.label_at:
                    state[(lhs, self.label_at[loc].id)] = RAW
        return state, changed


def all_paths_taint(p: Program, cg, labels, san):
    """Before-state facts per statement and field-cell contents, computed by
    brute-force path enumeration per method, iterated over the boundary
    summaries until globally stable. Loop-free programs only."""
    from pdaudit.graph import MethodId

    sums = _Summaries(p, cg, labels, san)
    methods = {}
    for cls, m in p.iter_methods():
        methods[MethodId(cls.name, m.key)] = (cls.name, m, enumerate_cfg_paths(m))

    point: dict[Loc, dict] = {}
    for round_no in range(1000):
        changed = False
        new_point: dict[Loc, dict] = {}
        for mid in sorted(methods):
            cls_name, m, paths = methods[mid]
            for path in paths:
                state = dict(sums.entry[mid])
                for i in path:
                    loc = Loc(cls_name, m.key, i)
                    _join(new_point.setdefault(loc, {}), state)
                    state, grew = sums.step(m.body[i], loc, state)
                    changed |= grew
        if new_point != point:
            point = new_point
            changed = True
        if not changed:
            return point, sums.fields
    raise RuntimeError("taint oracle did not stabilize in 1000 rounds")


def round_robin_taint(p: Program, cg, labels, san):
    """Before- and after-state facts per reachable statement and field-cell
    contents, computed by a dense fixpoint with no worklist: every sweep visits every
    reachable statement of every method in order, and sweeps repeat until
    nothing changes. Handles loops and recursion."""
    from pdaudit.graph import MethodId

    sums = _Summaries(p, cg, labels, san)
    methods = []
    for cls, m in p.iter_methods():
        succs = cfg_successors(m)
        reach = set()
        todo = [0] if m.body else []
        while todo:
            i = todo.pop()
            if i not in reach:
                reach.add(i)
                todo.extend(j for j in succs[i] if j != EXIT)
        preds = {i: [k for k in reach if i in succs[k]] for i in reach}
        methods.append((MethodId(cls.name, m.key), cls.name, m, sorted(reach), preds))

    before: dict[Loc, dict] = {}
    after: dict[Loc, dict] = {}
    for sweep in range(100000):
        changed = False
        for mid, cls_name, m, order, preds in methods:
            for i in order:
                loc = Loc(cls_name, m.key, i)
                state = dict(sums.entry[mid]) if i == 0 else {}
                for k in preds[i]:
                    _join(state, after.get(Loc(cls_name, m.key, k), {}))
                out, grew = sums.step(m.body[i], loc, state)
                if grew or before.get(loc) != state or after.get(loc) != out:
                    before[loc], after[loc] = state, out
                    changed = True
        if not changed:
            return before, after, sums.fields
    raise RuntimeError("round-robin taint oracle did not stabilize")


def expected_all_paths_pseudonymized(g: DepGraph, p: Program, san, cg, flow) -> bool:
    """True when every simple dependence path from the flow's source to its
    sink passes through a sanitizer call at an interior node."""
    from pdaudit.ir import call_parts

    blocked = blocked_pass_through_locs(p, cg, san)
    paths = simple_data_paths(g, flow.source.location, flow.sink.location, blocked)
    assert paths, "a reported flow must have at least one dependence path"

    def interior_sanitized(path):
        for w in path[1:-1]:
            parts = call_parts(p.stmt_at(w))
            if parts is not None and parts[0] in san:
                return True
        return False

    return all(interior_sanitized(path) for path in paths)
