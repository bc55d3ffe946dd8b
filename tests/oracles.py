"""Brute-force oracles, independent of the implementations they check.

Everything here recomputes results the slow, obvious way: explicit path
enumeration and chaotic iteration. Nothing imports from the algorithmic
internals under test beyond public data types and the packed edge format
that DepGraph's constructor takes.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from itertools import count
from typing import Optional

from pdaudit.graph import (
    _KIND_BITS,
    ENTRY_DEF,
    EXIT,
    KINDS,
    DepEdge,
    DepGraph,
    EdgeKind,
)
from pdaudit.ir import (
    AssignConst,
    AssignCopy,
    AssignFieldLoad,
    Call,
    ClassDef,
    DuplicateClassError,
    FieldStore,
    Goto,
    If,
    InvalidTargetError,
    Loc,
    MethodDef,
    ParseError,
    Program,
    Return,
    Stmt,
    stmt_defs,
    stmt_uses,
)
from pdaudit.report import AuditReport
from pdaudit.taint import Status


# Edge kinds along which data values actually move; Control and Call are
# structural only.
DATA_KINDS = frozenset({EdgeKind.DATA, EdgeKind.PARAM_IN, EdgeKind.RETURN_OUT})


def explicit_graph(stmts: dict[Loc, Optional[Stmt]], edges: frozenset[DepEdge]) -> DepGraph:
    """The cell-free reference graph: the nodes are stmts' keys, each with
    its statement (None stands in for graphs that render no DOT), and the
    edges exactly these, field store -> load pairs included, all packed as
    explicit edges into DepGraph's one constructor with no field cells.

    The graph's nodes and edges are checked against the inputs before it is
    returned, so an oracle reading g.locs or g.edges reads the given sets."""
    locs = sorted(stmts)
    index = {loc: i for i, loc in enumerate(locs)}
    src, dst = array("q"), array("q")
    for e in edges:
        assert e.src in index and e.dst in index, f"edge endpoint is not a node: {e}"
        src.append(index[e.src])
        dst.append(index[e.dst] << _KIND_BITS | KINDS.index(e.kind))
    g = DepGraph(locs, [stmts[loc] for loc in locs], src, dst, [])
    assert set(g.locs) == set(stmts), "DepGraph lost or added a node"
    assert g.edges == set(edges), "DepGraph lost, added or re-kinded an edge"
    return g


_DOT_QSTR = r'"(?:[^"\\]|\\.)*"'
_DOT_CELL_NODE = re.compile(rf'  ({_DOT_QSTR}) \[label={_DOT_QSTR}, shape=cylinder, kind="field"\];')
_DOT_EDGE = re.compile(rf'  ({_DOT_QSTR}) -> ({_DOT_QSTR}) \[label="(\w+)"\];')


def expand_cell_nodes(dot: str) -> str:
    """dot with every field-cell node (shape=cylinder, kind="field")
    replaced by the store -> load Data edges it stands for. The cell's node
    line and its cell -> load edges go; each store -> cell edge becomes one
    store -> load edge per cell -> load edge, in their order, written where
    the store -> cell edge stood. Every other line stays as it is."""
    lines = dot.splitlines()
    cells = {m[1] for ln in lines if (m := _DOT_CELL_NODE.fullmatch(ln))}
    edges = [_DOT_EDGE.fullmatch(ln) for ln in lines]
    touching = [m for m in edges if m and (m[1] in cells or m[2] in cells)]
    assert all(m[3] == "Data" and not (m[1] in cells and m[2] in cells) for m in touching)
    loads = {c: [m[2] for m in touching if m[1] == c] for c in cells}
    out = []
    for ln, m in zip(lines, edges):
        if m is None:
            if not _DOT_CELL_NODE.fullmatch(ln):
                out.append(ln)
        elif m[2] in cells:
            out += [f'  {m[1]} -> {load} [label="Data"];' for load in loads[m[2]]]
        elif m[1] not in cells:
            out.append(ln)
    return "\n".join(out) + "\n"


def successors(m: MethodDef) -> dict[int, tuple[int, ...]]:
    """The CFG successors of each statement of m, read off the grammar: a
    return goes to the exit (EXIT), a goto to its target, an if to the next
    statement and then its target (once when the two are the same), and any
    other statement to the next one. Past the last statement is the exit."""
    out: dict[int, tuple[int, ...]] = {}
    for i, s in enumerate(m.body):
        nxt = EXIT if i == len(m.body) - 1 else i + 1
        if isinstance(s, Return):
            out[i] = (EXIT,)
        elif isinstance(s, Goto):
            out[i] = (s.target,)
        elif isinstance(s, If) and s.target != nxt:
            out[i] = (nxt, s.target)
        else:
            out[i] = (nxt,)
    return out


def enumerate_cfg_paths(m: MethodDef, limit: int = 200000) -> list[list[int]]:
    """All entry-to-exit paths of a loop-free method body."""
    if not m.body:
        return [[]]
    succs = successors(m)
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


def reaching_defs_by_search(m: MethodDef) -> dict[int, set[tuple[str, int]]]:
    """The (local, definition index) pairs reaching each statement of m
    reachable from the entry, keyed by those statements, by one search per
    definition. A definition of v at a reachable statement d reaches i when
    some CFG path leads from d to i with no other definition of v strictly
    between; a parameter's entry value (index ENTRY_DEF) reaches i when
    some path from the entry does."""
    succs = successors(m)
    reachable = {0} if m.body else set()
    work = list(reachable)
    while work:
        for j in succs[work.pop()]:
            if j != EXIT and j not in reachable:
                reachable.add(j)
                work.append(j)
    reaching: dict[int, set[tuple[str, int]]] = {i: set() for i in reachable}

    def search(v: str, d: int, starts) -> None:
        seen: set[int] = set()
        work = [j for j in starts if j != EXIT]
        while work:
            j = work.pop()
            if j not in seen:
                seen.add(j)
                reaching[j].add((v, d))
                if stmt_defs(m.body[j]) != v:
                    work += [k for k in succs[j] if k != EXIT]

    for v in set(m.params):
        search(v, ENTRY_DEF, reachable & {0})
    for d in reachable:
        v = stmt_defs(m.body[d])
        if v is not None:
            search(v, d, succs[d])
    return reaching


def _reaches_exit(succs: dict[int, tuple[int, ...]], i: int, deleted: Optional[int] = None) -> bool:
    """Whether some CFG path leads from statement i to the exit without
    passing through statement deleted."""
    seen = {i}
    work = [i]
    while work:
        for j in succs[work.pop()]:
            if j == EXIT:
                return True
            if j != deleted and j not in seen:
                seen.add(j)
                work.append(j)
    return False


def exit_unreachable(m: MethodDef) -> set[int]:
    """The statements of m from which no CFG path reaches the exit."""
    succs = successors(m)
    return {i for i in range(len(m.body)) if not _reaches_exit(succs, i)}


def brute_control_pairs(m: MethodDef) -> set[tuple[int, int]]:
    """(branch index, dependent index) of each control dependence in m, by
    deletion: j postdominates i when i = j, or when i reaches the exit and
    deleting j cuts i off from it. A statement that cannot reach the exit is
    postdominated by itself alone. j depends on a branch b reachable from
    the entry when j postdominates a successor of b and does not strictly
    postdominate b (Ferrante, Ottenstein and Warren, TOPLAS 1987)."""
    succs = successors(m)
    n = len(m.body)

    def pdom(i: int) -> set[int]:
        if not _reaches_exit(succs, i):
            return {i}
        return {i} | {j for j in range(n) if j != i and not _reaches_exit(succs, i, deleted=j)}

    reachable = {0} if n else set()
    work = list(reachable)
    while work:
        for j in succs[work.pop()]:
            if j != EXIT and j not in reachable:
                reachable.add(j)
                work.append(j)
    pairs: set[tuple[int, int]] = set()
    for b in reachable:
        if isinstance(m.body[b], If):
            strict = pdom(b) - {b}
            for s in succs[b]:
                if s != EXIT:
                    pairs.update((b, j) for j in pdom(s) - strict)
    return pairs


def _set_bits(x: int) -> list[int]:
    """The positions of the set bits of x >= 0, lowest first."""
    return [k for k in range(x.bit_length()) if x >> k & 1]


def multi_pass_facts(m: MethodDef) -> dict:
    """What graph._MethodFacts(m) holds, by name, computed with a pass per
    question: successors from successors(m), the definitions from
    stmt_defs, a worklist pass for the reaching definitions, and one walk
    over the reachable statements that classifies each statement with
    isinstance, reads its uses with stmt_uses and each reaching definition
    off its bit set. The control pairs are brute_control_pairs', in
    (branch, dependent) order."""
    body = m.body
    succs = successors(m)
    defs = [(v, ENTRY_DEF) for v in dict.fromkeys(m.params)]
    n_params = len(defs)
    defs += [(v, i) for i, s in enumerate(body) if (v := stmt_defs(s)) is not None]
    of_local: dict[str, int] = {}
    for k, (v, _) in enumerate(defs):
        of_local[v] = of_local.get(v, 0) | 1 << k
    gen = [(-1, 0)] * len(body)
    for k, (v, i) in enumerate(defs[n_params:], n_params):
        gen[i] = (~of_local[v], 1 << k)

    before = {0: (1 << n_params) - 1} if body else {}
    work = list(before)
    while work:
        i = work.pop()
        keep, own = gen[i]
        out = before[i] & keep | own
        for j in succs[i]:
            if j != EXIT:
                old = before.get(j)
                new = out if old is None else old | out
                if new != old:
                    before[j] = new
                    work.append(j)

    facts: dict = {"defs": defs, "before": before, "use_defs": {}, "def_uses": {},
                   "entry_uses": {}, "loads": {}, "stores": {}, "returns": [], "calls": {}}
    for i in sorted(before):
        s = body[i]
        if isinstance(s, AssignFieldLoad):
            facts["loads"].setdefault((s.cls, s.fld), []).append(i)
        elif isinstance(s, FieldStore):
            facts["stores"].setdefault((s.cls, s.fld), []).append(i)
        elif isinstance(s, Return):
            if s.value is not None:
                facts["returns"].append(i)
        elif isinstance(s, Call):
            facts["calls"][i] = ()
        uses = stmt_uses(s)
        if not uses:
            continue
        union, per_use = 0, []
        for v in uses:
            bits = before[i] & of_local.get(v, 0)
            union |= bits
            per_use.append(tuple(defs[k][1] for k in _set_bits(bits)))
        facts["use_defs"][i] = tuple(per_use)
        for k in _set_bits(union):
            v, d = defs[k]
            if d == ENTRY_DEF:
                facts["entry_uses"].setdefault(v, []).append(i)
            else:
                facts["def_uses"].setdefault(d, []).append(i)
    facts["control"] = tuple(sorted(brute_control_pairs(m)))
    return facts


def naive_closure(g: DepGraph, root: Loc) -> set[Loc]:
    """Forward transitive closure by chaotic iteration over the edge set."""
    if root not in g.locs:
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
    succs: dict[Loc, list[DepEdge]] = {}
    for e in g.edges:
        if e.kind in DATA_KINDS:
            succs.setdefault(e.src, []).append(e)
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
        for e in succs.get(node, ()):
            if e.dst not in seen:
                walk(
                    e.dst,
                    acc + [node],
                    seen | {e.dst},
                    e.kind is EdgeKind.RETURN_OUT,
                )

    walk(src, [], {src}, True)
    return paths


def shortest_witness(
    g: DepGraph,
    src: Loc,
    dst: Loc,
    blocked: frozenset[Loc] = frozenset(),
    stopped: frozenset[Loc] = frozenset(),
) -> Optional[list[Loc]]:
    """The minimum, by (length, Loc sequence), of the valid paths src -> dst
    over data-carrying edges, or None when there is none.

    Validity is simple_data_paths': a blocked node can be left only when
    the path arrived on a ReturnOut edge, a stopped node never, and the
    start, taken as arrived so, can always be left. Walks are taken one step longer at a time,
    keeping for each (node, arrived via ReturnOut) state the least walk of
    exactly that many steps to it; extending the least walk to a state keeps it least, since
    equal-length walks compare by their first difference. A shortest valid
    walk repeats no node: it left the node at its first visit, and which
    edges it may take out of a node it can leave does not depend on how
    it arrived, so cutting the loop between two visits leaves a shorter
    valid walk. So the result is also the least of the shortest paths of
    simple_data_paths, and walks as long as there are states suffice."""
    succs: dict[Loc, list[DepEdge]] = {}
    for e in g.edges:
        if e.kind in DATA_KINDS:
            succs.setdefault(e.src, []).append(e)
    least: dict[tuple[Loc, bool], tuple[Loc, ...]] = {(src, True): (src,)}
    for _ in range(2 * len(g.locs)):
        done = [w for (node, _), w in least.items() if node == dst]
        if done:
            return list(min(done))
        longer: dict[tuple[Loc, bool], tuple[Loc, ...]] = {}
        for (node, via_ret), walk in least.items():
            if walk != (src,) and (node in stopped or node in blocked and not via_ret):
                continue
            for e in succs.get(node, ()):
                state = (e.dst, e.kind is EdgeKind.RETURN_OUT)
                if state not in longer or walk + (e.dst,) < longer[state]:
                    longer[state] = walk + (e.dst,)
        least = longer
    return None


def blocked_pass_through_locs(p: Program, cg, san) -> frozenset[Loc]:
    """Resolved non-sanitizer call statements, recomputed from scratch."""
    from pdaudit.ir import Call

    out = set()
    for loc, s in p.iter_locs():
        if isinstance(s, Call) and s.callee not in san and cg.resolved(loc):
            out.add(loc)
    return frozenset(out)


def program_sink_stmts(p: Program, sinks) -> list[Loc]:
    from pdaudit.ir import Call

    out = []
    for loc, s in p.iter_locs():
        if isinstance(s, Call) and sinks.match(s.callee) is not None:
            out.append(loc)
    return out


# ---------------------------------------------------------------------------
# Taint oracles. The statement transfer below is a deliberate, separate
# re-coding of the documented rules as facts over program states; it shares
# no code with the dependence graph, where pdaudit states them as edges.
# Two fixpoints drive it: all-paths enumeration per method (loop-free
# programs), and a round-robin sweep over every reachable statement.
# sink_facts turns their facts into the flows pdaudit must report.
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
        elif isinstance(s, Call):
            per_arg = [{sid: st for (n, sid), st in state.items() if n == a} for a in s.args]
            lhs = s.lhs
            out_facts: dict[int, int] = {}
            targets = self.cg.resolved(loc)
            for t in targets:  # a sanitizer's body receives its arguments too
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
            if s.callee in self.san:  # over its arguments and the callee's returns
                for af in per_arg:
                    _join(out_facts, af)
                out_facts = dict.fromkeys(out_facts, PSEUDO)
            elif not targets:
                for af in per_arg:
                    _join(out_facts, af)
            if lhs is not None:
                state = {k: v for k, v in state.items() if k[0] != lhs}
                for sid, st in out_facts.items():
                    state[(lhs, sid)] = st
                if loc in self.label_at:
                    state[(lhs, self.label_at[loc].id)] = RAW
        return state, changed


def sink_facts(p: Program, before: dict, sinks) -> set[tuple[Loc, int, int]]:
    """(sink Loc, source id, status) for each sink statement of p and each
    source id with a fact on one of its arguments in before, the oracles'
    before-state facts; status is the join over the arguments."""
    stmt_at = dict(p.iter_locs())
    out: dict[tuple[Loc, int], int] = {}
    for loc in program_sink_stmts(p, sinks):
        for (name, sid), st in before.get(loc, {}).items():
            if name in stmt_at[loc].args:
                out[(loc, sid)] = max(out.get((loc, sid), 0), st)
    return {(loc, sid, st) for (loc, sid), st in out.items()}


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
        succs = successors(m)
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
    from pdaudit.ir import Call

    blocked = blocked_pass_through_locs(p, cg, san)
    paths = simple_data_paths(g, flow.source.location, flow.sink.location, blocked)
    assert paths, "a reported flow must have at least one dependence path"
    stmt_at = dict(p.iter_locs())

    def interior_sanitized(path):
        for w in path[1:-1]:
            s = stmt_at[w]
            if isinstance(s, Call) and s.callee in san:
                return True
        return False

    return all(interior_sanitized(path) for path in paths)


# ---------------------------------------------------------------------------
# Reference PIR parser: a per-character lexer building one token object per
# token, and a recursive-descent parser reading them through a cursor
# property. It defines the grammar, the errors and every position that
# parse_program must reproduce.
# ---------------------------------------------------------------------------

_PUNCT = set("{}()=:;,.@")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_PNUM_RE = re.compile(r"p[0-9]+\Z")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # word | local | int | string | punct | eof
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in _PUNCT:
            toks.append(_Tok("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "$":
            m = _WORD_RE.match(text, i + 1)
            if not m:
                raise ParseError(start_line, start_col, "identifier after '$'")
            toks.append(_Tok("local", "$" + m.group(), start_line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        if ch == '"':
            buf = []
            j = i + 1
            while True:
                if j >= n or text[j] == "\n":
                    raise ParseError(start_line, start_col, "closing '\"'")
                c = text[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n or text[j + 1] not in _ESCAPES:
                        raise ParseError(line, start_col + (j - i), "string escape")
                    buf.append(_ESCAPES[text[j + 1]])
                    j += 2
                    continue
                buf.append(c)
                j += 1
            toks.append(_Tok("string", "".join(buf), start_line, start_col))
            col += j - i
            i = j
            continue
        m = _INT_RE.match(text, i)
        if m:
            toks.append(_Tok("int", m.group(), start_line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        m = _WORD_RE.match(text, i)
        if m:
            toks.append(_Tok("word", m.group(), start_line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        raise ParseError(start_line, start_col, "token")
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def error(self, expected: str) -> ParseError:
        return ParseError(self.cur.line, self.cur.col, expected)

    def advance(self) -> _Tok:
        t = self.cur
        self.pos += 1
        return t

    def at_word(self, w: str) -> bool:
        return self.cur.kind == "word" and self.cur.value == w

    def expect_word(self, w: str) -> _Tok:
        if not self.at_word(w):
            raise self.error(f"'{w}'")
        return self.advance()

    def at_punct(self, c: str) -> bool:
        return self.cur.kind == "punct" and self.cur.value == c

    def expect_punct(self, c: str) -> _Tok:
        if not self.at_punct(c):
            raise self.error(f"'{c}'")
        return self.advance()

    def ident(self, what: str = "identifier") -> str:
        if self.cur.kind != "word":
            raise self.error(what)
        return self.advance().value

    def qname(self) -> str:
        parts = [self.ident("qualified name")]
        while self.at_punct("."):
            self.advance()
            parts.append(self.ident("identifier after '.'"))
        return ".".join(parts)

    def dotted_ref(self) -> tuple[str, str]:
        """QNAME '.' IDENT split into (owner, member): the final component
        is the member, everything before it the owner."""
        parts = [self.ident("qualified name")]
        while self.at_punct("."):
            self.advance()
            parts.append(self.ident("identifier after '.'"))
        if len(parts) < 2:
            raise self.error("'.'")
        return ".".join(parts[:-1]), parts[-1]

    def at_local(self) -> bool:
        if self.cur.kind == "local":
            return True
        return self.cur.kind == "word" and bool(_PNUM_RE.match(self.cur.value))

    def local(self) -> str:
        if not self.at_local():
            raise self.error("local ('$name' or 'pN')")
        return self.advance().value

    def index(self) -> int:
        if self.cur.kind != "int":
            raise self.error("statement index")
        return int(self.advance().value)

    # -- grammar productions ------------------------------------------------

    def program(self) -> Program:
        classes: list[ClassDef] = []
        seen: set[str] = set()
        while self.cur.kind != "eof":
            c = self.classdef()
            if c.name in seen:
                raise DuplicateClassError(c.name)
            seen.add(c.name)
            classes.append(c)
        return Program(classes)

    def classdef(self) -> ClassDef:
        t = self.expect_word("class")
        name = self.qname()
        self.expect_word("extends")
        superclass = self.qname()
        self.expect_punct("{")
        fields: list[tuple[str, str]] = []
        methods: list[MethodDef] = []
        while self.at_word("field"):
            self.advance()
            type_name = self.qname()
            fname = self.ident("field name")
            self.expect_punct(";")
            fields.append((fname, type_name))
        while self.at_word("method"):
            methods.append(self.methoddef(name))
        self.expect_punct("}")
        return ClassDef(name, superclass, fields, methods, line=t.line, col=t.col)

    def methoddef(self, cls_name: str) -> MethodDef:
        t = self.expect_word("method")
        return_type = self.qname()
        name = self.ident("method name")
        self.expect_punct("(")
        params: list[str] = []
        if not self.at_punct(")"):
            params.append(self.local())
            while self.at_punct(","):
                self.advance()
                params.append(self.local())
        self.expect_punct(")")
        self.expect_punct("{")
        body: list[Stmt] = []
        while not self.at_punct("}"):
            body.append(self.stmt(len(body)))
        self.expect_punct("}")
        method = MethodDef(name, return_type, tuple(params), body, line=t.line, col=t.col)
        for s in body:
            if isinstance(s, (If, Goto)) and not (0 <= s.target < len(body)):
                raise InvalidTargetError(f"{cls_name}.{method.key}", s.target)
        return method

    def stmt(self, expected_index: int) -> Stmt:
        t = self.cur
        idx = self.index()
        if idx != expected_index:
            raise ParseError(t.line, t.col, f"statement index {expected_index}")
        self.expect_punct(":")
        s = self.body()
        s.line, s.col = t.line, t.col
        return s

    def body(self) -> Stmt:
        if self.at_word("store"):
            self.advance()
            cls, fld = self.dotted_ref()
            self.expect_punct("=")
            return FieldStore(cls, fld, self.local())
        if self.at_word("call"):
            callee, args, widget = self.callexpr()
            return Call(callee, args, widget)
        if self.at_word("if"):
            self.advance()
            cond = self.local()
            self.expect_word("goto")
            return If(cond, self.index())
        if self.at_word("goto"):
            self.advance()
            return Goto(self.index())
        if self.at_word("return"):
            self.advance()
            return Return(self.local() if self.at_local() else None)
        if self.at_local():
            lhs = self.local()
            self.expect_punct("=")
            if self.cur.kind == "string":
                return AssignConst(lhs, self.advance().value)
            if self.at_word("load"):
                self.advance()
                cls, fld = self.dotted_ref()
                return AssignFieldLoad(lhs, cls, fld)
            if self.at_word("call"):
                callee, args, widget = self.callexpr()
                return Call(callee, args, widget, lhs=lhs)
            if self.at_local():
                return AssignCopy(lhs, self.local())
            raise self.error("literal, local, 'load' or 'call'")
        raise self.error("statement")

    def callexpr(self) -> tuple[str, tuple[str, ...], Optional[str]]:
        self.expect_word("call")
        owner, member = self.dotted_ref()
        self.expect_punct("(")
        args: list[str] = []
        if not self.at_punct(")"):
            args.append(self.local())
            while self.at_punct(","):
                self.advance()
                args.append(self.local())
        self.expect_punct(")")
        widget: Optional[str] = None
        if self.at_punct("@"):
            self.advance()
            self.expect_word("widget")
            self.expect_punct("(")
            if self.cur.kind != "string":
                raise self.error("widget string")
            widget = self.advance().value
            self.expect_punct(")")
        return f"{owner}.{member}", tuple(args), widget


def reference_parse(text: str) -> Program:
    """parse_program for str input, the slow, obvious way."""
    return _Parser(_lex(text)).program()


# ---------------------------------------------------------------------------
# The report's JSON form, built as plain dicts
# ---------------------------------------------------------------------------


def _loc_dict(loc: Loc) -> dict:
    return {"class": loc.cls, "method": loc.method, "index": loc.index}


def _label_dict(label) -> dict:
    origin: dict = {"kind": label.origin.kind}
    if label.origin.kind == "UserInput":
        origin["widget"] = label.origin.widget
        origin["keyword"] = label.origin.keyword
    return {
        "id": label.id,
        "location": _loc_dict(label.location),
        "category": label.category.name,
        "origin": origin,
    }


def _statement_dict(st) -> dict:
    if st.provenance[0] == "flow":
        prov = {"kind": "flow", "source": st.provenance[1], "sink": _loc_dict(st.provenance[2])}
    else:
        prov = {"kind": "collection", "label": st.provenance[1]}
    return {
        "personal_data": st.personal_data,
        "processing": st.processing,
        "recipient": st.recipient,
        "measures": list(st.measures),
        "status": "Pseudonymized" if st.status is Status.PSEUDONYMIZED else "Raw",
        "provenance": prov,
    }


def _finding_dict(f) -> dict:
    out: dict = {"id": f.id, "kind": f.kind.value, "risk": f.risk, "source": _label_dict(f.source)}
    if f.flow is not None:
        sink = f.flow.sink
        out["sink"] = {"location": _loc_dict(sink.location), "kind": sink.kind.value,
                       "name": sink.name}
        out["witness"] = [_loc_dict(w) for w in f.flow.witness]
        out["manipulations"] = list(f.flow.manipulations)
    else:
        out["sink"] = out["witness"] = out["manipulations"] = None
    out["statement"] = _statement_dict(f.statement)
    return out


def report_dict(r: AuditReport) -> dict:
    """The dict whose ``json.dumps(indent=2, ensure_ascii=False)`` plus a
    newline is report.json: the spec serialize_report writes to. The
    statements list holds each finding's statement, in finding order."""
    findings = [_finding_dict(f) for f in r.findings]
    return {
        "version": {"schema": 1, "tool": r.tool_version},
        "input_digest": r.input_digest,
        "assumptions": list(r.assumptions),
        "findings": findings,
        "slices": r.slices,
        "data_safety": r.data_safety,
        "statements": [f["statement"] for f in findings],
    }
