"""Call graph and interprocedural dependence graph construction.

The dependence graph is the substrate for slicing and for taint witness
paths. Nodes are statement locations; edges are typed:

    Data       def-use on locals (reaching definitions, strong kill) and
               field store -> field load pairs
    Control    postdominator-based control dependence
    Call       call site -> callee entry statement
    ParamIn    statement defining an argument -> callee statements that
               read the matching parameter (per parameter index)
    ReturnOut  callee return statement -> call-site statement (the lhs def)

Field cells are one abstract cell per (class, field), with no kill: any
store may be observed by any load, in any method. Methods here are open
entry points invoked repeatedly by the framework, so a load earlier in a
body can legitimately observe a store from a later statement of a previous
invocation; order-insensitive store -> load edges are the sound reading.

Statements unreachable from a method's entry appear as graph nodes but
carry no dependence edges.

Call resolution is class-hierarchy analysis, context-insensitive, keyed on
(method name, arity): a call C.m resolves to the nearest definition in C or
its superclasses plus every override in program subclasses of C; anything
else is an opaque external callee.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .ir import (
    AssignCall,
    AssignFieldLoad,
    Call,
    FieldStore,
    Goto,
    If,
    Loc,
    MethodDef,
    Program,
    Return,
    stmt_defs,
    stmt_uses,
)

EXIT = -1  # synthetic exit index in per-method CFGs
ENTRY_DEF = -1  # definition site of parameters in reaching-definition sets


class EdgeKind(Enum):
    DATA = "Data"
    CONTROL = "Control"
    CALL = "Call"
    PARAM_IN = "ParamIn"
    RETURN_OUT = "ReturnOut"


# Edge kinds along which data values actually move; Control and Call are
# structural only. Witness search and path oracles use this set.
DATA_KINDS = frozenset({EdgeKind.DATA, EdgeKind.PARAM_IN, EdgeKind.RETURN_OUT})


@dataclass(frozen=True)
class DepEdge:
    src: Loc
    dst: Loc
    kind: EdgeKind

    def sort_key(self):
        """Flat (src, dst, kind) key: the same order as comparing the Locs,
        without going through the dataclass comparisons."""
        src, dst = self.src, self.dst
        return (src.cls, src.method, src.index, dst.cls, dst.method, dst.index, self.kind.value)


class DepGraph:
    """Immutable-by-convention dependence graph with cached adjacency."""

    def __init__(self, nodes: frozenset[Loc], edges: frozenset[DepEdge]):
        self.nodes = nodes
        self.edges = edges
        succs: dict[Loc, list[DepEdge]] = {}
        preds: dict[Loc, list[DepEdge]] = {}
        for e in sorted(edges, key=DepEdge.sort_key):
            succs.setdefault(e.src, []).append(e)
            preds.setdefault(e.dst, []).append(e)
        self._succs = {k: tuple(v) for k, v in succs.items()}
        self._preds = {k: tuple(v) for k, v in preds.items()}

    def succs(self, loc: Loc) -> tuple[DepEdge, ...]:
        return self._succs.get(loc, ())

    def preds(self, loc: Loc) -> tuple[DepEdge, ...]:
        return self._preds.get(loc, ())

    def has_edge(self, src: Loc, dst: Loc) -> bool:
        return any(e.dst == dst for e in self.succs(src))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DepGraph)
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"DepGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


# ---------------------------------------------------------------------------
# Per-method CFG
# ---------------------------------------------------------------------------


def cfg_successors(m: MethodDef) -> dict[int, tuple[int, ...]]:
    """CFG successor indices per statement; EXIT for the synthetic exit.

    Falling off the end of the body (no trailing return) exits."""
    succs: dict[int, tuple[int, ...]] = {}
    n = len(m.body)
    for i, s in enumerate(m.body):
        if isinstance(s, Return):
            succs[i] = (EXIT,)
        elif isinstance(s, Goto):
            succs[i] = (s.target,)
        elif isinstance(s, If):
            fall = i + 1 if i + 1 < n else EXIT
            succs[i] = (fall, s.target) if fall != s.target else (fall,)
        else:
            succs[i] = (i + 1 if i + 1 < n else EXIT,)
    return succs


def reachable_indices(m: MethodDef, succs: dict[int, tuple[int, ...]]) -> set[int]:
    """Statements reachable from the entry; `succs` is cfg_successors(m)."""
    if not m.body:
        return set()
    seen = {0}
    work = deque([0])
    while work:
        i = work.popleft()
        for j in succs[i]:
            if j != EXIT and j not in seen:
                seen.add(j)
                work.append(j)
    return seen


# ---------------------------------------------------------------------------
# Call graph (CHA)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class MethodId:
    cls: str
    method: str  # name/arity key

    def __str__(self) -> str:
        return f"{self.cls}.{self.method}"


@dataclass(frozen=True, order=True)
class Opaque:
    signature: str


Target = Union[MethodId, Opaque]


class CallGraph:
    def __init__(self, methods: tuple[MethodId, ...], edges: dict[Loc, tuple[Target, ...]]):
        self.methods = methods
        self.edges = edges

    def targets(self, loc: Loc) -> tuple[Target, ...]:
        return self.edges.get(loc, ())

    def resolved(self, loc: Loc) -> tuple[MethodId, ...]:
        return tuple(t for t in self.targets(loc) if isinstance(t, MethodId))


def build_call_graph(p: Program) -> CallGraph:
    classes = p.class_map()
    defined: dict[tuple[str, str], MethodId] = {}
    for cls in p.classes:
        for m in cls.methods:
            defined[(cls.name, m.key)] = MethodId(cls.name, m.key)

    children: dict[str, list[str]] = {}
    for cls in p.classes:
        if cls.superclass in classes:
            children.setdefault(cls.superclass, []).append(cls.name)

    def subclasses(cls_name: str) -> list[str]:
        out: list[str] = []
        work = deque(children.get(cls_name, ()))
        while work:
            c = work.popleft()
            out.append(c)
            work.extend(children.get(c, ()))
        return out

    def resolve(callee: str, arity: int) -> list[MethodId]:
        owner, _, name = callee.rpartition(".")
        if owner not in classes:
            return []
        key = f"{name}/{arity}"
        targets: set[MethodId] = set()
        c: Optional[str] = owner
        while c is not None and c in classes:
            if (c, key) in defined:
                targets.add(defined[(c, key)])
                break
            c = classes[c].superclass
        for sub in subclasses(owner):
            if (sub, key) in defined:
                targets.add(defined[(sub, key)])
        return sorted(targets)

    edges: dict[Loc, tuple[Target, ...]] = {}
    for loc, stmt in p.iter_locs():
        if not isinstance(stmt, (AssignCall, Call)):
            continue
        resolved = resolve(stmt.callee, len(stmt.args))
        if resolved:
            edges[loc] = tuple(resolved)
        else:
            edges[loc] = (Opaque(stmt.callee),)

    methods = tuple(sorted(defined.values()))
    return CallGraph(methods, edges)


# ---------------------------------------------------------------------------
# Reaching definitions (locals)
# ---------------------------------------------------------------------------


class _MethodFacts:
    """CFG successors, reachable set and reaching definitions for one
    method, computed once and shared by the data, control and
    interprocedural edge builders."""

    def __init__(self, cls_name: str, m: MethodDef):
        self.cls = cls_name
        self.m = m
        self.succs = cfg_successors(m)
        self.reachable = reachable_indices(m, self.succs)
        preds: dict[int, list[int]] = {i: [] for i in range(len(m.body))}
        for i in self.reachable:
            for j in self.succs[i]:
                if j != EXIT:
                    preds[j].append(i)
        entry: frozenset[tuple[str, int]] = frozenset((v, ENTRY_DEF) for v in m.params)
        self.before: dict[int, frozenset[tuple[str, int]]] = {}
        out: dict[int, frozenset[tuple[str, int]]] = {}
        work = deque(sorted(self.reachable))
        while work:
            i = work.popleft()
            acc: set[tuple[str, int]] = set(entry) if i == 0 else set()
            for pr in preds[i]:
                acc |= out.get(pr, frozenset())
            inn = frozenset(acc)
            self.before[i] = inn
            d = stmt_defs(m.body[i])
            if d is None:
                new_out = inn
            else:
                new_out = frozenset({(v, s) for (v, s) in inn if v != d} | {(d, i)})
            if new_out != out.get(i):
                out[i] = new_out
                for j in self.succs[i]:
                    if j != EXIT:
                        work.append(j)

    def loc(self, i: int) -> Loc:
        return Loc(self.cls, self.m.key, i)

    def real_defs(self, local: str, at: int) -> list[int]:
        return sorted(s for (v, s) in self.before.get(at, ()) if v == local and s != ENTRY_DEF)

    def entry_def_reaches(self, local: str, at: int) -> bool:
        return (local, ENTRY_DEF) in self.before.get(at, ())

    def param_uses(self, param: str) -> list[int]:
        """Reachable statements reading `param` under its entry definition."""
        return [
            i
            for i in sorted(self.reachable)
            if param in stmt_uses(self.m.body[i]) and self.entry_def_reaches(param, i)
        ]


def _field_sites(cls_name: str, m: MethodDef, reachable: set[int]):
    stores: list[tuple[tuple[str, str], Loc]] = []
    loads: list[tuple[tuple[str, str], Loc]] = []
    for i in sorted(reachable):
        s = m.body[i]
        if isinstance(s, FieldStore):
            stores.append(((s.cls, s.fld), Loc(cls_name, m.key, i)))
        elif isinstance(s, AssignFieldLoad):
            loads.append(((s.cls, s.fld), Loc(cls_name, m.key, i)))
    return stores, loads


def data_deps(cls_name: str, m: MethodDef, facts: Optional[_MethodFacts] = None) -> set[DepEdge]:
    """Intra-method Data edges: local def-use plus field store -> load.

    `facts`, when given, must be the method's own _MethodFacts."""
    if facts is None:
        facts = _MethodFacts(cls_name, m)
    edges: set[DepEdge] = set()
    for i in sorted(facts.reachable):
        for v in stmt_uses(m.body[i]):
            for d in facts.real_defs(v, i):
                edges.add(DepEdge(facts.loc(d), facts.loc(i), EdgeKind.DATA))
    stores, loads = _field_sites(cls_name, m, facts.reachable)
    for cell_s, sloc in stores:
        for cell_l, lloc in loads:
            if cell_s == cell_l:
                edges.add(DepEdge(sloc, lloc, EdgeKind.DATA))
    return edges


# ---------------------------------------------------------------------------
# Control dependence
# ---------------------------------------------------------------------------


def _postdominators(m: MethodDef, succs: dict[int, tuple[int, ...]]) -> dict[int, Optional[int]]:
    """Immediate postdominator per statement index (EXIT as virtual root).

    Cooper-Harvey-Kennedy on the reversed CFG, `succs` being
    cfg_successors(m). Statements that cannot reach the exit have no
    postdominator (None)."""
    nodes = list(range(len(m.body))) + [EXIT]
    rpreds: dict[int, list[int]] = {n: [] for n in nodes}  # reversed preds = CFG succs
    for i in range(len(m.body)):
        for j in succs[i]:
            rpreds[i].append(j)
    rsuccs: dict[int, list[int]] = {n: [] for n in nodes}  # reversed succs = CFG preds
    for i in range(len(m.body)):
        for j in succs[i]:
            rsuccs[j].append(i)

    # Reverse postorder of the reversed CFG from EXIT.
    order: list[int] = []
    seen = {EXIT}
    stack: list[tuple[int, int]] = [(EXIT, 0)]
    while stack:
        n, k = stack[-1]
        if k < len(rsuccs[n]):
            stack[-1] = (n, k + 1)
            nxt = rsuccs[n][k]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            stack.pop()
            order.append(n)
    order.reverse()
    rpo_num = {n: k for k, n in enumerate(order)}

    ipdom: dict[int, Optional[int]] = {n: None for n in nodes}
    ipdom[EXIT] = EXIT

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_num[a] > rpo_num[b]:
                a = ipdom[a]  # type: ignore[assignment]
            while rpo_num[b] > rpo_num[a]:
                b = ipdom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for n in order:
            if n == EXIT:
                continue
            new: Optional[int] = None
            for p in rpreds[n]:
                if p in rpo_num and ipdom[p] is not None:
                    new = p if new is None else intersect(p, new)
            if new is not None and ipdom[n] != new:
                ipdom[n] = new
                changed = True
    ipdom[EXIT] = None  # the virtual root has no postdominator
    return ipdom


def control_deps(cls_name: str, m: MethodDef, facts: Optional[_MethodFacts] = None) -> set[DepEdge]:
    """Control edges branch -> dependent statement.

    s is control-dependent on branch b when some CFG successor path from b
    reaches s without passing b's immediate postdominator. `facts`, when
    given, must be the method's own _MethodFacts; its CFG is reused."""
    edges: set[DepEdge] = set()
    if facts is None:
        succs = cfg_successors(m)
        reachable = reachable_indices(m, succs)
    else:
        reachable, succs = facts.reachable, facts.succs
    branches = [i for i in sorted(reachable) if isinstance(m.body[i], If)]
    if not branches:
        return edges
    ipdom = _postdominators(m, succs)
    for b in branches:
        stop = ipdom[b]
        for s in succs[b]:
            runner: Optional[int] = s
            guard = len(m.body) + 2
            while runner is not None and runner != EXIT and runner != stop and guard > 0:
                edges.add(DepEdge(Loc(cls_name, m.key, b), Loc(cls_name, m.key, runner), EdgeKind.CONTROL))
                runner = ipdom[runner]
                guard -= 1
    return edges


# ---------------------------------------------------------------------------
# Whole-program dependence graph
# ---------------------------------------------------------------------------


def build_pdg(p: Program, cg: CallGraph) -> DepGraph:
    """Union of per-method data/control edges plus interprocedural edges.

    Every statement location is a node. Construction iterates methods in
    sorted order, so the result is independent of source class order."""
    nodes: set[Loc] = set()
    edges: set[DepEdge] = set()
    facts: dict[MethodId, _MethodFacts] = {}
    method_defs: dict[MethodId, MethodDef] = {}

    for cls, m in p.iter_methods():
        mid = MethodId(cls.name, m.key)
        method_defs[mid] = m
        f = facts[mid] = _MethodFacts(cls.name, m)
        for i in range(len(m.body)):
            nodes.add(Loc(cls.name, m.key, i))
        edges |= data_deps(cls.name, m, f)
        edges |= control_deps(cls.name, m, f)

    # Field cells: program-wide store -> load, order-insensitive.
    all_stores: dict[tuple[str, str], list[Loc]] = {}
    all_loads: dict[tuple[str, str], list[Loc]] = {}
    for cls, m in p.iter_methods():
        stores, loads = _field_sites(cls.name, m, facts[MethodId(cls.name, m.key)].reachable)
        for cell, loc in stores:
            all_stores.setdefault(cell, []).append(loc)
        for cell, loc in loads:
            all_loads.setdefault(cell, []).append(loc)
    for cell, slocs in all_stores.items():
        for sloc in slocs:
            for lloc in all_loads.get(cell, ()):
                edges.add(DepEdge(sloc, lloc, EdgeKind.DATA))

    # Resolved call sites, in deterministic order.
    call_sites: list[tuple[Loc, MethodId, tuple[str, ...], bool]] = []
    for mid in sorted(facts):
        f = facts[mid]
        for i in sorted(f.reachable):
            s = f.m.body[i]
            if not isinstance(s, (AssignCall, Call)):
                continue
            loc = f.loc(i)
            for t in cg.resolved(loc):
                call_sites.append((loc, t, s.args, isinstance(s, AssignCall)))

    # Call edges: call site -> callee entry statement.
    for loc, t, _, _ in call_sites:
        if method_defs[t].body:
            edges.add(DepEdge(loc, Loc(t.cls, t.method, 0), EdgeKind.CALL))

    # Feeders: for each (callee, param index), the statements whose defined
    # value can enter that parameter, chasing parameter-to-parameter
    # pass-through across call sites to a fixpoint.
    feed: dict[tuple[MethodId, int], set[Loc]] = {}
    passthrough: dict[tuple[MethodId, int], set[tuple[MethodId, int]]] = {}
    for loc, t, args, _ in call_sites:
        caller = MethodId(loc.cls, loc.method)
        f = facts[caller]
        for i, a in enumerate(args):
            key = (t, i)
            feed.setdefault(key, set()).update(f.loc(d) for d in f.real_defs(a, loc.index))
            if f.entry_def_reaches(a, loc.index) and a in f.m.params:
                j = f.m.params.index(a)
                passthrough.setdefault((caller, j), set()).add(key)
    changed = True
    while changed:
        changed = False
        for src_key, dst_keys in passthrough.items():
            src_feed = feed.get(src_key, set())
            for dst_key in dst_keys:
                cur = feed.setdefault(dst_key, set())
                if not src_feed <= cur:
                    cur |= src_feed
                    changed = True

    # ParamIn edges: feeder def site -> callee statements reading the param.
    for (t, i), sources in feed.items():
        params = method_defs[t].params
        if i >= len(params):
            continue
        for u in facts[t].param_uses(params[i]):
            for src in sources:
                edges.add(DepEdge(src, facts[t].loc(u), EdgeKind.PARAM_IN))

    # ReturnOut edges: value-returning statements -> call sites with a lhs.
    for loc, t, _, has_lhs in call_sites:
        if not has_lhs:
            continue
        tf = facts[t]
        for i in sorted(tf.reachable):
            s = method_defs[t].body[i]
            if isinstance(s, Return) and s.value is not None:
                edges.add(DepEdge(tf.loc(i), loc, EdgeKind.RETURN_OUT))

    return DepGraph(frozenset(nodes), frozenset(edges))
