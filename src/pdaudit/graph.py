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
from typing import Iterator, Optional, Union

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
        self._resolved: dict[Loc, tuple[MethodId, ...]] = {}
        for loc, ts in edges.items():
            resolved = tuple(t for t in ts if isinstance(t, MethodId))
            if resolved:
                self._resolved[loc] = resolved

    def targets(self, loc: Loc) -> tuple[Target, ...]:
        return self.edges.get(loc, ())

    def resolved(self, loc: Loc) -> tuple[MethodId, ...]:
        return self._resolved.get(loc, ())


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
    """CFG successors, reachable set, reaching definitions and def-use
    chains for one method. Built once per method by method_facts and shared
    by the data, control and interprocedural edge builders and by the taint
    engine.

    defs lists the method's definitions as (local, index) pairs: each
    parameter's entry value (index ENTRY_DEF), then each reachable defining
    statement in index order. before[i] is the set of definitions reaching
    reachable statement i, as a bit set over defs (read it with pairs).
    use_defs[i] gives, per position of stmt_uses(body[i]), the sorted
    definitions of that local reaching i. def_uses[d] lists the statements
    reading the local defined at d under that definition, and
    entry_uses[param] those reading the parameter's entry value."""

    def __init__(self, cls_name: str, m: MethodDef):
        self.cls = cls_name
        self.m = m
        self.key = m.key
        self.succs = cfg_successors(m)
        self.reachable = reachable_indices(m, self.succs)
        body = m.body
        order = sorted(self.reachable)
        self.defs: list[tuple[str, int]] = [(v, ENTRY_DEF) for v in dict.fromkeys(m.params)]
        entry = (1 << len(self.defs)) - 1
        preds: dict[int, list[int]] = {i: [] for i in order}
        bit_at: dict[int, int] = {}
        for i in order:
            for j in self.succs[i]:
                if j != EXIT:
                    preds[j].append(i)
            d = stmt_defs(body[i])
            if d is not None:
                bit_at[i] = 1 << len(self.defs)
                self.defs.append((d, i))
        of_local: dict[str, int] = {}  # local -> bits of all its definitions
        for k, (v, _) in enumerate(self.defs):
            of_local[v] = of_local.get(v, 0) | 1 << k
        keep_at = {i: ~of_local[stmt_defs(body[i])] for i in bit_at}

        self.before: dict[int, int] = {}
        out: dict[int, int] = {}
        work = deque(order)
        while work:
            i = work.popleft()
            inn = entry if i == 0 else 0
            for pr in preds[i]:
                inn |= out.get(pr, 0)
            self.before[i] = inn
            bit = bit_at.get(i)
            new_out = inn if bit is None else inn & keep_at[i] | bit
            if out.get(i) != new_out:
                out[i] = new_out
                for j in self.succs[i]:
                    if j != EXIT:
                        work.append(j)

        self.use_defs: dict[int, tuple[tuple[int, ...], ...]] = {}
        self.def_uses: dict[int, list[int]] = {}
        self.entry_uses: dict[str, list[int]] = {}
        for i in order:
            uses = stmt_uses(body[i])
            if not uses:
                continue
            per_local = {
                v: tuple(d for _, d in self.pairs(self.before[i] & of_local.get(v, 0)))
                for v in uses
            }
            self.use_defs[i] = tuple(per_local[v] for v in uses)
            for v, ds in per_local.items():
                for d in ds:
                    if d == ENTRY_DEF:
                        self.entry_uses.setdefault(v, []).append(i)
                    else:
                        self.def_uses.setdefault(d, []).append(i)

    def pairs(self, bits: int) -> Iterator[tuple[str, int]]:
        """The definitions in a bit set over defs, in defs order."""
        while bits:
            low = bits & -bits
            yield self.defs[low.bit_length() - 1]
            bits ^= low

    def loc(self, i: int) -> Loc:
        return Loc(self.cls, self.key, i)


def method_facts(p: Program) -> dict[MethodId, _MethodFacts]:
    """One _MethodFacts per method of p, in iter_methods order.

    Built on the first call and kept on the Program instance, outside its
    dataclass fields, == and repr, like its statement index; p must
    therefore not be mutated after the first call."""
    memo = vars(p)
    facts = memo.get("_method_facts")
    if facts is None:
        facts = memo["_method_facts"] = {
            MethodId(cls.name, m.key): _MethodFacts(cls.name, m) for cls, m in p.iter_methods()
        }
    return facts


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
    for i, per_use in facts.use_defs.items():
        for ds in per_use:
            for d in ds:
                if d != ENTRY_DEF:
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
    facts = method_facts(p)

    for f in facts.values():
        for i in range(len(f.m.body)):
            nodes.add(f.loc(i))
        edges |= data_deps(f.cls, f.m, f)
        edges |= control_deps(f.cls, f.m, f)

    # Field cells: program-wide store -> load, order-insensitive.
    all_stores: dict[tuple[str, str], list[Loc]] = {}
    all_loads: dict[tuple[str, str], list[Loc]] = {}
    for f in facts.values():
        stores, loads = _field_sites(f.cls, f.m, f.reachable)
        for cell, loc in stores:
            all_stores.setdefault(cell, []).append(loc)
        for cell, loc in loads:
            all_loads.setdefault(cell, []).append(loc)
    for cell, slocs in all_stores.items():
        for sloc in slocs:
            for lloc in all_loads.get(cell, ()):
                edges.add(DepEdge(sloc, lloc, EdgeKind.DATA))

    # Resolved call sites, in deterministic order, with the definitions
    # reaching each argument.
    call_sites: list[tuple[Loc, MethodId, tuple[str, ...], tuple[tuple[int, ...], ...], bool]] = []
    for mid in sorted(facts):
        f = facts[mid]
        for i in sorted(f.reachable):
            s = f.m.body[i]
            if not isinstance(s, (AssignCall, Call)):
                continue
            loc = f.loc(i)
            for t in cg.resolved(loc):
                call_sites.append((loc, t, s.args, f.use_defs.get(i, ()), isinstance(s, AssignCall)))

    # Call edges: call site -> callee entry statement.
    for loc, t, _, _, _ in call_sites:
        if facts[t].m.body:
            edges.add(DepEdge(loc, Loc(t.cls, t.method, 0), EdgeKind.CALL))

    # Feeders: for each (callee, param index), the statements whose defined
    # value can enter that parameter, chasing parameter-to-parameter
    # pass-through across call sites to a fixpoint.
    feed: dict[tuple[MethodId, int], set[Loc]] = {}
    passthrough: dict[tuple[MethodId, int], set[tuple[MethodId, int]]] = {}
    for loc, t, args, arg_defs, _ in call_sites:
        caller = MethodId(loc.cls, loc.method)
        f = facts[caller]
        for i, (a, ds) in enumerate(zip(args, arg_defs)):
            key = (t, i)
            feed.setdefault(key, set()).update(f.loc(d) for d in ds if d != ENTRY_DEF)
            if ds and ds[0] == ENTRY_DEF:
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
        params = facts[t].m.params
        if i >= len(params):
            continue
        for u in facts[t].entry_uses.get(params[i], ()):
            dst = facts[t].loc(u)
            for src in sources:
                edges.add(DepEdge(src, dst, EdgeKind.PARAM_IN))

    # ReturnOut edges: value-returning statements -> call sites with a lhs.
    for loc, t, _, _, has_lhs in call_sites:
        if not has_lhs:
            continue
        tf = facts[t]
        for i in sorted(tf.reachable):
            s = tf.m.body[i]
            if isinstance(s, Return) and s.value is not None:
                edges.add(DepEdge(tf.loc(i), loc, EdgeKind.RETURN_OUT))

    return DepGraph(frozenset(nodes), frozenset(edges))
