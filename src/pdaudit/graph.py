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

Storage. DepGraph has one constructor, DepGraph(locs, stmts, out, cells),
and every loc is a node. A node's id is its rank in Loc order; build_pdg
numbers the methods in sorted order, each over a contiguous id range (base
+ statement index). stmts[id] is the statement at locs[id]: the one
statement index downstream of parsing, read by flows, slice statistics and
DOT output. Explicit edges are per-node sorted lists of ints packing
the other end's id with a kind code, in both directions; the codes follow
the order of the kind.value strings, so a sorted list is in (src Loc, dst
Loc, kind.value) order. A field cell is stored once, as its sorted reachable
store ids and load ids: its stores x loads Data edges are never stored,
which keeps the graph linear in the program. Slicing, witness search and
DOT output walk ids and expand each cell at most once per traversal.
DepEdge objects, cell pairs included, are built only by the edges view.

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
    Stmt,
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


@dataclass(frozen=True)
class DepEdge:
    src: Loc
    dst: Loc
    kind: EdgeKind


# Edge kind codes, numbered in the order of the kind.value strings, so that
# packed (node id << _KIND_BITS | code) ints sort like (dst Loc, kind.value).
KINDS = tuple(sorted(EdgeKind, key=lambda k: k.value))
_CODE = {k: c for c, k in enumerate(KINDS)}
_CALL, _CONTROL, _DATA, _PARAM_IN, _RETURN_OUT = (_CODE[k] for k in (
    EdgeKind.CALL, EdgeKind.CONTROL, EdgeKind.DATA, EdgeKind.PARAM_IN, EdgeKind.RETURN_OUT))
_KIND_BITS = 3
_KIND_MASK = (1 << _KIND_BITS) - 1
_DATA_IN = (_DATA, _PARAM_IN)  # data-carrying codes other than ReturnOut
_DATA_CODES = (_DATA, _PARAM_IN, _RETURN_OUT)


class DepGraph:
    """Immutable-by-convention dependence graph on integer node ids.

    DepGraph(locs, stmts, out, cells) is the graph whose nodes are locs,
    which must be in Loc order (locs[id] is the Loc, so comparing ids
    compares Locs); stmts[id] is the statement at locs[id]. out[i] lists
    the explicit edges leaving node i, packed as dst << _KIND_BITS | code
    (unsorted, duplicates allowed); it is deduplicated and sorted in place,
    and _inn[i] gets the reverse, src << _KIND_BITS | code.
    cells[c] is one field cell, as (store ids, load ids) in id order; the
    store -> load Data edges it implies are not stored and must not repeat
    an explicit edge. reach, induced, data_in and data_out walk ids; edges
    builds the DepEdge objects, cell pairs included, on first use."""

    def __init__(
        self,
        locs: list[Loc],
        stmts: list[Stmt],
        out: list[list[int]],
        cells: list[tuple[tuple[int, ...], tuple[int, ...]]],
    ):
        self.locs = tuple(locs)
        self.stmts = tuple(stmts)
        inn: list[list[int]] = [[] for _ in locs]
        for i, lst in enumerate(out):
            if len(lst) > 1:
                lst[:] = sorted(set(lst))
            for x in lst:
                inn[x >> _KIND_BITS].append(i << _KIND_BITS | x & _KIND_MASK)
        self._out = out
        self._inn = inn  # filled in source order, so already sorted
        self.cells = cells
        self._store_cell = {s: c for c, (stores, _) in enumerate(cells) for s in stores}
        self._load_cell = {l: c for c, (_, loads) in enumerate(cells) for l in loads}
        self._index = {loc: i for i, loc in enumerate(self.locs)}
        self._edges: Optional[frozenset[DepEdge]] = None

    @property
    def edges(self) -> frozenset[DepEdge]:
        if self._edges is None:
            locs = self.locs
            self._edges = frozenset(
                DepEdge(locs[i], locs[j], KINDS[k]) for i, j, k in self.induced(range(len(locs)))
            )
        return self._edges

    def id_of(self, loc: Loc) -> Optional[int]:
        return self._index.get(loc)

    def reach(self, root: int) -> list[int]:
        """The ids reachable from root over any edge kind, root first. A
        field cell's loads are added once, at the first of its stores."""
        out, cells, store_cell = self._out, self.cells, self._store_cell
        seen = {root}
        work = [root]
        expanded: set[int] = set()
        for n in work:  # grows while iterated: a FIFO queue
            for x in out[n]:
                d = x >> _KIND_BITS
                if d not in seen:
                    seen.add(d)
                    work.append(d)
            c = store_cell.get(n)
            if c is not None and c not in expanded:
                expanded.add(c)
                for d in cells[c][1]:
                    if d not in seen:
                        seen.add(d)
                        work.append(d)
        return work

    def induced(self, ids) -> Iterator[tuple[int, int, int]]:
        """(src id, dst id, kind code) of every edge between nodes of ids,
        which must be in id order; cell pairs included, in (src Loc, dst
        Loc, kind.value) order. KINDS[code] is the EdgeKind."""
        out, cells, store_cell = self._out, self.cells, self._store_cell
        inside = set(ids)
        cell_codes: dict[int, list[int]] = {}  # cell -> its loads inside, packed
        for i in ids:
            codes = [x for x in out[i] if x >> _KIND_BITS in inside]
            c = store_cell.get(i)
            if c is not None:
                if c not in cell_codes:
                    cell_codes[c] = [l << _KIND_BITS | _DATA for l in cells[c][1] if l in inside]
                codes = sorted(codes + cell_codes[c]) if codes else cell_codes[c]
            for x in codes:
                yield i, x >> _KIND_BITS, x & _KIND_MASK

    def data_in(self, w: int, via_ret: bool, expanded: set[int]) -> list[int]:
        """Source ids of the data-carrying edges into w: the ReturnOut ones
        when via_ret, else the Data and ParamIn ones plus the stores of w's
        field cell, unless that cell is in expanded (it is then added)."""
        if via_ret:
            return [x >> _KIND_BITS for x in self._inn[w] if x & _KIND_MASK == _RETURN_OUT]
        srcs = [x >> _KIND_BITS for x in self._inn[w] if x & _KIND_MASK in _DATA_IN]
        c = self._load_cell.get(w)
        if c is not None and c not in expanded:
            expanded.add(c)
            srcs += self.cells[c][0]
        return srcs

    def data_out(self, v: int) -> list[tuple[int, bool]]:
        """(dst id, is ReturnOut) of the data-carrying edges out of v, cell
        pairs included."""
        outs = [
            (x >> _KIND_BITS, x & _KIND_MASK == _RETURN_OUT)
            for x in self._out[v]
            if x & _KIND_MASK in _DATA_CODES
        ]
        c = self._store_cell.get(v)
        if c is not None:
            outs += [(l, False) for l in self.cells[c][1]]
        return outs

    def __repr__(self) -> str:
        n_edges = sum(map(len, self._out)) + sum(len(s) * len(l) for s, l in self.cells)
        return f"DepGraph({len(self.locs)} nodes, {n_edges} edges)"


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
    def __init__(self, edges: dict[Loc, tuple[Target, ...]]):
        self.edges = edges
        self._resolved: dict[Loc, tuple[MethodId, ...]] = {}
        for loc, ts in edges.items():
            resolved = tuple(t for t in ts if isinstance(t, MethodId))
            if resolved:
                self._resolved[loc] = resolved

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

    return CallGraph(edges)


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
    dataclass fields, == and repr; p must therefore not be mutated after the
    first call."""
    memo = vars(p)
    facts = memo.get("_method_facts")
    if facts is None:
        facts = memo["_method_facts"] = {
            MethodId(cls.name, m.key): _MethodFacts(cls.name, m) for cls, m in p.iter_methods()
        }
    return facts


def _data_pairs(facts: _MethodFacts) -> Iterator[tuple[int, int]]:
    """(definition index, use index) of each local def-use pair."""
    for i, per_use in facts.use_defs.items():
        for ds in per_use:
            for d in ds:
                if d != ENTRY_DEF:
                    yield d, i


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


def _control_pairs(m: MethodDef, reachable: set[int], succs: dict[int, tuple[int, ...]]):
    """(branch index, dependent index) of each control dependence."""
    branches = [i for i in sorted(reachable) if isinstance(m.body[i], If)]
    if not branches:
        return
    ipdom = _postdominators(m, succs)
    for b in branches:
        stop = ipdom[b]
        for s in succs[b]:
            runner: Optional[int] = s
            guard = len(m.body) + 2
            while runner is not None and runner != EXIT and runner != stop and guard > 0:
                yield b, runner
                runner = ipdom[runner]
                guard -= 1


# ---------------------------------------------------------------------------
# Whole-program dependence graph
# ---------------------------------------------------------------------------


def build_pdg(p: Program, cg: CallGraph) -> DepGraph:
    """Union of per-method data/control edges, the field cells and the
    interprocedural edges.

    Every statement location is a node. Methods are numbered in sorted
    order, each over a contiguous id range, so the result is independent of
    source class order and ids follow Loc order."""
    facts = method_facts(p)
    mids = sorted(facts)
    base: dict[MethodId, int] = {}
    locs: list[Loc] = []
    stmts: list[Stmt] = []
    for mid in mids:
        base[mid] = len(locs)
        body = facts[mid].m.body
        locs.extend(Loc(mid.cls, mid.method, i) for i in range(len(body)))
        stmts += body
    out: list[list[int]] = [[] for _ in locs]

    stores: dict[tuple[str, str], list[int]] = {}
    loads: dict[tuple[str, str], list[int]] = {}
    returns: dict[MethodId, list[int]] = {}  # value-returning statement ids
    # Resolved call sites, in id order, with the definitions reaching each
    # argument.
    call_sites: list[tuple[int, MethodId, MethodId, tuple[str, ...], tuple, bool]] = []
    for mid in mids:
        f, b = facts[mid], base[mid]
        body = f.m.body
        for d, i in _data_pairs(f):
            out[b + d].append((b + i) << _KIND_BITS | _DATA)
        for br, s in _control_pairs(f.m, f.reachable, f.succs):
            out[b + br].append((b + s) << _KIND_BITS | _CONTROL)
        rets = returns[mid] = []
        for i in sorted(f.reachable):
            s = body[i]
            if isinstance(s, FieldStore):
                stores.setdefault((s.cls, s.fld), []).append(b + i)
            elif isinstance(s, AssignFieldLoad):
                loads.setdefault((s.cls, s.fld), []).append(b + i)
            elif isinstance(s, Return):
                if s.value is not None:
                    rets.append(b + i)
            elif isinstance(s, (AssignCall, Call)):
                has_lhs = isinstance(s, AssignCall)
                for t in cg.resolved(locs[b + i]):
                    call_sites.append((b + i, mid, t, s.args, f.use_defs.get(i, ()), has_lhs))

    # Field cells: program-wide store -> load, order-insensitive, kept as
    # one (stores, loads) pair per cell instead of stores x loads edges. No
    # explicit edge leaves a store (it defines no local and is no call,
    # branch or return), so no cell pair repeats one.
    cells = [(tuple(stores[c]), tuple(loads[c])) for c in sorted(stores) if c in loads]

    # Call edges: call site -> callee entry statement.
    for site, _, t, _, _, _ in call_sites:
        if facts[t].m.body:
            out[site].append(base[t] << _KIND_BITS | _CALL)

    # Feeders: for each (callee, param index), the statements whose defined
    # value can enter that parameter, chasing parameter-to-parameter
    # pass-through across call sites to a fixpoint.
    feed: dict[tuple[MethodId, int], set[int]] = {}
    passthrough: dict[tuple[MethodId, int], set[tuple[MethodId, int]]] = {}
    for _, caller, t, args, arg_defs, _ in call_sites:
        b = base[caller]
        for i, (a, ds) in enumerate(zip(args, arg_defs)):
            key = (t, i)
            feed.setdefault(key, set()).update(b + d for d in ds if d != ENTRY_DEF)
            if ds and ds[0] == ENTRY_DEF:
                j = facts[caller].m.params.index(a)
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
        b = base[t]
        for u in facts[t].entry_uses.get(params[i], ()):
            code = (b + u) << _KIND_BITS | _PARAM_IN
            for src in sources:
                out[src].append(code)

    # ReturnOut edges: value-returning statements -> call sites with a lhs.
    for site, _, t, _, _, has_lhs in call_sites:
        if has_lhs:
            code = site << _KIND_BITS | _RETURN_OUT
            for r in returns[t]:
                out[r].append(code)

    return DepGraph(locs, stmts, out, cells)
