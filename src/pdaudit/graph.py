"""Call graph and interprocedural dependence graph construction.

The dependence graph is the substrate for slicing and the one statement
of the taint transfer rules: a flow is a valid path over its data-carrying
edges (Data, ParamIn, ReturnOut), which taint.collect_flows searches for.
Nodes are statement locations; edges are typed:

    Data       def-use on locals (reaching definitions, strong kill) and
               field store -> field load pairs
    Control    branch -> statement it controls (control dependence)
    Call       call site -> callee entry statement
    ParamIn    statement defining an argument -> callee statements that
               read the matching parameter (per parameter index)
    ReturnOut  callee return statement -> call-site statement (the lhs def)

Field cells are one abstract cell per (class, field), with no kill: any
store may be observed by any load, in any method. Methods here are open
entry points invoked repeatedly by the framework, so a load earlier in a
body can legitimately observe a store from a later statement of a previous
invocation; order-insensitive store -> load edges are the sound reading.

Control dependence (Ferrante, Ottenstein and Warren, TOPLAS 1987): j
depends on branch b when j postdominates a CFG successor of b but does not
strictly postdominate b; j postdominates i when every path from i to the
exit passes through j. A statement that cannot reach the exit (`k: goto k`)
is postdominated by itself alone.

Statements unreachable from a method's entry appear as graph nodes but
carry no dependence edges. Per method, one forward pass from the entry
gives the reaching definitions of locals, and the statements it reaches
are the reachable ones; the control dependences are taken from the CFG,
which is then dropped. One walk over the reachable statements then makes
the def-use chains and the method's record: its field loads and stores
by (class, field), its value returns and its call statements, to which
method_facts attaches the call graph's targets. build_pdg alone reads
that record, and does not classify statements again. It reads the facts
one method at a time and keeps none of them: a call edge reads its
callee only through a small summary (base, params, value returns, entry
uses), as the summary edges of system dependence graphs do, so at most two
methods' facts are alive at once.

Storage. DepGraph has one constructor, DepGraph(locs, stmts, src, dst,
cells), and every loc is a node. A node's id is its rank in Loc order;
build_pdg numbers the methods in sorted order, each over a contiguous id
range (base + statement index), and its locs is the program's own tuple,
p.locs(), so the call graph, the labels and the graph hold one Loc per
statement; the method facts hold none, only each method's base. Loc and
MethodId are tuples, so they compare and hash in C; id_of maps a Loc back
to its id by one bisect over locs, with no {Loc: id} table. stmts[id] is
the statement at locs[id]: the one statement index downstream of parsing,
read by flows, slice statistics and DOT output. build_pdg emits each
explicit edge once, into two flat int arrays, the source ids and the other
ends packed with a kind code, and never builds a list per node. The graph
keeps the outgoing edges, the only direction any traversal reads, in
compressed sparse rows (CSR), one offsets array and one packed-edge array:
node i's edges are packed[offsets[i] : offsets[i + 1]], sorted. The codes
follow the order of the kind.value strings, so each run is in (dst Loc,
kind.value) order. A field cell is stored once, as its sorted reachable
store ids and load ids: its stores x loads Data edges are never stored,
which keeps the graph linear in the program. Slicing and witness search
walk ids and expand each cell at most once per traversal. DOT output never
expands a cell: cell_edges numbers cell c as node len(locs) + c and gives
its store -> cell and cell -> load Data edges, the summary-node reading of
system dependence graphs (Horwitz, Reps and Binkley, TOPLAS 1990), so a
slice's DOT file stays linear in the slice. DepEdge objects, cell pairs
included, are built only by the edges view.

Call resolution is class-hierarchy analysis, context-insensitive, keyed on
(method name, arity): a call C.m resolves to the nearest definition in C or
its superclasses plus every override in program subclasses of C. Anything
else is an opaque external callee, and its call site has no call-graph
entry. A cyclic class hierarchy, which validate reports as an error, is
walked as far as each class's first repeat.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from enum import Enum
from functools import cache
from heapq import heappop, heappush
from itertools import accumulate, repeat
from operator import and_, lshift, or_
from typing import Iterator, NamedTuple, Optional

from .ir import (
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
from .registry import SinkMatch, SinkRegistry

EXIT = -1  # synthetic exit index in per-method CFGs
ENTRY_DEF = -1  # definition site of parameters in reaching-definition sets


class EdgeKind(Enum):
    DATA = "Data"
    CONTROL = "Control"
    CALL = "Call"
    PARAM_IN = "ParamIn"
    RETURN_OUT = "ReturnOut"


class DepEdge(NamedTuple):
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
_DATA_CODES = (_DATA, _PARAM_IN, _RETURN_OUT)


class DepGraph:
    """Immutable-by-convention dependence graph on integer node ids.

    DepGraph(locs, stmts, src, dst, cells) is the graph whose nodes are
    locs, which must be in Loc order (locs[id] is the Loc, so comparing ids
    compares Locs); stmts[id] is the statement at locs[id]. src and dst are
    parallel arrays of the explicit edges, distinct and in any order: edge
    e leaves node src[e] and is packed as dst[e] = dst id << _KIND_BITS |
    code. They are grouped by source and sorted into _out, a CSR pair
    (offsets, packed): the run of node i is
    packed[offsets[i]:offsets[i + 1]].
    cells[c] is one field cell, as (store ids, load ids) in id order; the
    store -> load Data edges it implies are not stored and must not repeat
    an explicit edge. reach, induced, cell_edges and data_out walk ids;
    edges builds the DepEdge objects, cell pairs included, on first use,
    and sink_table the sink statements of a registry. id_of finds a Loc's
    id by one bisect over locs, so any node set in Loc order, however
    sparse, is indexed."""

    def __init__(
        self,
        locs: list[Loc],
        stmts: list[Stmt],
        src: array,
        dst: array,
        cells: list[tuple[tuple[int, ...], tuple[int, ...]]],
    ):
        self.locs = tuple(locs)
        self.stmts = tuple(stmts)
        n = len(self.locs)
        # Each edge sorts as one int, its node id << shift | its packed end.
        shift = n.bit_length() + _KIND_BITS
        keys = sorted(map(or_, map(lshift, src, repeat(shift)), dst))
        self._out = _csr(n, shift, keys)
        self.cells = cells
        self._store_cell = {s: c for c, (stores, _) in enumerate(cells) for s in stores}
        self._edges: Optional[frozenset[DepEdge]] = None
        self._sinks: Optional[tuple[tuple[dict, dict], dict[int, SinkMatch]]] = None

    @property
    def edges(self) -> frozenset[DepEdge]:
        if self._edges is None:
            locs = self.locs
            self._edges = frozenset(
                DepEdge(locs[i], locs[j], KINDS[k]) for i, j, k in self.induced(range(len(locs)))
            )
        return self._edges

    def sink_table(self, sinks: SinkRegistry) -> dict[int, SinkMatch]:
        """{node id: SinkMatch} of every call statement whose callee sinks
        matches, in id order. Flows, slice statistics and DOT output of one
        analysis all ask with the same registry, so the table is built once,
        matching each callee once, and kept on the graph; asking with a
        registry of other entries rebuilds it."""
        memo = self._sinks
        if memo is None or memo[0] != (sinks.exact, sinks.prefixes):
            matched: dict[str, Optional[SinkMatch]] = {}
            table: dict[int, SinkMatch] = {}
            for i, s in enumerate(self.stmts):
                if isinstance(s, Call):
                    if s.callee not in matched:
                        matched[s.callee] = sinks.match(s.callee)
                    m = matched[s.callee]
                    if m is not None:
                        table[i] = m
            memo = self._sinks = ((dict(sinks.exact), dict(sinks.prefixes)), table)
        return memo[1]

    def id_of(self, loc: Loc) -> Optional[int]:
        i = bisect_left(self.locs, loc)
        return i if i < len(self.locs) and self.locs[i] == loc else None

    def reach(self, root: int) -> list[int]:
        """The ids reachable from root over any edge kind, root first. A
        field cell's loads are added once, at the first of its stores."""
        (at, out), cells, store_cell = self._out, self.cells, self._store_cell
        seen = {root}
        work = [root]
        expanded: set[int] = set()
        for n in work:  # grows while iterated: a FIFO queue
            for x in out[at[n] : at[n + 1]]:
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
        which must be in id order, cell pairs included: cell_edges with
        each cell expanded. KINDS[code] is the EdgeKind."""
        n = len(self.locs)
        stores: dict[int, list[int]] = {}  # cell node -> its stores in ids
        for i, j, k in self.cell_edges(ids)[1]:
            if j >= n:
                stores.setdefault(j, []).append(i)
            elif i >= n:
                yield from ((s, j, k) for s in stores[i])
            else:
                yield i, j, k

    def cell_edges(self, ids) -> tuple[list[int], Iterator[tuple[int, int, int]]]:
        """The edges between nodes of ids, which must be in id order, with
        each field cell kept as a node of its own, id len(locs) + c for
        cell c, instead of expanded into its store -> load pairs.

        Returns (cells, edges). cells lists the cells with a store and a
        load in ids, in the order of their first store; cell_field(c) names
        cell c. edges yields (src id, dst id, kind code): per i of ids, its
        explicit edges into ids in (dst Loc, kind.value) order, then its
        Data edge to its cell; then per cell, its Data edges to its loads
        in ids, in id order."""
        (at, out), store_cell, n = self._out, self._store_cell, len(self.locs)
        inside = set(ids)
        stored = dict.fromkeys(map(store_cell.get, ids))  # cells, in first-store order
        stored.pop(None, None)
        loads = {c: [l for l in self.cells[c][1] if l in inside] for c in stored}
        cells = [c for c, ls in loads.items() if ls]

        def edges() -> Iterator[tuple[int, int, int]]:
            for i in ids:
                for x in out[at[i] : at[i + 1]]:
                    j = x >> _KIND_BITS
                    if j in inside:
                        yield i, j, x & _KIND_MASK
                c = store_cell.get(i)
                if c is not None and loads[c]:
                    yield i, n + c, _DATA
            for c in cells:
                for l in loads[c]:
                    yield n + c, l, _DATA

        return cells, edges()

    def cell_field(self, c: int) -> tuple[str, str]:
        """The (class, field) of cell c."""
        s = self.stmts[self.cells[c][0][0]]
        return s.cls, s.fld

    def data_out(self, v: int, expanded: set[int], dirty: int) -> list[int]:
        """The search states the data-carrying edges out of v lead to, each
        4 * dst id + 2 * (a ReturnOut edge) + dirty, dirty 0 or 1, plus
        4 * load id + dirty for the loads of v's field cell, unless that
        cell is in expanded (it is then added). A state may occur twice.

        The states come in ascending order: v's CSR run is in (dst id,
        kind) order, and ReturnOut sorts after Data and ParamIn; a cell's
        loads are in id order, and a field store, the only node with a
        cell, has no data-carrying edge out of its own."""
        at, out = self._out
        outs = [
            (x >> _KIND_BITS) * 4 + (x & _KIND_MASK == _RETURN_OUT) * 2 + dirty
            for x in out[at[v] : at[v + 1]]
            if x & _KIND_MASK in _DATA_CODES
        ]
        c = self._store_cell.get(v)
        if c is not None and c not in expanded:
            expanded.add(c)
            outs += [4 * l + dirty for l in self.cells[c][1]]
        return outs

    def __repr__(self) -> str:
        n_edges = len(self._out[1]) + sum(len(s) * len(l) for s, l in self.cells)
        return f"DepGraph({len(self.locs)} nodes, {n_edges} edges)"


def _csr(n: int, shift: int, keys: list[int]) -> tuple[array, array]:
    """The CSR pair (offsets, packed) of keys, sorted distinct ints node id
    << shift | packed edge end, node id < n: node i's ends, in increasing
    order, are packed[offsets[i] : offsets[i + 1]]."""
    counts = [0] * (n + 1)
    for k in keys:
        counts[(k >> shift) + 1] += 1
    return array("q", accumulate(counts)), array("q", map(and_, keys, repeat((1 << shift) - 1)))


# ---------------------------------------------------------------------------
# Per-method CFG
# ---------------------------------------------------------------------------


def _bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x >= 0, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


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


# ---------------------------------------------------------------------------
# Call graph (CHA)
# ---------------------------------------------------------------------------


class MethodId(NamedTuple):
    """A method: (class, method key), ordered and hashed as that tuple."""

    cls: str
    method: str  # name/arity key

    def __str__(self) -> str:
        return f"{self.cls}.{self.method}"


class CallGraph:
    """edges maps each call site with a program target to its targets, in
    MethodId order; a site whose callee resolves to no program method has no
    entry."""

    def __init__(self, edges: dict[Loc, tuple[MethodId, ...]]):
        self.edges = edges

    def resolved(self, loc: Loc) -> tuple[MethodId, ...]:
        return self.edges.get(loc, ())


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
        seen = {cls_name}
        work = deque(children.get(cls_name, ()))
        while work:
            c = work.popleft()
            if c not in seen:
                seen.add(c)
                out.append(c)
                work.extend(children.get(c, ()))
        return out

    @cache  # one resolution per (callee, arity); its sites share the tuple
    def resolve(callee: str, arity: int) -> tuple[MethodId, ...]:
        owner, _, name = callee.rpartition(".")
        if owner not in classes:
            return ()
        key = f"{name}/{arity}"
        targets: set[MethodId] = set()
        c = owner
        seen: set[str] = set()
        while c in classes and c not in seen:
            if (c, key) in defined:
                targets.add(defined[(c, key)])
                break
            seen.add(c)
            c = classes[c].superclass
        for sub in subclasses(owner):
            if (sub, key) in defined:
                targets.add(defined[(sub, key)])
        return tuple(sorted(targets))

    edges: dict[Loc, tuple[MethodId, ...]] = {}
    for loc, stmt in p.iter_locs():
        if isinstance(stmt, Call):
            targets = resolve(stmt.callee, len(stmt.args))
            if targets:
                edges[loc] = targets
    return CallGraph(edges)


# ---------------------------------------------------------------------------
# Reaching definitions (locals)
# ---------------------------------------------------------------------------


class _MethodFacts:
    """Reaching definitions, def-use chains, control dependences and the
    statement record of one method, from one forward pass over its CFG;
    the CFG is not kept. Built once per method by method_facts, for the
    edge builders of build_pdg.

    defs numbers every definition as a (local, index) pair: each
    parameter's entry value (index ENTRY_DEF), then every defining
    statement in index order. before[i] is the set of definitions reaching
    statement i, as a bit set over defs (read it with pairs); its keys,
    reachable, are the statements reachable from the entry. use_defs[i]
    gives, per position of stmt_uses(body[i]), the sorted definitions of
    that local reaching i. def_uses[d] lists the statements reading the
    local defined at d under that definition, and entry_uses[param] those
    reading the parameter's entry value. control lists the (branch index,
    dependent index) pairs of _control_pairs, for the branches (If
    statements) that the record's walk finds.

    The record is the one classification of the reachable statements, each
    list in index order: loads[(class, field)] and stores[(class, field)]
    are the field loads and stores of that cell, returns the statements
    returning a value, and calls maps each call statement to (). Then
    method_facts keeps in calls only the calls with program targets, in
    index order, each mapped to the call graph's own target tuple, and sets
    base, the rank of the method's first statement in p.locs(), which is
    its first dependence graph id."""

    def __init__(self, m: MethodDef):
        self.m = m
        body = m.body
        succs = cfg_successors(m)
        defs = self.defs = [(v, ENTRY_DEF) for v in dict.fromkeys(m.params)]
        n_params = len(defs)
        defs += [(v, i) for i, s in enumerate(body) if (v := stmt_defs(s)) is not None]
        of_local: dict[str, int] = {}  # local -> bits of all its definitions
        for k, (v, _) in enumerate(defs):
            of_local[v] = of_local.get(v, 0) | 1 << k
        gen = [(-1, 0)] * len(body)  # per statement: the bits it passes on, the bit it adds
        for k, (v, i) in enumerate(defs[n_params:], n_params):
            gen[i] = (~of_local[v], 1 << k)

        # Lowest index first: in loop-free code, every predecessor goes first.
        before = self.before = {0: (1 << n_params) - 1} if body else {}
        self.reachable = before.keys()
        work = list(before)
        while work:
            i = heappop(work)
            keep, own = gen[i]
            out = before[i] & keep | own
            for j in succs[i]:
                if j != EXIT:
                    old = before.get(j)
                    new = out if old is None else old | out
                    if new != old:
                        before[j] = new
                        heappush(work, j)

        self.use_defs: dict[int, tuple[tuple[int, ...], ...]] = {}
        self.def_uses: dict[int, list[int]] = {}
        self.entry_uses: dict[str, list[int]] = {}
        self.loads: dict[tuple[str, str], list[int]] = {}
        self.stores: dict[tuple[str, str], list[int]] = {}
        self.returns: list[int] = []
        self.calls: dict[int, tuple[MethodId, ...]] = {}
        branches = []
        for i in sorted(before):
            s = body[i]
            if isinstance(s, AssignFieldLoad):
                self.loads.setdefault((s.cls, s.fld), []).append(i)
            elif isinstance(s, FieldStore):
                self.stores.setdefault((s.cls, s.fld), []).append(i)
            elif isinstance(s, Return):
                if s.value is not None:
                    self.returns.append(i)
            elif isinstance(s, Call):
                self.calls[i] = ()
            elif isinstance(s, If):
                branches.append(i)
            uses = stmt_uses(s)
            if not uses:
                continue
            reach, union, per_use = before[i], 0, []
            for v in uses:
                bits = reach & of_local.get(v, 0)
                union |= bits
                per_use.append(tuple(defs[k][1] for k in _bits(bits)))
            self.use_defs[i] = tuple(per_use)
            for v, d in self.pairs(union):  # each reaching definition once
                if d == ENTRY_DEF:
                    self.entry_uses.setdefault(v, []).append(i)
                else:
                    self.def_uses.setdefault(d, []).append(i)
        self.control = tuple(_control_pairs(m, before, succs, branches))

    def pairs(self, bits: int) -> Iterator[tuple[str, int]]:
        """The definitions in a bit set over defs, in defs order."""
        return (self.defs[k] for k in _bits(bits))


def method_facts(p: Program, cg: CallGraph) -> Iterator[tuple[MethodId, _MethodFacts]]:
    """(MethodId, _MethodFacts) of each method of p, in iter_methods order,
    with each call statement's targets taken from cg, p's call graph. Each
    is built only when asked for and nothing here keeps it, so a reader
    that keeps none, as build_pdg does, holds at most two at a time: the
    one it read last and the one being built."""
    locs, edges, base = p.locs(), cg.edges, 0
    for cls, m in p.iter_methods():
        f = _MethodFacts(m)
        f.base = base
        f.calls = {i: t for i in f.calls if (t := edges.get(locs[base + i]))}
        base += len(m.body)
        yield MethodId(cls.name, m.key), f


# ---------------------------------------------------------------------------
# Control dependence
# ---------------------------------------------------------------------------


def _control_pairs(m: MethodDef, reachable: set[int], succs: dict[int, tuple[int, ...]],
                   branches: list[int]):
    """(branch index, dependent index) of each control dependence, for
    branches, the reachable If statements of m in index order.

    pdom[i], the statements postdominating i as a bit set, is the greatest
    fixpoint of {i} | AND of pdom over i's successors that reach the exit,
    EXIT contributing the empty set. Bit len(body) marks the statements that
    cannot reach the exit; each of those is postdominated by itself alone.
    Branch b controls, over each successor s, pdom[s] & ~(pdom[b] minus b)."""
    if not branches:
        return
    stuck = 1 << len(m.body)
    top = (stuck << 1) - 1  # every statement, and the cannot-reach-exit bit
    pdom = dict.fromkeys(reachable, top)
    pdom[EXIT] = 0
    order = sorted(reachable, reverse=True)
    changed = True
    while changed:
        changed = False
        for i in order:
            new = top
            for s in succs[i]:
                new &= pdom[s]  # pdom[s] is top while s cannot reach the exit
            new |= 1 << i
            if new != pdom[i]:
                pdom[i] = new
                changed = True
    for i in order:
        if pdom[i] & stuck:
            pdom[i] = 1 << i
    for b in branches:
        strict = pdom[b] & ~(1 << b)
        deps = 0
        for s in succs[b]:
            deps |= pdom[s] & ~strict
        yield from ((b, j) for j in _bits(deps))


# ---------------------------------------------------------------------------
# Whole-program dependence graph
# ---------------------------------------------------------------------------


def build_pdg(p: Program, cg: CallGraph) -> DepGraph:
    """Union of per-method data/control edges, the field cells and the
    interprocedural edges.

    Every statement location is a node. Methods are numbered in sorted
    order, each over a contiguous id range, so the result is independent of
    source class order and ids follow Loc order.

    The method facts are read one method at a time and dropped: a method's
    own edges, cell stores and loads and parameter feeds come from its facts
    alone, and an interprocedural edge reads only its callee's summary, so
    each method leaves a summary and a record per resolved call site, and
    the Call, ReturnOut and ParamIn edges are emitted from those once every
    method has been read."""
    stmts = [s for _, m in p.iter_methods() for s in m.body]
    # Explicit edges, one (src id, dst id << _KIND_BITS | code) pair each.
    src, dst = array("q"), array("q")
    add_src, add_dst = src.append, dst.append

    stores: dict[tuple[str, str], list[int]] = {}
    loads: dict[tuple[str, str], list[int]] = {}
    # Feeders: for each (callee, param index), the statements whose defined
    # value can enter that parameter; passthrough links a caller's parameter
    # to the (callee, param index) keys it is passed on to.
    feed: dict[tuple[MethodId, int], set[int]] = {}
    passthrough: dict[tuple[MethodId, int], set[tuple[MethodId, int]]] = {}
    # Per method, what a call edge reads of its callee: (base, params, value
    # returns, entry uses, whether the body is empty).
    summary: dict[MethodId, tuple[int, list[str], list[int], dict[str, list[int]], bool]] = {}
    sites: list[tuple[int, tuple[MethodId, ...], bool]] = []  # (site id, targets, has an lhs)
    for mid, f in method_facts(p, cg):  # in MethodId order
        b, m = f.base, f.m
        summary[mid] = (b, m.params, f.returns, f.entry_uses, not m.body)
        for d, uses in f.def_uses.items():  # local def-use pairs
            for u in uses:
                add_src(b + d)
                add_dst((b + u) << _KIND_BITS | _DATA)
        for br, s in f.control:
            add_src(b + br)
            add_dst((b + s) << _KIND_BITS | _CONTROL)
        for c, at in f.stores.items():
            stores.setdefault(c, []).extend([b + i for i in at])
        for c, at in f.loads.items():
            loads.setdefault(c, []).extend([b + i for i in at])
        for i, targets in f.calls.items():
            s = m.body[i]
            sites.append((b + i, targets, s.lhs is not None))
            for k, (a, ds) in enumerate(zip(s.args, f.use_defs.get(i, ()))):
                for t in targets:
                    feed.setdefault((t, k), set()).update(b + d for d in ds if d != ENTRY_DEF)
                    if ds and ds[0] == ENTRY_DEF:
                        passthrough.setdefault((mid, m.params.index(a)), set()).add((t, k))

    for site, targets, has_lhs in sites:
        for t in targets:
            base, _, returns, _, empty = summary[t]
            if not empty:  # Call: call site -> callee entry statement
                add_src(site)
                add_dst(base << _KIND_BITS | _CALL)
            if has_lhs:  # ReturnOut: value returns -> lhs def
                for r in returns:
                    add_src(base + r)
                    add_dst(site << _KIND_BITS | _RETURN_OUT)

    # Field cells: program-wide store -> load, order-insensitive, kept as
    # one (stores, loads) pair per cell instead of stores x loads edges. No
    # explicit edge leaves a store (it defines no local and is no call,
    # branch or return), so no cell pair repeats one.
    cells = [(tuple(stores[c]), tuple(loads[c])) for c in sorted(stores) if c in loads]

    # Chase parameter-to-parameter pass-through across call sites to a fixpoint.
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

    # ParamIn edges: feeder def site -> callee statements reading the param,
    # the feeders of all the params a statement reads merged, so each once.
    readers: dict[int, set[int]] = {}
    for (t, i), sources in feed.items():
        base, params, _, entry_uses, _ = summary[t]
        if i < len(params):
            for u in entry_uses.get(params[i], ()):
                readers.setdefault(base + u, set()).update(sources)
    for u, sources in readers.items():
        code = u << _KIND_BITS | _PARAM_IN
        for s in sources:
            add_src(s)
            add_dst(code)

    return DepGraph(p.locs(), stmts, src, dst, cells)
