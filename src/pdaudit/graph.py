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
carry no dependence edges. Per method, one classification pass looks at
each statement's type once and records its CFG successors, the local it
defines, the locals it reads and its record kind. One forward pass from
the entry then gives the reaching definitions of locals, and the
statements it reaches are the reachable ones; the control dependences are
taken from the CFG, which is then dropped. One walk over the reachable
statements reads their recorded uses and makes the def-use chains, and
the method's record keeps the reachable field loads and stores by (class,
field), value returns and call statements, to which method_facts attaches
the call graph's targets. No statement is classified twice. build_pdg
reads the facts one method at a time and keeps none of them: a call edge
reads its callee only through a small summary (base, params, value
returns, entry uses), as the summary edges of system dependence graphs
do, so at most two methods' facts are alive at once.

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
which keeps the graph linear in the program. Slicing (reach) and the flow
search's layers (data_layer) walk ids straight off the CSR runs and
expand each cell at most once per traversal; only this module reads the
packed format. DOT output never expands a cell: closed_cell_edges
numbers cell c as node len(locs) + c and gives its store -> cell and
cell -> load Data edges, the summary-node reading of system dependence
graphs (Horwitz, Reps and Binkley, TOPLAS 1990), so a slice's DOT file
stays linear in the slice. A slice is closed under out-edges, so none of
those edges is tested against it; cell_edges keeps the ones between the
nodes of any id set. DepEdge objects, cell pairs included, are built only
by the edges view.

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
from typing import Iterable, Iterator, NamedTuple, Optional

from .ir import (
    AssignConst,
    AssignCopy,
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
)
from .registry import SinkMatch, SinkRegistry

EXIT = -1  # synthetic exit index in per-method CFGs
_TO_EXIT = (EXIT,)
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
# packed (node id << _KIND_BITS | code) ints sort like (dst Loc, kind.value)
# and the data-carrying kinds (Data, ParamIn, ReturnOut) have the codes from
# _DATA up.
KINDS = tuple(sorted(EdgeKind, key=lambda k: k.value))
_CODE = {k: c for c, k in enumerate(KINDS)}
_CALL, _CONTROL, _DATA, _PARAM_IN, _RETURN_OUT = (_CODE[k] for k in (
    EdgeKind.CALL, EdgeKind.CONTROL, EdgeKind.DATA, EdgeKind.PARAM_IN, EdgeKind.RETURN_OUT))
_KIND_BITS = 3
_KIND_MASK = (1 << _KIND_BITS) - 1


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
    an explicit edge. reach, induced, cell_edges, closed_cell_edges and
    data_layer walk ids;
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
        in ids, in id order. These are the edges of closed_cell_edges(ids)
        that end in ids or at a cell listed."""
        inside, n = set(ids), len(self.locs)
        stored, edges = self.closed_cell_edges(ids)
        cells = [c for c in stored if any(l in inside for l in self.cells[c][1])]
        kept = {n + c for c in cells}
        return cells, (e for e in edges if e[1] in inside or e[1] in kept)

    def closed_cell_edges(self, ids) -> tuple[list[int], list[tuple[int, int, int]]]:
        """The edges out of the nodes of ids, which must be in id order,
        with each field cell kept as a node of its own, as cell_edges
        gives them: (cells, edges), cells the cells with a load that ids
        stores to, in the order of their first store, and edges, per i of
        ids, its explicit edges in (dst Loc, kind.value) order, then its
        Data edge to its cell; then per cell, its Data edges to all its
        loads, in id order.

        For ids closed under out-edges, a sorted reach set, every one of
        these edges ends in ids, so they are cell_edges(ids), found with
        no lookup in ids."""
        (at, out), store_cell, cells, n = self._out, self._store_cell, self.cells, len(self.locs)
        stored: list[int] = []
        edges: list[tuple[int, int, int]] = []
        add = edges.append
        for i in ids:
            for x in out[at[i] : at[i + 1]]:
                add((i, x >> _KIND_BITS, x & _KIND_MASK))
            c = store_cell.get(i)
            if c is not None and cells[c][1]:
                add((i, n + c, _DATA))
                stored.append(c)
        stored = list(dict.fromkeys(stored))  # in the order of their first store
        for c in stored:
            edges += [(n + c, load, _DATA) for load in cells[c][1]]
        return stored, edges

    def cell_field(self, c: int) -> tuple[str, str]:
        """The (class, field) of cell c."""
        s = self.stmts[self.cells[c][0][0]]
        return s.cls, s.fld

    def data_layer(self, layer: list[int], parent: dict[int, int], expanded: tuple[set, set],
                   start: int, blocked: frozenset[int], sanitizing: frozenset[int]) -> list[int]:
        """The next layer of taint._search, whose states are 4 * node id +
        2 * (the path arrived via ReturnOut) + dirty: each state that a
        data-carrying edge leads to from a state of layer and that parent
        does not hold yet, recorded in parent with that state as its
        parent, in the order they are first reached.

        A state of layer other than start is not left when it arrived
        other than via ReturnOut at a node of blocked, and its path turns
        dirty when it leaves a node of sanitizing. A node's states follow
        its CSR run, in ascending order: the run is in (dst id, kind)
        order, and ReturnOut sorts after Data and ParamIn. A field store,
        the only node with a cell, has no data-carrying edge of its own;
        its cell's loads, in id order, are added with the path's dirty bit
        unless that cell is already in expanded[dirty], and it is then
        added there."""
        (at, out), cells, store_cell = self._out, self.cells, self._store_cell
        nxt: list[int] = []
        add = nxt.append
        for state in layer:
            v = state >> 2
            dirty = state & 1
            if state != start:
                if not state & 2 and v in blocked:
                    continue
                if not dirty and v in sanitizing:
                    dirty = 1
            for x in out[at[v] : at[v + 1]]:
                k = x & _KIND_MASK
                if k >= _DATA:  # Data, ParamIn or ReturnOut
                    s = (x >> _KIND_BITS << 2) + (dirty if k != _RETURN_OUT else 2 + dirty)
                    if s not in parent:
                        parent[s] = state
                        add(s)
            c = store_cell.get(v)
            if c is not None and c not in expanded[dirty]:
                expanded[dirty].add(c)
                for load in cells[c][1]:
                    s = 4 * load + dirty
                    if s not in parent:
                        parent[s] = state
                        add(s)
        return nxt

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
    statement record of one method. Built once per method by method_facts,
    for the edge builders of build_pdg, from one classification pass over
    the body, one forward pass over its CFG and one walk over the
    reachable statements.

    The classification pass dispatches on each statement's type once: it
    records the statement's CFG successors in succs (EXIT for the
    synthetic exit; falling off the end of the body exits), the local it
    defines, the locals it reads (stmt_uses order) and its record kind
    (field load or store, value return, call, branch). Nothing later
    classifies a statement again.

    defs numbers every definition as a (local, index) pair: each
    parameter's entry value (index ENTRY_DEF), then every defining
    statement in index order. before[i] is the set of definitions reaching
    statement i, as a bit set over defs (bit k stands for defs[k]); its
    keys, reachable, are the statements reachable from the entry.
    use_defs[i] gives, per position of stmt_uses(body[i]), the sorted
    definitions of that local reaching i. def_uses[d] lists the statements
    reading the local defined at d under that definition, and
    entry_uses[param] those reading the parameter's entry value. control
    lists the (branch index, dependent index) pairs of _control_pairs, for
    the reachable branches (If statements).

    The record holds the reachable statements of each kind, each list in
    index order: loads[(class, field)] and stores[(class, field)] are the
    field loads and stores of that cell, returns the statements returning
    a value, and calls maps each call statement to (). Then method_facts
    keeps in calls only the calls with program targets, in index order,
    each mapped to the call graph's own target tuple, and sets base, the
    rank of the method's first statement in p.locs(), which is its first
    dependence graph id."""

    def __init__(self, m: MethodDef):
        self.m = m
        body = m.body
        last = len(body) - 1
        defs = self.defs = [(v, ENTRY_DEF) for v in dict.fromkeys(m.params)]
        n_params = len(defs)
        add_def = defs.append
        succs: list[tuple[int, ...]] = []
        uses: list[tuple[str, ...]] = []
        add_succ, add_use = succs.append, uses.append
        loads: dict[tuple[str, str], list[int]] = {}
        stores: dict[tuple[str, str], list[int]] = {}
        returns: list[int] = []
        calls: list[int] = []
        branches: list[int] = []
        loops = False  # whether some jump goes back
        for i, s in enumerate(body):
            t = type(s)
            if t is Call:
                if s.lhs is not None:
                    add_def((s.lhs, i))
                add_use(s.args)
                calls.append(i)
            elif t is AssignCopy:
                add_def((s.lhs, i))
                add_use((s.rhs,))
            elif t is AssignConst:
                add_def((s.lhs, i))
                add_use(())
            elif t is AssignFieldLoad:
                add_def((s.lhs, i))
                add_use(())
                loads.setdefault((s.cls, s.fld), []).append(i)
            elif t is FieldStore:
                add_use((s.rhs,))
                stores.setdefault((s.cls, s.fld), []).append(i)
            elif t is If:
                add_use((s.cond,))
                branches.append(i)
                loops |= s.target <= i
                fall = i + 1 if i < last else EXIT
                add_succ((fall, s.target) if fall != s.target else (fall,))
                continue
            elif t is Goto:
                add_use(())
                loops |= s.target <= i
                add_succ((s.target,))
                continue
            elif t is Return:
                if s.value is None:
                    add_use(())
                else:
                    add_use((s.value,))
                    returns.append(i)
                add_succ(_TO_EXIT)
                continue
            else:
                raise TypeError(f"not a statement: {s!r}")
            add_succ((i + 1,) if i < last else _TO_EXIT)
        self.succs = succs

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

        every = len(before) == len(body)  # whether every statement is reachable
        if not every:  # keep the record of the reachable statements
            loads = {c: kept for c, ls in loads.items() if (kept := [i for i in ls if i in before])}
            stores = {c: kept for c, ss in stores.items()
                      if (kept := [i for i in ss if i in before])}
            returns = [i for i in returns if i in before]
            calls = [i for i in calls if i in before]
            branches = [i for i in branches if i in before]
        self.loads, self.stores, self.returns = loads, stores, returns
        self.calls: dict[int, tuple[MethodId, ...]] = dict.fromkeys(calls, ())

        # Def-use chains. Mostly a statement reads one local, which one
        # definition reaches: its bit set is then a power of two.
        use_defs: dict[int, tuple[tuple[int, ...], ...]] = {}
        def_uses: dict[int, list[int]] = {}
        entry_uses: dict[str, list[int]] = {}
        of = of_local.get
        for i in range(len(body)) if every else sorted(before):
            read = uses[i]
            if not read:
                continue
            reach = before[i]
            if len(read) == 1:
                bits = reach & of(read[0], 0)
                if bits & (bits - 1) == 0:  # no definition or one
                    if not bits:
                        use_defs[i] = ((),)
                        continue
                    v, d = defs[bits.bit_length() - 1]
                    use_defs[i] = ((d,),)
                    if d == ENTRY_DEF:
                        entry_uses.setdefault(v, []).append(i)
                    else:
                        def_uses.setdefault(d, []).append(i)
                    continue
            union, per_use = 0, []
            for v in read:
                bits = reach & of(v, 0)
                union |= bits
                ds = []
                while bits:
                    low = bits & -bits
                    ds.append(defs[low.bit_length() - 1][1])
                    bits ^= low
                per_use.append(tuple(ds))
            use_defs[i] = tuple(per_use)
            while union:  # each reaching definition once
                low = union & -union
                v, d = defs[low.bit_length() - 1]
                if d == ENTRY_DEF:
                    entry_uses.setdefault(v, []).append(i)
                else:
                    def_uses.setdefault(d, []).append(i)
                union ^= low
        self.use_defs, self.def_uses, self.entry_uses = use_defs, def_uses, entry_uses
        self.control = _control_pairs(len(body), before, succs, branches, loops)


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


def _control_pairs(n: int, reachable: Iterable[int], succs: list[tuple[int, ...]],
                   branches: list[int], loops: bool) -> tuple[tuple[int, int], ...]:
    """(branch index, dependent index) of each control dependence in a
    body of n statements, for branches, its reachable If statements in
    index order, in (branch, dependent) order. succs are the body's CFG
    successors, and loops tells whether some jump goes back (target at or
    before the jump).

    pdom[i], the statements postdominating i as a bit set, is the greatest
    fixpoint of {i} | AND of pdom over i's successors that reach the exit,
    EXIT contributing the empty set. Bit n marks the statements that
    cannot reach the exit; each of those is postdominated by itself alone.
    Branch b controls, over each successor s, pdom[s] & ~(pdom[b] minus b).
    The passes visit statements last first, so without loops every
    successor is final before its predecessor: one pass is the fixpoint."""
    if not branches:
        return ()
    stuck = 1 << n
    top = (stuck << 1) - 1  # every statement, and the cannot-reach-exit bit
    pdom = [top] * (n + 1)  # pdom[s] is top while s cannot reach the exit
    pdom[EXIT] = 0  # EXIT is -1: the last entry
    # (i, its bit, its successors, the second repeating the first when alone)
    order = [(i, 1 << i, succs[i][0], succs[i][-1]) for i in sorted(reachable, reverse=True)]
    changed = True
    while changed:
        changed = False
        for i, bit, a, b in order:
            new = pdom[a] & pdom[b] | bit
            if new != pdom[i]:
                pdom[i] = new
                changed = loops
    for i, bit, _, _ in order:
        if pdom[i] & stuck:
            pdom[i] = bit
    pairs = []
    for b in branches:
        strict = pdom[b] & ~(1 << b)
        deps = 0
        for s in succs[b]:
            deps |= pdom[s] & ~strict
        while deps:
            low = deps & -deps
            pairs.append((b, low.bit_length() - 1))
            deps ^= low
    return tuple(pairs)


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
                fed = [b + d for d in ds if d != ENTRY_DEF]
                for t in targets:
                    feed.setdefault((t, k), set()).update(fed)
                if ds and ds[0] == ENTRY_DEF:
                    passthrough.setdefault((mid, m.params.index(a)), set()).update(
                        [(t, k) for t in targets])

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
