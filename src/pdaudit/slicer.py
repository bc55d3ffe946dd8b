"""Forward slices rooted at labelled personal-data sources."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graph import KINDS, DepEdge, DepGraph
from .ir import Loc
from .registry import SinkRegistry, SourceLabel


@dataclass(frozen=True, eq=False)
class Slice:
    """The node ids of g reachable from the root label's location, in id
    (= Loc) order. nodes and edges are the Loc and DepEdge views, built on
    first use."""

    root: SourceLabel
    graph: DepGraph = field(repr=False)
    ids: tuple[int, ...]

    @cached_property
    def nodes(self) -> frozenset[Loc]:
        locs = self.graph.locs
        return frozenset(locs[i] for i in self.ids)

    @cached_property
    def edges(self) -> frozenset[DepEdge]:
        """The edges of the graph between slice nodes."""
        locs = self.graph.locs
        return frozenset(
            DepEdge(locs[i], locs[j], KINDS[k]) for i, j, k in self.graph.induced(self.ids)
        )


@dataclass(frozen=True)
class SliceStats:
    node_count: int
    methods_touched: int
    sink_nodes: frozenset[Loc]


def forward_slice(g: DepGraph, label: SourceLabel) -> Slice:
    """Everything reachable from the label over any edge kind, with the
    induced edge set."""
    root = g.id_of(label.location)
    if root is None:
        raise ValueError(f"label location {label.location} is not a graph node")
    return Slice(label, g, tuple(sorted(g.reach(root))))


def slice_stats(s: Slice, sinks: SinkRegistry) -> SliceStats:
    """Size, methods touched and sink statements of s. A statement is a
    sink or not whatever the slice, so the sink test is a lookup in
    g.sink_table(sinks), built once per graph and registry, not a registry
    match per slice node."""
    locs, table = s.graph.locs, s.graph.sink_table(sinks)
    methods = {(n.cls, n.method) for n in map(locs.__getitem__, s.ids)}
    sink_nodes = frozenset(locs[i] for i in s.ids if i in table)
    return SliceStats(len(s.ids), len(methods), sink_nodes)
