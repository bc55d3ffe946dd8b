"""Forward slices rooted at labelled personal-data sources."""

from __future__ import annotations

from array import array
from functools import cached_property

from .graph import KINDS, DepEdge, DepGraph
from .ir import Loc
from .registry import SourceLabel


class Slice:
    """The statement ids of g reachable from the root label's location, in
    id (= Loc) order, as an array of C longs, not one int object per id.
    nodes and edges are the Loc and DepEdge views, built on first use. A
    slice equals only itself."""

    def __init__(self, root: SourceLabel, graph: DepGraph, ids: array):
        self.root, self.graph, self.ids = root, graph, ids

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


def forward_slice(g: DepGraph, label: SourceLabel) -> Slice:
    """Everything reachable from the label over any edge kind, with the
    induced edge set."""
    root = g.id_of(label.location)
    if root is None:
        raise ValueError(f"label location {label.location} is not a graph node")
    return Slice(label, g, array("l", g.reach(root)))

