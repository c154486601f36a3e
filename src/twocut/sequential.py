"""In-memory cost provider backed by the merge-sort-tree weight index.

Each spanning tree gets its own edge-point set and WeightRangeIndex
(post-order changes with the tree); CostProvider's shared evaluation turns
every request of a round into rectangle sums on it. Nothing is metered.
"""

from __future__ import annotations

from .graph import WeightedGraph
from .provider import CostProvider, tree_rows
from .rangeindex import EdgePointSet, WeightRangeIndex


class SequentialProvider(CostProvider):
    def __init__(self, g: WeightedGraph):
        super().__init__()
        self.g = g

    def _indexes(self, ctxs):
        out = []
        for ctx in ctxs:
            pts = EdgePointSet(self.g, ctx.tree)
            out.append(WeightRangeIndex(pts.xs, pts.ys, pts.ws))
        return out

    def _eval_unique(self, items):
        return self._values(tree_rows(items))
