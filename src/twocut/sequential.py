"""In-memory cost provider backed by the merge-sort-tree weight index.

Each spanning tree gets its own edge-point set and WeightRangeIndex
(post-order changes with the tree); CostProvider's shared evaluation turns
every request of a round into rectangle sums on it. Nothing is metered.
"""

from __future__ import annotations

from .graph import WeightedGraph
from .provider import CostProvider
from .rangeindex import EdgePointSet, WeightRangeIndex


class SequentialProvider(CostProvider):
    def __init__(self, g: WeightedGraph):
        super().__init__(g.n)
        self.g = g

    def _indexes(self, trees):
        out = []
        for t in trees:
            pts = EdgePointSet(self.g, t)
            out.append(WeightRangeIndex(pts.xs, pts.ys, pts.ws))
        return out

    def _eval_unique(self, rows):
        return self._values(rows)
