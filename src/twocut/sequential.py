"""In-memory cost provider backed by the merge-sort-tree weight index.

Each spanning tree gets its own edge-point set and WeightRangeIndex
(post-order changes with the tree); CostProvider's shared evaluation turns
every request of a round into rectangle sums on it. Nothing is metered.
The graph is also the proxy that Step 4 samples and 1/3-filters on.
"""

from __future__ import annotations

from .graph import WeightedGraph
from .provider import CostProvider
from .rangeindex import EdgePointSet, WeightRangeIndex


class SequentialProvider(CostProvider):
    def __init__(self, g: WeightedGraph):
        super().__init__(g.n, g)

    def _indexes(self, trees):
        out = []
        for t in trees:
            pts = EdgePointSet(self.proxy, t)
            out.append(WeightRangeIndex(pts.xs, pts.ys, pts.ws))
        return out

    def proxy_index(self, ctx):
        # a grid is the cheapest filter index per row; built only while no larger than
        # the tree indexes held (2 m words per level each), it at most doubles memory
        m = self.proxy.m
        if (self.n + 1) ** 2 <= len(self._index) * 2 * m * m.bit_length():
            return super().proxy_index(ctx)
        return self._index[self._slots[ctx.uid]]  # built by the tree's first batch (Step 1)

    def _eval_unique(self, rows):
        return self._values(rows)
