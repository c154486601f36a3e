"""In-memory cost provider: per tree, the smaller of a prefix grid and a merge-sort tree.

The graph is both the hidden edges CostProvider nets and the proxy that
Step 4 searches and 1/3-filters on, so the filter reads the tree's own index
and its Step 1 degrees. That index is a block grid, as in the simulated
models, while its (n+1)^2 words are no more than the 2 m words per level of
a WeightRangeIndex over the tree's edge points, else that merge-sort tree.
Nothing is metered.
"""

from __future__ import annotations

from .graph import WeightedGraph
from .grid import PoPrefixGrid
from .interesting import ProxyFilter
from .provider import CostProvider
from .rangeindex import edge_points


class SequentialProvider(CostProvider):
    def __init__(self, g: WeightedGraph):
        g.check_weight_sum()  # the grid route builds no WeightRangeIndex to refuse it
        super().__init__(g.n, g, (g.eu, g.ev, g.ew))
        self._tree_words = 2 * g.m * g.m.bit_length()  # one merge-sort tree
        self._dense = (g.n + 1) ** 2 <= self._tree_words

    def proxy_filter(self, *trees):
        # over merge-sort trees (alone) a grid is still the cheapest filter index per row;
        # built only while no larger than the tree indexes held, it at most doubles memory
        if not self._dense and (self.n + 1) ** 2 <= len(self._index) * self._tree_words:
            (tree,), (u, v, w) = trees, self._hidden
            grid = PoPrefixGrid(self.n, *edge_points(tree.po, u, v), w)
            return ProxyFilter(grid, tree, self._deg[self._slots[tree]])
        return super().proxy_filter(*trees)  # the trees' own indexes and Step 1 degrees

    def _eval_unique(self, rows):
        return self._values(rows)
