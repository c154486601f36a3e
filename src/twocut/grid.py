"""Exact cut evaluation from prefix sums on the post-order plane.

Once vertices are numbered by a tree's post-order, every quantity the search
asks for is determined by 1-2 contiguous index intervals: subtrees are single
intervals, pair-cut sides are unions or differences of two, complements add
at most one more. A 2-d prefix table over (po(u), po(v)) weight mass then
answers any such cut or crossing in O(1).

This is a simulator-side kernel: the cut-query oracle and the stream harness
use it to answer their counted queries / per-pass counters quickly, and the
proxy filter uses it for local threshold checks on the sparsifier.
"""

from __future__ import annotations

import numpy as np


class PoPrefixGrid:
    """Symmetric weight grid over post-order positions with 2-d prefix sums."""

    def __init__(self, n, pu, pv, w):
        """pu, pv: post-order positions of edge (or update) endpoints; w may
        be signed (stream deltas cancel inside the accumulation)."""
        a = np.zeros((n, n), dtype=np.int64)
        np.add.at(a, (pu, pv), w)
        np.add.at(a, (pv, pu), w)
        pref = np.zeros((n + 1, n + 1), dtype=np.int64)
        pref[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
        self.n = n
        self._pref = pref
        self._row = np.concatenate([[0], a.sum(axis=1).cumsum()])

    def block(self, a, b, c, d) -> int:
        """Weight mass of cells [a..b] x [c..d] (each edge appears twice in
        the symmetric grid, once per orientation)."""
        if a > b or c > d:
            return 0
        p = self._pref
        return int(p[b + 1, d + 1] - p[a, d + 1] - p[b + 1, c] + p[a, c])

    def blocks(self, a, b, c, d) -> np.ndarray:
        """Vectorized block sums for aligned coordinate arrays."""
        p = self._pref
        out = p[b + 1, d + 1] - p[a, d + 1] - p[b + 1, c] + p[a, c]
        return np.where((a <= b) & (c <= d), out, 0)

    def row_mass(self, a, b) -> int:
        """Total incident weight of positions a..b (internal edges twice)."""
        if a > b:
            return 0
        return int(self._row[b + 1] - self._row[a])

    def cut_union(self, intervals) -> int:
        """Cut value of the vertex set given as disjoint po-intervals."""
        ivs = [iv for iv in intervals if iv[0] <= iv[1]]
        total = sum(self.row_mass(a, b) for a, b in ivs)
        inside = 0
        for a, b in ivs:
            for c, d in ivs:
                inside += self.block(a, b, c, d)
        return total - inside

    def cross(self, ivs_a, ivs_b) -> int:
        """Weight between two disjoint interval-union vertex sets."""
        total = 0
        for a, b in ivs_a:
            if a > b:
                continue
            for c, d in ivs_b:
                total += self.block(a, b, c, d)
        return total


def grid_from_graph(g, po) -> PoPrefixGrid:
    return PoPrefixGrid(g.n, po[g.eu], po[g.ev], g.ew)


def subtree_degrees(grid: PoPrefixGrid, lo, hi) -> np.ndarray:
    """Cut value of every subtree range [lo[v], hi[v]]: its incident mass
    minus the mass inside it."""
    return grid._row[hi + 1] - grid._row[lo] - grid.blocks(lo, hi, lo, hi)
