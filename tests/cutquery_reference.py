"""Scalar reference for the cut-query model, one component at a time.

These are the query-by-query routines the library used before it read every
bisection of a Boruvka sweep off the hidden edges at once
(cutquery.bisection_outcomes). Tests pin the batched sparsifier and its
query count against them, through a CutOracle or a front that asks each
distinct side once.
"""

import numpy as np


def oracle_cross_weight(oracle, a, b) -> int:
    """Weight between two disjoint vertex sets via three cut queries."""
    ma = oracle._mask(a)
    mb = oracle._mask(b)
    if (ma & mb).any():
        raise ValueError("sets overlap")
    if not ma.any() or not mb.any():
        raise ValueError("sets must be nonempty")
    both = ma | mb
    ca = oracle.cut(ma)
    cb = oracle.cut(mb)
    cab = 0 if both.all() else oracle.cut(both)
    return (ca + cb - cab) // 2


def _residual_cross(oracle, peeled, ma, mb):
    return oracle_cross_weight(oracle, ma, mb) - peeled.cross(ma, mb)


class PeeledEdges:
    """Edges already carved out of the oracle's graph, for local subtraction."""

    def __init__(self):
        self.edges = []
        self._cache = None

    def extend(self, edges):
        """Subtract (u, v, w) edges from every later residual value."""
        self.edges.extend(edges)
        self._cache = None

    def _arrays(self):
        if self._cache is None:
            self._cache = [np.asarray(col, dtype=np.int64) for col in zip(*self.edges)]
        return self._cache

    def cut(self, mask) -> int:
        if not self.edges:
            return 0
        u, v, w = self._arrays()
        return int(w[mask[u] != mask[v]].sum())

    def cross(self, ma, mb) -> int:
        if not self.edges:
            return 0
        u, v, w = self._arrays()
        hit = (ma[u] & mb[v]) | (ma[v] & mb[u])
        return int(w[hit].sum())


def recover_crossing_edge(oracle, side, peeled=None):
    """One edge leaving `side`, or None, in at most 6 ceil(log2 n) queries.

    Bisects a fixed vertex ordering of the outside to pin the far endpoint,
    then bisects inside to pin the near one, each time following the first
    half with nonzero crossing weight. Known peeled edges are subtracted
    locally, so the recovery works on the residual graph.
    """
    if peeled is None:
        peeled = PeeledEdges()
    mask = oracle._mask(side)
    n = oracle.n
    total = oracle.cut(mask) - peeled.cut(mask)
    if total == 0:
        return None

    def pick(cand, against, weight_total):
        """Bisect cand (vertex list) against the fixed mask `against`."""
        current = weight_total
        while len(cand) > 1:
            half = cand[: len(cand) // 2]
            mh = np.zeros(n, dtype=bool)
            mh[half] = True
            c1 = _residual_cross(oracle, peeled, against, mh)
            if c1 > 0:
                cand, current = half, c1
            else:  # the other half carries all of current
                cand = cand[len(cand) // 2 :]
        return cand[0], current

    outside = [v for v in range(n) if not mask[v]]
    far, far_weight = pick(outside, mask, total)
    far_mask = np.zeros(n, dtype=bool)
    far_mask[far] = True
    inside = [v for v in range(n) if mask[v]]
    near, weight = pick(inside, far_mask, far_weight)
    return near, far, weight
