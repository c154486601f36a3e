"""The counted cut-query model.

A CutOracle hides the weighted graph behind a single operation: the total
weight crossing a vertex bipartition, one query per call. Everything else
is built from that: crossings between disjoint sets cost three queries,
recovering one edge leaving a set costs O(log n) by interval bisection, and
the search's requests cost one query each because the requesting side knows
its partition already.

The values of the search's requests come from the providers' shared subtree
formula over a PoPrefixGrid the oracle builds from its hidden edges, one
per tree; that is a simulator speed path, and QueryProvider still charges
query_count for every request exactly as the model prices it.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph
from .grid import PoPrefixGrid
from .provider import B_DEG, CROSS_COEF, IS_SUB, CostProvider
from .proxy import ResourceBudgetError, forests_per_class, proxy_edge_budget
from .rangeindex import edge_points
from .util import DisjointSets


class CutOracle:
    """Hidden weighted graph; reachable only through counted cut values."""

    def __init__(self, g: WeightedGraph):
        self.n = g.n
        self._eu = g.eu
        self._ev = g.ev
        self._ew = g.ew
        self.query_count = 0

    def cut(self, side) -> int:
        """One cut query. `side` is a boolean mask or vertex iterable."""
        mask = self._mask(side)
        if not mask.any() or mask.all():
            raise ValueError("side must be a proper nonempty subset")
        self.query_count += 1
        crossing = mask[self._eu] != mask[self._ev]
        return int(self._ew[crossing].sum())

    def _mask(self, side):
        if isinstance(side, np.ndarray) and side.dtype == bool:
            return side
        mask = np.zeros(self.n, dtype=bool)
        mask[list(side)] = True
        return mask

    def po_grid(self, po) -> PoPrefixGrid:
        """Simulator fast path: the hidden edges as a grid under one post-order.

        It counts nothing; whoever answers cut values from it charges the
        queries they stand for to query_count.
        """
        return PoPrefixGrid(self.n, *edge_points(po, self._eu, self._ev), self._ew)


def oracle_cross_weight(oracle: CutOracle, a, b) -> int:
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
        self.u = []
        self.v = []
        self.w = []
        self._cache = None

    def add(self, u, v, w):
        self.u.append(u)
        self.v.append(v)
        self.w.append(w)
        self._cache = None

    def _arrays(self):
        if self._cache is None:
            self._cache = (
                np.asarray(self.u, dtype=np.int64),
                np.asarray(self.v, dtype=np.int64),
                np.asarray(self.w, dtype=np.int64),
            )
        return self._cache

    def cut(self, mask) -> int:
        if not self.u:
            return 0
        u, v, w = self._arrays()
        return int(w[mask[u] != mask[v]].sum())

    def cross(self, ma, mb) -> int:
        if not self.u:
            return 0
        u, v, w = self._arrays()
        hit = (ma[u] & mb[v]) | (ma[v] & mb[u])
        return int(w[hit].sum())


def recover_crossing_edge(oracle: CutOracle, side, rng=None, mode="any", peeled=None):
    """One edge leaving `side`, or None, in at most 6 ceil(log2 n) queries.

    Bisects a fixed vertex ordering of the outside to pin the far endpoint,
    then bisects inside to pin the near one. mode "any" follows nonzero
    halves; mode "uniform" picks halves with probability proportional to
    their crossing weight, which makes the returned edge weighted-uniform
    among all crossing edges. Known peeled edges are subtracted locally, so
    the recovery works on the residual graph.
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
            if mode == "uniform":
                take_first = rng.random() < (c1 / current if current else 0.0)
            else:
                take_first = c1 > 0
            if take_first:
                cand = half
                current = c1
            else:
                cand = cand[len(cand) // 2 :]
                current = current - c1
        return cand[0], current

    outside = [v for v in range(n) if not mask[v]]
    far, far_weight = pick(outside, mask, total)
    far_mask = np.zeros(n, dtype=bool)
    far_mask[far] = True
    inside = [v for v in range(n) if mask[v]]
    near, weight = pick(inside, far_mask, far_weight)
    return near, far, weight


def build_proxy_via_oracle(oracle: CutOracle, eps, rng, c4=1.0, c3=4.0) -> WeightedGraph:
    """Forest peeling against the oracle: recover a spanning forest of the
    residual graph, subtract it, repeat until exhaustion or the forest cap.

    A class-restricted peel is not observable through whole-graph cut
    queries, so the forests are peeled from the full residual graph; at the
    scales the budgets are asserted on, peeling exhausts the graph and the
    proxy is exact.
    """
    n = oracle.n
    budget = proxy_edge_budget(n, eps, c3)
    cap = 40 * forests_per_class(n, eps, c4)
    peeled = PeeledEdges()
    kept = []
    for _ in range(cap):
        ds = DisjointSets(n)
        forest = []
        progress = True
        while ds.count > 1 and progress:
            progress = False
            groups = {}
            for v in range(n):
                groups.setdefault(ds.find(v), []).append(v)
            for r, members in groups.items():
                # skip components touched earlier in this sweep; they get a
                # fresh member list next sweep
                if ds.find(r) != r or ds.size[r] != len(members) or len(members) == n:
                    continue
                got = recover_crossing_edge(oracle, members, rng, "any", peeled)
                if got is None:
                    continue
                u, v, w = got
                if ds.union(u, v):
                    forest.append((u, v, w))
                    progress = True
        if not forest:
            break
        for u, v, w in forest:
            peeled.add(u, v, w)
            kept.append((u, v, w))
        if len(kept) > budget:
            raise ResourceBudgetError(f"oracle proxy exceeded {budget} edges")
    return WeightedGraph(n, kept, require_connected=True)


class QueryProvider(CostProvider):
    """Requests priced per the model: subtree cuts and pair cuts one query,
    subtree crossings three (two when the sides cover V)."""

    def __init__(self, oracle: CutOracle, proxy: WeightedGraph):
        super().__init__(oracle.n)
        self.oracle = oracle
        self._proxy = proxy
        self.stats.queries = oracle.query_count

    def proxy_graph(self):
        return self._proxy

    def _indexes(self, trees):
        return [self.oracle.po_grid(t.po) for t in trees]

    def _eval_unique(self, rows):
        self.oracle.query_count += _query_cost(self._size, rows)
        self.stats.queries = self.oracle.query_count
        return self._values(rows)


def _query_cost(size, rows) -> int:
    """Cut queries behind request rows (slot, kind, a, b), given the (slots, n)
    subtree sizes of their trees (see provider.py for the kinds).

    A subtree or pair cut is one query on its side: sub(a) plus (orthogonal)
    or minus (nested) sub(b). A crossing of sides A = sub(b) and B = sub(a)
    (CrossSub) or V - sub(a) (CrossNested) is three, cut(A) + cut(B) -
    cut(A + B), or two when A + B is all of V. ValueError when a side is
    empty or all of V, as for CutOracle.cut.
    """
    n = size.shape[1]
    slot, kind, a, b = rows.T
    sa, sb = size[slot, a], size[slot, b]
    sub = IS_SUB[kind]
    cut = CROSS_COEF[kind] != 1
    side_a = np.where(cut, sa + B_DEG[kind] * np.where(sub, sb, -sb), sb)
    side_b = np.where(sub, sa, n - sa)
    sides = np.concatenate((side_a, side_b[~cut]))
    if ((sides <= 0) | (sides >= n)).any():
        raise ValueError("side must be a proper nonempty subset")
    return int(np.where(cut, 1, 3 - (side_a + side_b == n)).sum())


def query_provider(oracle: CutOracle, eps=0.1, rng=None, c4=1.0, c3=4.0) -> QueryProvider:
    """Provider over the oracle, with its sparsifier built the same way."""
    proxy = build_proxy_via_oracle(oracle, eps, rng, c4, c3)
    return QueryProvider(oracle, proxy)
