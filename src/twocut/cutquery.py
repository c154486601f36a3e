"""The counted cut-query model.

A CutOracle hides the weighted graph behind a single operation: the total
weight crossing a vertex bipartition, one query per call. Everything else
is built from that: crossings between disjoint sets cost three queries,
recovering one edge leaving a set costs O(log n) by interval bisection
(recover_crossing_edge, with the forests already found subtracted locally
by PeeledEdges, at no query), and the search's requests cost one query each
because the requesting side knows its partition already.

The sparsifier is peeled out of the oracle by proxy.peel_forests: one
bisection per component still unmerged in its Boruvka sweep. With
nonnegative weights that bisection is a fixed function of the residual
graph, since a half has nonzero residual crossing weight exactly when one
of its vertices has a residual edge to the fixed side. For a component C
it ends at far, the least vertex outside C joined to C by a positive-weight
edge, and near, the least vertex of C joined to far, with that edge's
weight, after exactly 1 + 3 (h(rank of far outside C, n - |C|) + h(rank of
near in C, |C|)) queries: cut(C), then three per halving, h(p, L) being
the halvings that reach position p of L candidates (a half is a strict
subset of the candidates, so oracle_cross_weight never skips its third
query). When C has no such edge it costs 1 query. bisection_outcomes reads
every component's outcome and price off the hidden edges in one pass per
sweep, and build_proxy_via_oracle charges each price as peel_forests admits
the component, so query_count is what the bisections would have spent.

The oracle only answers cut queries. Like the sparsifier build,
QueryProvider reads the oracle's hidden edges as a simulator speed path: it
hands them to CostProvider, which answers the search's requests from one
grid over them per tree, and still charges query_count for every request
exactly as the model prices it.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph
from .provider import B_DEG, CROSS_COEF, IS_SUB, CostProvider
from .proxy import build_proxy_graph, forests_per_class, peel_forests, proxy_edge_budget


class CutOracle:
    """Hidden weighted graph; reachable only through counted cut values."""

    def __init__(self, g: WeightedGraph):
        g.check_weight_sum()
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
        """`side` as a length-n bool mask; ValueError for another length or a vertex
        that is not an integer in 0..n-1. Only a numpy bool array is a mask: the
        items of any other iterable are vertex ids, Python bools read as 0 and 1."""
        if isinstance(side, np.ndarray) and side.dtype == bool:
            if side.shape != (self.n,):
                raise ValueError(f"a side mask must have length {self.n}, got shape {side.shape}")
            return side
        verts = list(side)
        if not all(isinstance(v, (int, np.integer)) and 0 <= v < self.n for v in verts):
            raise ValueError(f"side vertices must be integers in 0..{self.n - 1}")
        mask = np.zeros(self.n, dtype=bool)
        mask[np.array(verts, dtype=np.int64)] = True
        return mask


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


def recover_crossing_edge(oracle: CutOracle, side, peeled=None):
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


def _halvings(p, size):
    """How many halvings the bisection of recover_crossing_edge makes to
    reach position p of `size` candidates (int64 arrays): each one keeps
    the first floor(size / 2) candidates when p lies among them, else the
    rest."""
    p, size = np.asarray(p, dtype=np.int64), np.asarray(size, dtype=np.int64)
    count = np.zeros_like(size)
    while (size > 1).any():
        go = size > 1
        half = size // 2
        first = p < half
        count += go
        p = np.where(go & ~first, p - half, p)
        size = np.where(go, np.where(first, half, size - half), size)
    return count


def bisection_outcomes(oracle: CutOracle, alive, labels):
    """For every component of `labels`, what recover_crossing_edge would
    return and charge on the residual graph of the oracle's edges with
    alive[i] (in the oracle's edge order), read off those edges in one pass
    and without a query; the module docstring says why both are fixed.
    Returns int64 arrays (near, far, weight, queries) over the labels,
    weight 0 where the bisection would return None.
    """
    n, ew = oracle.n, oracle._ew
    keys = oracle._eu * n + oracle._ev
    residual = alive & (ew > 0)
    u, v = oracle._eu[residual], oracle._ev[residual]
    lu, lv = labels[u], labels[v]
    cross = lu != lv
    k = int(labels.max()) + 1
    best = np.full(k, n * n, dtype=np.int64)  # least far * n + near per component
    np.minimum.at(best, np.concatenate((lu[cross], lv[cross])),
                  np.concatenate((v[cross] * n + u[cross], u[cross] * n + v[cross])))
    found = best < n * n
    far, near = np.divmod(np.where(found, best, 0), n)
    weight = np.zeros(k, dtype=np.int64)
    weight[found] = ew[np.searchsorted(keys, np.minimum(near, far)[found] * n + np.maximum(near, far)[found])]
    # ranks among C and among the rest, from the vertices sorted by (label, vertex)
    by_label = np.sort(labels * n + np.arange(n))
    c = np.arange(k) * n
    start, near_at, far_at = np.searchsorted(by_label, np.stack((c, c + near, c + far)))
    size = np.bincount(labels, minlength=k)
    queries = 1 + 3 * (_halvings(far - (far_at - start), n - size) + _halvings(near_at - start, size))
    return near, far, weight, np.where(found, queries, 1)


def build_proxy_via_oracle(oracle: CutOracle, eps) -> WeightedGraph:
    """Forest peeling against the oracle: recover a spanning forest of the
    residual graph, subtract it, repeat until exhaustion or the forest cap.

    A class-restricted peel is not observable through whole-graph cut
    queries, so the forests are peeled from the full residual graph; at the
    scales the budgets are asserted on, peeling exhausts the graph and the
    proxy is exact. Each sweep's recoveries are recover_crossing_edge's
    bisections, whose outcomes and prices (1 + 3 halvings per component,
    see the module docstring) bisection_outcomes reads at once off the
    hidden edges. Recovery stays lazy: query_count is charged a component's
    exact price only when peel_forests admits it, so a component merged
    earlier in its sweep costs no query. A finished forest is subtracted by
    clearing its edges in an alive mask over the oracle's sorted edge keys.
    The oracle still answers nothing but cut queries.
    """
    n = oracle.n
    keys = oracle._eu * n + oracle._ev
    alive = np.ones(len(keys), dtype=bool)

    def recover(sweep, labels, live):
        near, far, weight, queries = (col.tolist() for col in bisection_outcomes(oracle, alive, labels))
        for c in range(len(near)):
            if not live(c):
                yield None
                continue
            oracle.query_count += queries[c]
            yield (near[c], far[c], weight[c]) if weight[c] else None

    def subtract(forest):
        a, b, _ = np.array(forest, dtype=np.int64).T
        alive[np.searchsorted(keys, np.minimum(a, b) * n + np.maximum(a, b))] = False

    kept = peel_forests(n, recover, subtract, 40 * forests_per_class(n, eps), 1, proxy_edge_budget(n, eps), [])
    return WeightedGraph(n, kept, require_connected=False)


class QueryProvider(CostProvider):
    """Requests priced per the model: subtree cuts and pair cuts one query,
    subtree crossings three (two when the sides cover V)."""

    def __init__(self, oracle: CutOracle, proxy: WeightedGraph):
        super().__init__(oracle.n, proxy, (oracle._eu, oracle._ev, oracle._ew))
        self.oracle = oracle
        self.stats.queries = oracle.query_count

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


def query_provider(oracle: CutOracle, eps=0.1, rng=None) -> QueryProvider:
    """Provider over the oracle, with its sparsifier built the same way.

    `rng` is accepted and unused: the oracle's forest peeling draws nothing.
    """
    return QueryProvider(oracle, build_proxy_graph(oracle, eps))
