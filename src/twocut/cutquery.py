"""The counted cut-query model.

A CutOracle hides the weighted graph behind a single operation: the total
weight crossing a vertex bipartition, one query per call. The sparsifier
recovers boundary edges by bisection, and the search's requests cost one
query per side they ask, because the requesting side knows its partition
already: a crossing of disjoint sets A and B is (cut(A) + cut(B) -
cut(A + B)) / 2, three queries.

A querier never asks a side twice. The sparsifier build and QueryProvider
each keep a CutCache of the sides they have asked, a side and its
complement counting as one since they have one cut, and charge query_count
only for sides new to it. The cache names a side by a 64-bit key: the
wrapping sum h of one random word per vertex, folded with the sum T over
all vertices as min(h, T - h). Over N distinct sides the chance that any
two share a key is below N^2 2^-64; a shared key would only undercount the
meter, never change a value, since values are read off the hidden edges.

The sparsifier is peeled out of the oracle by proxy.peel_forests: one
bisection per component C still unmerged in its Boruvka sweep, on the
residual graph (the oracle's edges minus the forests already peeled, which
the querier subtracts locally at no query). It asks cut(C), and stops when
C's residual cut is 0. Else it pins the far endpoint by halving the
vertices outside C in vertex order: it asks the first floor(L / 2) of the L
candidates left as a half H, and C + H (and C again, a repeat), and keeps H
when H's residual crossing with C is positive, else the rest. It then asks
cut({far}) when C has two or more vertices and halves C the same way
against {far}, asking H and {far} + H. With nonnegative weights a half has
positive residual crossing exactly when one of its vertices has a residual
edge to the fixed side, so the outcome is a fixed function of the residual
graph: far is the least vertex outside C joined to C by a positive-weight
edge, near the least vertex of C joined to far, with that edge's weight.
bisection_outcomes reads every component's outcome and the word sums of its
sides off the hidden edges in one pass per sweep, and
build_proxy_via_oracle charges the sides of the components peel_forests
admits, so query_count is what the bisections spend, repeats free.

The oracle only answers cut queries. Like the sparsifier build,
QueryProvider reads the oracle's hidden edges as a simulator speed path: it
hands them to CostProvider, which answers the search's requests from one
grid over them per tree, and still charges query_count for every side a
request's queries ask that the provider has not asked before.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph
from .provider import CROSS_NESTED, CROSS_SUB, CostProvider
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


# perfbench's tracer patches this name, which nothing calls;
# ROADMAP item 2 deletes this line along with the patching
recover_crossing_edge = None


CUT_CACHE_SEED = 2019  # seeds the vertex words of every CutCache


class CutCache:
    """The sides one querier has asked of its oracle, by 64-bit key (see the
    module docstring): asking a side again, or its complement, costs nothing.

    A side is handed over as the wrapping uint64 sum of `words` over its
    vertices; the keys seen are kept in one sorted uint64 array.
    """

    def __init__(self, oracle: CutOracle):
        self.oracle = oracle
        self.words = np.random.default_rng(CUT_CACHE_SEED).integers(
            0, np.iinfo(np.uint64).max, size=oracle.n, dtype=np.uint64, endpoint=True)
        self.total = self.words.sum()
        self.seen = np.zeros(0, dtype=np.uint64)

    def key(self, sums):
        """The keys of sides with these word sums; a side and its complement share one."""
        return np.minimum(sums, self.total - sums)

    def charge(self, sums):
        """Count one query on the oracle for each distinct side among `sums`
        (uint64 word sums) that was not asked before, and remember them."""
        merged = np.concatenate((self.seen, np.sort(self.key(sums))))
        merged.sort(kind="stable")  # two sorted runs: one merge
        first = np.ones(len(merged), dtype=bool)
        first[1:] = merged[1:] != merged[:-1]
        self.oracle.query_count += int(first.sum()) - len(self.seen)
        self.seen = merged[first]


def _prefix_sums(words):
    """Wrapping uint64 sums of the first 0..L of the L words along the last axis."""
    out = np.zeros((*words.shape[:-1], words.shape[-1] + 1), dtype=np.uint64)
    np.cumsum(words, axis=-1, out=out[..., 1:])
    return out


def _halves(problems, p, size):
    """(problem, lo, mid) of every halving that a component's bisection (see
    the module docstring) makes to reach rank p[q] among size[q] candidates,
    for each q in `problems` (int64 arrays): each asks ranks lo..mid-1, the
    first floor(L / 2) of the L candidates left, and keeps them when p lies
    among them, else the rest."""
    c, p, lo, hi = problems, p[problems], np.zeros(len(problems), dtype=np.int64), size[problems]
    out = [(c[:0], lo[:0], lo[:0])]
    while len(c):
        go = hi - lo > 1
        c, p, lo, hi = c[go], p[go], lo[go], hi[go]
        mid = (lo + hi) // 2
        out.append((c, lo, mid))
        first = p < mid
        lo, hi = np.where(first, lo, mid), np.where(first, mid, hi)
    return (np.concatenate(col) for col in zip(*out))


def bisection_outcomes(oracle: CutOracle, words, alive, labels):
    """The bisection of every component of `labels` on the residual graph of
    the oracle's edges with alive[i] (in the oracle's edge order): the edge
    it pins and the sides it asks, read off those edges in one pass and
    without a query; the module docstring says why both are fixed. Returns
    int64 arrays (near, far, weight) over the labels, weight 0 where C's
    residual cut is 0 and no edge is pinned, then every side asked as its uint64 sum of
    `words` (one per vertex), with the label of the component that asks it.
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
    owner, members = np.divmod(by_label, n)
    # word sums of rank ranges: the outside vertex of rank q is q + j, j being
    # the members m_i (i-th of C) with m_i - i <= q
    every, inside = _prefix_sums(words), _prefix_sums(words[members])
    gaps = owner * (n + 1) + members - (np.arange(n) - start[owner])

    def outside(c, q):
        j = np.searchsorted(gaps, c * (n + 1) + q, side="right") - start[c]
        return every[q + j] - (inside[start[c] + j] - inside[start[c]])

    whole = inside[start + size] - inside[start]
    comps = np.flatnonzero(found)
    # the far bisection of component c is problem c, its near one problem k + c
    problems = np.concatenate((comps, k + comps))
    q, lo, mid = _halves(problems, np.concatenate((far - (far_at - start), near_at - start)),
                         np.concatenate((n - size, size)))
    is_far = q < k
    fc, nc = q[is_far], q[~is_far] - k
    far_half = outside(fc, mid[is_far]) - outside(fc, lo[is_far])
    near_half = inside[start[nc] + mid[~is_far]] - inside[start[nc] + lo[~is_far]]
    halving = comps[size[comps] > 1]  # these ask cut({far})
    sums = np.concatenate((whole, far_half, whole[fc] + far_half, words[far[halving]], near_half,
                           words[far[nc]] + near_half))
    return near, far, weight, sums, np.concatenate((np.arange(k), fc, fc, halving, nc, nc))


def build_proxy_via_oracle(oracle: CutOracle, eps) -> WeightedGraph:
    """Forest peeling against the oracle: recover a spanning forest of the
    residual graph, subtract it, repeat until exhaustion or the forest cap.

    A class-restricted peel is not observable through whole-graph cut
    queries, so the forests are peeled from the full residual graph; at the
    scales the budgets are asserted on, peeling exhausts the graph and the
    proxy is exact. Each sweep recovers an edge per component by bisection,
    whose outcomes and sides bisection_outcomes reads at once off the hidden
    edges. Recovery stays lazy: after the sweep, one CutCache
    for the whole build is charged the sides of the components peel_forests
    admitted, so a component merged earlier in its sweep asks nothing and
    no side is paid for twice. A finished forest is subtracted by clearing
    its edges in an alive mask over the oracle's sorted edge keys. The
    oracle still answers nothing but cut queries.
    """
    n = oracle.n
    keys = oracle._eu * n + oracle._ev
    alive = np.ones(len(keys), dtype=bool)
    cache = CutCache(oracle)

    def recover(sweep, labels, live):
        near, far, weight, sums, askers = bisection_outcomes(oracle, cache.words, alive, labels)
        admitted = []
        for got in zip(near.tolist(), far.tolist(), weight.tolist()):
            admitted.append(live(len(admitted)))
            yield got if admitted[-1] and got[2] else None
        cache.charge(sums[np.array(admitted)[askers]])

    def subtract(forest):
        a, b, _ = np.array(forest, dtype=np.int64).T
        alive[np.searchsorted(keys, np.minimum(a, b) * n + np.maximum(a, b))] = False

    kept = peel_forests(n, recover, subtract, 40 * forests_per_class(n, eps), 1, proxy_edge_budget(n, eps), [])
    return WeightedGraph(n, kept, require_connected=False)


class QueryProvider(CostProvider):
    """Requests priced per the model, one cut query for each side they ask
    (see _query_sides) that this provider has not asked before, by one
    CutCache for all its trees. It keeps the word sum of every subtree side
    of each slot, from one prefix sum over the tree's post-order."""

    def __init__(self, oracle: CutOracle, proxy: WeightedGraph):
        super().__init__(oracle.n, proxy, (oracle._eu, oracle._ev, oracle._ew))
        self.oracle = oracle
        self.cache = CutCache(oracle)
        self._sub = np.zeros((0, oracle.n), dtype=np.uint64)
        self.stats.queries = oracle.query_count

    def _eval_unique(self, rows):
        k = len(self._sub)
        if k < len(self._trees):
            prefix = _prefix_sums(self.cache.words[np.array([t.order for t in self._trees[k:]])])
            sub = np.take_along_axis(prefix, self._hi[k:] + 1, 1) - np.take_along_axis(prefix, self._lo[k:], 1)
            self._sub = np.vstack((self._sub, sub))
        self.cache.charge(_query_sides(self._size, self._sub, rows))
        self.stats.queries = self.oracle.query_count
        return self._values(rows)


# per request kind, the sides its cut queries ask, each x sub a + y sub b for
# (x, y) = (SIDE_X, SIDE_Y)[kind, j]: a subtree or pair cut asks one side
# (j = 0), a crossing of A and B asks A, B and A + B (j = 0, 1, 2), and for
# a CrossNested, B = V - sub a and A + B = V - (sub a - sub b) are asked as
# their complements
SIDE_X = np.array([[1, 0, 0], [1, 0, 1], [0, 1, 1], [1, 0, 0], [1, 0, 0], [1, 0, 0]])
SIDE_Y = np.array([[0, 0, 0], [0, 1, 1], [1, 0, -1], [0, 0, 0], [1, 0, 0], [-1, 0, 0]])


def _query_sides(size, sub, rows):
    """Word sums (uint64) of the sides that the cut queries behind request
    rows (slot, kind, a, b) ask, given the (slots, n) subtree sizes and
    subtree word sums of their trees (see provider.py for the kinds). The
    sides of a CrossNested with a = b cover V, so its third is not asked.
    ValueError when a cut's side, or one of the two sides of a crossing, is
    empty or all of V, as for CutOracle.cut.
    """
    n = size.shape[1]
    slot, kind, a, b = rows.T
    cross = np.flatnonzero((kind == CROSS_SUB) | (kind == CROSS_NESTED))
    third = cross[(kind[cross] == CROSS_SUB) | (a[cross] != b[cross])]
    asked = ((slice(None), 0), (cross, 1), (third, 2))  # (rows, j)
    sa, sb = size[slot, a], size[slot, b]
    for r, j in asked[:2]:
        sides = SIDE_X[kind[r], j] * sa[r] + SIDE_Y[kind[r], j] * sb[r]
        if ((sides <= 0) | (sides >= n)).any():
            raise ValueError("side must be a proper nonempty subset")
    ha, hb = sub[slot, a], sub[slot, b]
    x, y = SIDE_X.astype(np.uint64), SIDE_Y.astype(np.uint64)  # -1 wraps to 2^64 - 1
    return np.concatenate([x[kind[r], j] * ha[r] + y[kind[r], j] * hb[r] for r, j in asked])


def query_provider(oracle: CutOracle, eps=0.1, rng=None) -> QueryProvider:
    """Provider over the oracle, with its sparsifier built the same way.

    `rng` is accepted and unused: the oracle's forest peeling draws nothing.
    """
    return QueryProvider(oracle, build_proxy_graph(oracle, eps))
