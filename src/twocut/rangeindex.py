"""2-d weighted range counting and level-sampled range reporting over edge points.

Each graph edge becomes one point (min(po u, po v), max(po u, po v)) carrying
its weight, so subtree degrees and subtree-to-subtree crossings reduce to at
most two axis-aligned rectangle sums. The weight index is a static merge-sort
tree (O(m log^2 m) build) that answers a whole batch of rectangles with
O(log m) vectorized `searchsorted` calls, each over the batch; the sampling
index keeps halving subsets S_0 .. S_k whose membership is fixed by the build
seed, and `sample_rects` reports a batch of rectangles over several sampling
indexes in one pass.
"""

from __future__ import annotations

import numpy as np

from .graph import WEIGHT_SUM_LIMIT, RootedSpanTree, WeightedGraph, WeightOverflowError
from .util import ceil_log2, rng_for


def edge_points(po, eu, ev):
    """Each edge's point (min(po u, po v), max(po u, po v)) under a post-order."""
    pu, pv = po[eu], po[ev]
    return np.minimum(pu, pv), np.maximum(pu, pv)


class EdgePointSet:
    """All edges of one (graph, tree) pair as strict upper-triangle points."""

    def __init__(self, g: WeightedGraph, t: RootedSpanTree):
        self.xs, self.ys = edge_points(t.po, g.eu, g.ev)
        self.ws = g.ew.copy()
        self.ids = np.arange(g.m, dtype=np.int64)
        self.n = t.n
        assert (self.xs < self.ys).all(), "self-loops cannot appear as points"

    def __len__(self):
        return len(self.xs)


class WeightRangeIndex:
    """Merge-sort tree: exact weight sums over batches of axis-aligned rectangles.

    Points are ranked by (x, y). Level d cuts the ranks into blocks of 2**d;
    its one flat array holds the keys block * K + rank(y), sorted, so every
    block is a sorted run and one `searchsorted` locates a y bound inside
    any block. One prefix sum of the weights in that order per level turns
    each located run into a weight. The first k ranks split into the blocks
    named by the set bits of k, which gives the four dominance sums behind a
    rectangle with two searches per level for the whole batch.
    """

    def __init__(self, xs, ys, ws):
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        ws = np.asarray(ws, dtype=np.int64)
        self.total = sum(ws.tolist())
        if self.total >= WEIGHT_SUM_LIMIT:
            raise WeightOverflowError(f"total point weight {self.total} reaches 2**62")
        order = np.lexsort((ys, xs))
        self.xs = xs[order]
        self.m = m = len(xs)
        self._yvals, yrank = np.unique(ys[order], return_inverse=True)
        self._span = len(self._yvals) + 1
        w = ws[order]
        perm = np.arange(m, dtype=np.int64)
        self._keys = []
        self._cum = []
        for d in range(m.bit_length()):
            keys = (perm >> d) * self._span + yrank[perm]
            step = np.argsort(keys, kind="stable")  # merges the sorted runs of level d-1
            perm = perm[step]
            self._keys.append(keys[step])
            self._cum.append(np.concatenate(([0], np.cumsum(w[perm]))))

    def rect_weights(self, x1, x2, y1, y2):
        """Weight sums of the rectangles [x1, x2] x [y1, y2] (aligned int64 arrays).

        Empty and inverted rectangles sum to 0; bounds may lie anywhere.
        """
        x1, x2, y1, y2 = (np.asarray(a, dtype=np.int64) for a in (x1, x2, y1, y2))
        lo = np.searchsorted(self.xs, x1, side="left")
        hi = np.searchsorted(self.xs, x2, side="right")
        top = np.searchsorted(self._yvals, y2, side="right") - 1
        bot = np.searchsorted(self._yvals, y1, side="left") - 1
        q = len(x1)
        # strip(k) = F(k, top) - F(k, bot), F the dominance sum over ranks < k
        k = np.concatenate((hi, lo))
        hi_y = np.concatenate((top, top))
        lo_y = np.concatenate((bot, bot))
        strip = np.zeros(2 * q, dtype=np.int64)
        for d, (keys, cum) in enumerate(zip(self._keys, self._cum)):
            sel = np.flatnonzero((k >> d) & 1)
            base = ((k[sel] >> d) - 1) * self._span
            strip[sel] += (cum[np.searchsorted(keys, base + hi_y[sel], side="right")]
                           - cum[np.searchsorted(keys, base + lo_y[sel], side="right")])
        ok = (x1 <= x2) & (y1 <= y2)
        return np.where(ok, strip[:q] - strip[q:], 0)

    def rect_weight(self, x1, x2, y1, y2) -> int:
        return int(self.rect_weights([x1], [x2], [y1], [y2])[0])


class SampleRangeIndex:
    """Halving level subsets with per-level reporting.

    Level membership is drawn once at build time: a point reaches level i
    with probability 2**-i (independent fair coins), so S_0 is everything and
    |S_i| halves in expectation. Reporting a rectangle at the first level
    (from the top) holding >= k of its points yields a size-k..O(k) subset in
    which every rectangle point is included with the same probability.
    """

    def __init__(self, xs, ys, ids, seed):
        m = len(xs)
        self.m = m
        self.top = ceil_log2(m) if m > 1 else 0
        rng = rng_for(seed, 0xA11CE)
        top_level = rng.geometric(0.5, size=m) - 1 if m else np.zeros(0, dtype=np.int64)
        self.point_level = np.minimum(top_level, self.top).astype(np.int64)
        self.xs = np.asarray(xs, dtype=np.int64)
        self.ys = np.asarray(ys, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)

    def sample_rect(self, x1, x2, y1, y2, k):
        """All rectangle points of the shallowest level that reports >= k of them."""
        return sample_rects([self], [x1], [x2], [y1], [y2], k)[1]


SAMPLE_CHUNK_CELLS = 1 << 19  # rows x points per pass of sample_rects: 4 MB of int64


def sample_rects(indexes, x1, x2, y1, y2, k):
    """sample_rect of every rectangle (aligned int64 arrays) in every index, in one pass.

    The indexes are strata with disjoint points and levels of their own.
    Returns aligned (rectangle row, point id) arrays, rows ascending; within
    a row the points come index by index, each in point order. One histogram
    of (row, stratum, level) over the points inside each rectangle gives,
    since the levels nest, every stop level: the highest holding >= k
    points, or 0 when the stratum's part holds <= k (all of it is reported
    either way).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    none = np.zeros(0, dtype=np.int64)
    xs, ys, ids, level = (np.concatenate([getattr(ix, a) for ix in indexes] + [none])
                          for a in ("xs", "ys", "ids", "point_level"))
    strata = len(indexes)
    width = max((ix.top for ix in indexes), default=0) + 1
    stratum = np.repeat(np.arange(strata), [ix.m for ix in indexes])
    cell = stratum * width + level
    x1, x2, y1, y2 = (np.asarray(a, dtype=np.int64)[:, None] for a in (x1, x2, y1, y2))
    step = max(1, SAMPLE_CHUNK_CELLS // max(len(xs), 1))
    rows, got = [none], [none]
    for s in range(0, len(x1), step):
        c = slice(s, s + step)
        r, p = np.nonzero((xs >= x1[c]) & (xs <= x2[c]) & (ys >= y1[c]) & (ys <= y2[c]))
        nr = len(x1[c])
        hist = np.bincount(r * (strata * width) + cell[p], minlength=nr * strata * width)
        counts_at = hist.reshape(nr, strata, width)[:, :, ::-1].cumsum(axis=2)[:, :, ::-1]
        stop = np.maximum((counts_at >= k).sum(axis=2) - 1, 0)
        keep = level[p] >= stop[r, stratum[p]]
        rows.append(r[keep] + s)
        got.append(ids[p[keep]])
    return np.concatenate(rows), np.concatenate(got)


def subtree_rects(t: RootedSpanTree, u, v, sub):
    """The two rectangles per request row whose weight sums answer it.

    Row i is CrossSub(u, v) where sub[i] holds, else CrossNested(v, u);
    DegSubtree(v) is the CrossNested row with u = v. Returns x1, x2, y1, y2,
    each of shape (2, rows); a CrossSub's second rectangle is empty.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    sub = np.asarray(sub, dtype=bool)
    a, b, c, d = t.lo[u], t.hi[u], t.lo[v], t.hi[v]
    swap = sub & (a > c)
    a, b, c, d = np.where(swap, c, a), np.where(swap, d, b), np.where(swap, a, c), np.where(swap, b, d)
    if (sub & (b >= c)).any():
        raise ValueError("subtree ranges overlap in a CrossSub request")
    if (~sub & ((c < a) | (d > b))).any():
        raise ValueError("a CrossNested request does not nest")
    n = t.n
    # np.array of two rows: same as np.stack, at a sixth of its call cost
    x1 = np.array((np.where(sub, a, 0), c))
    x2 = np.array((np.where(sub, b, a - 1), d))
    y1 = np.array((c, np.where(sub, n, b + 1)))
    y2 = np.array((d, np.full_like(d, n - 1)))
    return x1, x2, y1, y2


def subtree_sums(idx, t: RootedSpanTree, u, v, sub):
    """Exact values of the subtree_rects request rows, one rect_weights call.

    idx is any index over t's edge points with WeightRangeIndex's
    rect_weights contract (a WeightRangeIndex or a grid.PoPrefixGrid).
    """
    x1, x2, y1, y2 = subtree_rects(t, u, v, sub)
    return idx.rect_weights(x1.ravel(), x2.ravel(), y1.ravel(), y2.ravel()).reshape(2, -1).sum(axis=0)


def tree_degrees(idx, t: RootedSpanTree):
    """The cut value of every vertex's subtree (0 at the root), one subtree_sums call."""
    v = np.arange(t.n)
    return subtree_sums(idx, t, v, v, np.zeros(t.n, dtype=bool))

