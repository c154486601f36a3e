"""2-d weighted range counting and level-sampled range reporting over edge points.

Each graph edge becomes one point (min(po u, po v), max(po u, po v)) carrying
its weight, so subtree degrees and subtree-to-subtree crossings reduce to at
most two axis-aligned rectangle sums. The weight index is a static merge-sort
tree (O(m log^2 m) build) that answers a whole batch of rectangles with
O(log m) vectorized `searchsorted` calls, each over the batch. The sampling
index keeps halving subsets S_0 .. S_k whose membership is fixed by the build
seed and reports one rectangle from one mask of its points.
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
        assert (self.xs < self.ys).all(), "self-loops cannot appear as points"


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
        xs, ys, ws = (np.asarray(a, dtype=np.int64) for a in (xs, ys, ws))
        if not len(xs) == len(ys) == len(ws):
            raise ValueError("point columns differ in length")
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
        self.xs, self.ys, self.ids = (np.asarray(a, dtype=np.int64) for a in (xs, ys, ids))
        if not len(self.xs) == len(self.ys) == len(self.ids):
            raise ValueError("point columns differ in length")
        self.m = m = len(self.xs)
        self.top = ceil_log2(m) if m > 1 else 0
        rng = rng_for(seed, 0xA11CE)
        self.point_level = np.minimum(rng.geometric(0.5, size=m) - 1, self.top)

    def sample_rect(self, x1, x2, y1, y2, k):
        """The rectangle's points at or above the highest level that holds >= k
        of them (level 0 when none does), in point order."""
        if k < 1:
            raise ValueError("k must be >= 1")
        inside = (self.xs >= x1) & (self.xs <= x2) & (self.ys >= y1) & (self.ys <= y2)
        level = self.point_level[inside]
        # the levels nest: the stop level is how many levels above 0 hold >= k at or above them
        stop = (np.bincount(level, minlength=self.top + 1)[:0:-1].cumsum() >= k).sum()
        return self.ids[inside][level >= stop]


def subtree_sums(idx, t: RootedSpanTree, u, v, sub, at=None):
    """Exact values of request rows, one rect_weights call.

    Row i is CrossSub(u, v) where sub[i] holds, else CrossNested(v, u);
    DegSubtree(v) is the CrossNested row with u = v. Every row sums one
    rectangle, and a CrossNested row a second one. idx is any index over t's
    edge points with WeightRangeIndex's rect_weights contract (a
    WeightRangeIndex or a grid.PoPrefixGrid).

    Rows of many trees go in one call through a grid.GridBlock idx: t then
    holds the trees' lo and hi tables back to back (u and v index them as
    tree * n + vertex), and at[i] is the offset of row i's table in the block.
    """
    u, v, sub = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64), np.asarray(sub, dtype=bool)
    a, b, c, d = t.lo[u], t.hi[u], t.lo[v], t.hi[v]
    swap = sub & (a > c)
    a, b, c, d = np.where(swap, c, a), np.where(swap, d, b), np.where(swap, a, c), np.where(swap, b, d)
    if (sub & (b >= c)).any():
        raise ValueError("subtree ranges overlap in a CrossSub request")
    if (~sub & ((c < a) | (d > b))).any():
        raise ValueError("a CrossNested request does not nest")
    nest = np.flatnonzero(~sub)
    # first rectangles of all rows, then the nested rows' second ones
    rects = (np.concatenate((np.where(sub, a, 0), c[nest])), np.concatenate((np.where(sub, b, a - 1), d[nest])),
             np.concatenate((c, b[nest] + 1)), np.concatenate((d, np.full(len(nest), t.n - 1))))
    w = idx.rect_weights(*rects) if at is None else idx.rect_weights(*rects, np.concatenate((at, at[nest])))
    w[nest] += w[len(u) :]
    return w[: len(u)]


def tree_degrees(idx, t: RootedSpanTree):
    """The cut value of every vertex's subtree (0 at the root), one subtree_sums call."""
    v = np.arange(t.n)
    return subtree_sums(idx, t, v, v, np.zeros(t.n, dtype=bool))

