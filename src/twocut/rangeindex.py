"""2-d weighted range counting and level-sampled range reporting over edge points.

Each graph edge becomes one point (min(po u, po v), max(po u, po v)) carrying
its weight, so subtree degrees and subtree-to-subtree crossings reduce to at
most two axis-aligned rectangle sums. The weight index is a static merge-sort
tree (O(m log^2 m) build) that answers a whole batch of rectangles with
O(log m) vectorized `searchsorted` calls, each over the batch. The sampling
index keeps halving subsets S_0 .. S_k whose membership is fixed by the build
seed; `sample_rects` reports a batch of rectangles over several sampling
indexes at once, each (rectangle, index) pair scanning only the shorter of
its x-run and y-run in one table of the points sorted by x and by y.
"""

from __future__ import annotations

from bisect import bisect_right

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
        self.m = m = len(xs)
        self.top = ceil_log2(m) if m > 1 else 0
        rng = rng_for(seed, 0xA11CE)
        self.point_level = np.minimum(rng.geometric(0.5, size=m) - 1, self.top)
        self.xs, self.ys, self.ids = (np.asarray(a, dtype=np.int64) for a in (xs, ys, ids))

    def sample_rect(self, x1, x2, y1, y2, k):
        """All rectangle points of the shallowest level that reports >= k of them."""
        return sample_rects([self], [x1], [x2], [y1], [y2], k)[1]


SAMPLE_CHUNK_CELLS = 1 << 18  # run cells scanned per pass of sample_rects, ~40 bytes each at peak


def sample_rects(indexes, x1, x2, y1, y2, k):
    """sample_rect of every rectangle (aligned int64 arrays) in every index, in one batch.

    The indexes are strata with disjoint points and levels of their own.
    Returns aligned (rectangle row, point id) arrays, rows ascending; within
    a row the points come index by index, each in point order. Every
    (rectangle, stratum) pair scans one run of a table holding the points
    sorted by (stratum, x), then by (stratum, y): the shorter of its x-run
    and y-run, masked to the rectangle. One histogram of (pair, level) over
    the points inside gives, since the levels nest, every stop level: the
    highest holding >= k points, or 0 when the pair holds <= k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    none = np.zeros(0, dtype=np.int64)
    c = np.concatenate([ix.xs for ix in indexes] + [ix.ys for ix in indexes] + [none])
    ids = np.concatenate([ix.ids for ix in indexes] + [none])
    level = np.concatenate([ix.point_level for ix in indexes] * 2 + [none])  # per table entry
    m, strata, width = len(ids), len(indexes), max((ix.top for ix in indexes), default=0) + 1
    # entry keys (axis, stratum) * span + c - base, c - base in 1..span-2, sort the table in runs;
    # below[v] counts the keys <= v, placing any bound clamped into base+1..base+span
    base = c.min(initial=0) - 1
    span = c.max(initial=0) - base + 2
    first = np.arange(2 * strata) * span - base
    key = np.repeat(first, [ix.m for ix in indexes] * 2) + c
    order = np.argsort(key)
    below = np.bincount(key, minlength=2 * strata * span).cumsum()
    other = np.concatenate((c[m:], c[:m]))[order]  # the coordinate a run leaves unsorted
    lvl1 = level[order] + 1
    bounds = np.array((x1, x2, y1, y2), dtype=np.int64).reshape(2, 2, -1, 1)  # axis, lo/hi, row
    bounds[:, 1] += 1
    run = below[np.minimum(np.maximum(bounds, base + 1), base + span) + (first - 1).reshape(2, 1, 1, strata)]
    size = np.maximum(run[:, 1] - run[:, 0], 0)
    use_x = size[0] <= size[1]
    length = np.minimum(size[0], size[1]).ravel()
    olo, ohi = np.where(use_x, bounds[1], bounds[0]).reshape(2, -1)  # [olo, ohi) on the other axis
    ends = np.cumsum(length)
    shift = np.where(use_x, run[0, 0], run[1, 0]).ravel() - ends + length  # run cell -> entry
    bits = (2 * m).bit_length()  # output keys pair << bits | entry; a pair's entries share one run
    keys, a = [none], 0
    while a < len(length):  # pairs [a, b) scan at most SAMPLE_CHUNK_CELLS cells, or one pair
        done = ends[a] - length[a]
        b = max(bisect_right(ends, done + SAMPLE_CHUNK_CELLS, lo=a), a + 1)
        pairs = b - a
        pair = np.repeat(np.arange(pairs), length[a:b])
        j = np.arange(done, ends[b - 1]) + shift[a:b][pair]
        o = other[j]
        lv = np.where((o >= olo[a:b][pair]) & (o < ohi[a:b][pair]), lvl1[j], 0)  # 0: outside
        hist = np.bincount(lv * pairs + pair, minlength=(width + 1) * pairs).reshape(width + 1, pairs)
        # the stop level: how many levels above 0 hold >= k points at or above them
        stop = (hist[:1:-1].cumsum(axis=0) >= k).sum(axis=0)
        sel = np.flatnonzero(lv > stop[pair])
        keys.append((pair[sel] + a) << bits | order[j[sel]])  # entry: the point, + m on a y-run
        a = b
    keys = np.sort(np.concatenate(keys))
    return (keys >> bits) // max(strata, 1), ids[(keys & ((1 << bits) - 1)) % max(m, 1)]


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

