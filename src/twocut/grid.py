"""Dense rectangle sums over the post-order plane.

A PoPrefixGrid holds the same (min po, max po) weighted points as a
WeightRangeIndex and answers `rect_weights` under the same contract, from an
(n+1) x (n+1) prefix table: four lookups per rectangle, cheaper per call
than the merge-sort tree. It goes to the shared subtree formula
(rangeindex.subtree_sums).

CostProvider builds every grid: the trees it admits together share a
GridBlock, their tables back to back in one (trees, n+1, n+1) array with
each tree's PoPrefixGrid built in its slice (so no more bytes than separate
grids), and the block reads rectangles of all its trees in one gather. The
simulated models give every tree a block grid, the in-memory provider while
it is no larger than the merge-sort tree ((n+1)^2 <= 2 m log m words). A
filter grid over a proxy that differs from the hidden edges stands alone.
"""

from __future__ import annotations

import numpy as np


class PoPrefixGrid:
    """Weight mass of points on an n x n post-order grid, with 2-d prefix sums."""

    def __init__(self, n, xs, ys, ws, pref=None):
        """xs, ys: point coordinates in [0, n); ws may be signed (stream
        deltas cancel inside the accumulation). pref: a zeroed (n+1, n+1)
        int64 array to build the table in (a GridBlock slice), else a new one."""
        if pref is None:
            pref = np.zeros((n + 1, n + 1), dtype=np.int64)
        np.add.at(pref, (np.asarray(xs) + 1, np.asarray(ys) + 1), ws)  # built in place: one table at peak
        np.cumsum(pref, axis=0, out=pref)
        np.cumsum(pref, axis=1, out=pref)
        self.n = n
        self._pref = pref

    def rect_weights(self, x1, x2, y1, y2):
        """Weight sums of the rectangles [x1, x2] x [y1, y2] (aligned int64 arrays).

        Empty and inverted rectangles sum to 0; bounds may lie anywhere.
        """
        return _prefix_rects(self._pref, 0, x1, x2, y1, y2)


class GridBlock:
    """The PoPrefixGrids of several trees' (xs, ys, ws) points, tables in one array."""

    def __init__(self, n, points):
        cells = len(points) * (n + 1) ** 2
        if cells > np.iinfo(np.intp).max // 8:  # numpy would refuse the shape with a ValueError
            raise MemoryError(f"a grid block of {len(points)} tables on {n} vertices exceeds the address space")
        self.table = np.zeros((len(points), n + 1, n + 1), dtype=np.int64)
        self.grids = [PoPrefixGrid(n, xs, ys, ws, pref) for (xs, ys, ws), pref in zip(points, self.table)]

    def rect_weights(self, x1, x2, y1, y2, at):
        """rect_weights of each rectangle in the grid whose table starts at flat offset at[i]."""
        return _prefix_rects(self.table, at, x1, x2, y1, y2)


def _prefix_rects(pref, at, x1, x2, y1, y2):
    """Rectangle sums from (n+1) x (n+1) prefix tables laid back to back in pref,
    row i's table at flat offset at[i]: four reads per rectangle."""
    side = pref.shape[-1]
    # clamped to half-open prefix bounds in 0..n (np.clip costs ~3x more per call)
    x1, y1 = (np.minimum(np.maximum(a, 0), side - 1) for a in (x1, y1))
    x2, y2 = (np.minimum(np.maximum(a, -1), side - 2) + 1 for a in (x2, y2))
    p = pref.reshape(-1)
    r1, r2 = x1 * side + at, x2 * side + at
    out = p[r2 + y2] - p[r1 + y2] - p[r2 + y1] + p[r1 + y1]
    return np.where((x1 < x2) & (y1 < y2), out, 0)
