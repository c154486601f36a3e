"""Dense rectangle sums over the post-order plane.

A PoPrefixGrid holds the same (min po, max po) weighted points as a
WeightRangeIndex and answers `rect_weights` under the same contract, from an
(n+1) x (n+1) prefix table: four lookups per rectangle. At the sizes the
simulated models run (n up to a few hundred) the table is both smaller and
cheaper per call than the merge-sort tree, so CostProvider builds one per
tree for the simulated models and for the proxy filter, and hands it to the
shared subtree formula (rangeindex.subtree_sums).
"""

from __future__ import annotations

import numpy as np


class PoPrefixGrid:
    """Weight mass of points on an n x n post-order grid, with 2-d prefix sums."""

    def __init__(self, n, xs, ys, ws):
        """xs, ys: point coordinates in [0, n); ws may be signed (stream
        deltas cancel inside the accumulation)."""
        pref = np.zeros((n + 1, n + 1), dtype=np.int64)  # built in place: one table at peak
        np.add.at(pref, (np.asarray(xs) + 1, np.asarray(ys) + 1), ws)
        np.cumsum(pref, axis=0, out=pref)
        np.cumsum(pref, axis=1, out=pref)
        self.n = n
        self._pref = pref

    def rect_weights(self, x1, x2, y1, y2):
        """Weight sums of the rectangles [x1, x2] x [y1, y2] (aligned int64 arrays).

        Empty and inverted rectangles sum to 0; bounds may lie anywhere.
        """
        # clamped to half-open prefix bounds in 0..n (np.clip costs ~3x more per call)
        x1, y1 = (np.minimum(np.maximum(a, 0), self.n) for a in (x1, y1))
        x2, y2 = (np.minimum(np.maximum(a, -1), self.n - 1) + 1 for a in (x2, y2))
        p = self._pref
        out = p[x2, y2] - p[x1, y2] - p[x2, y1] + p[x1, y1]
        return np.where((x1 < x2) & (y1 < y2), out, 0)
