"""Discovery of cross- and down-interesting tree-edge pairs, one tree at a time.

For a tree edge e above vertex u, a partner edge above v is cross-interesting
when C(u_sub, v_sub) > deg(u_sub) / 2 (disjoint subtrees) and
down-interesting when C(v_sub, V - u_sub) > deg(u_sub) / 2 (v below u). Only
such pairs can beat every single-edge tree cut. Partners of one edge all lie
on a single root-to-leaf line and are closed upward along it, so it is
enough to sample edges on u's subtree boundary, walk each sampled endpoint's
line through the path decomposition, and check the met segments' top edges.

Sampling is stratified by weight class [2^i, 2^(i+1)): whenever some subtree
attracts more than half of u's boundary weight, at least one class gives its
edges a constant point-fraction, so a logarithmic sample hits it with high
probability. Pairs within one decomposition path are excluded here; the path
solver already covers them.

Every stage handles all tree edges of a tree in one batch: one sampling pass
over the two boundary rectangles of every subtree in every weight class, one
walk of the decomposition's per-vertex path tables for all sampled
endpoints, and one sparsifier filter call per interest kind. Candidates travel as (e, f)
rows of tree-edge children; f's decomposition path is path_of[f].
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph
from .grid import PoPrefixGrid
from .hld import PathDecomposition
from .rangeindex import SampleRangeIndex, edge_points, sample_rects, subtree_sums, tree_degrees
from .util import bit_lengths, ceil_log2

DEFAULT_SAMPLE_MULTIPLIER = 4

CROSS = "cross"
DOWN = "down"


class WeightClassIndex:
    """Per weight class: that class's edge points with a sampling index.

    Zero-weight edges are skipped; they cannot witness any threshold.
    """

    def __init__(self, g: WeightedGraph, t, seed):
        self.n = t.n
        xs, ys = edge_points(t.po, g.eu, g.ev)
        ids = np.arange(g.m)
        cls = bit_lengths(g.ew) - 1
        self.classes = {}
        for i in np.unique(cls[cls >= 0]).tolist():
            keep = cls == i
            self.classes[i] = SampleRangeIndex(xs[keep], ys[keep], ids[keep], seed=(seed << 6) ^ i)


def build_weight_classes(g: WeightedGraph, t, seed) -> WeightClassIndex:
    return WeightClassIndex(g, t, seed)


def sample_k(n, multiplier=DEFAULT_SAMPLE_MULTIPLIER):
    return max(1, multiplier * ceil_log2(max(n, 2)))


def sample_cross_candidates(wc: WeightClassIndex, t, us, multiplier=DEFAULT_SAMPLE_MULTIPLIER):
    """Boundary samples of the subtrees below every tree edge in us.

    One sample_rects pass reports both boundary rectangles of every subtree
    (its edges leaving leftward and rightward in post-order) in every weight
    class. Returns aligned (edge, sampled edge id) arrays; the rectangles and
    the classes are disjoint, so no pair repeats. The same sample serves the
    cross and the down route: both read the same rectangles, and the level
    walk is fixed by the build seed.
    """
    us = np.asarray(us, dtype=np.int64)
    a, b = t.lo[us], t.hi[us]
    x1, x2 = np.concatenate((np.zeros_like(a), a)), np.concatenate((a - 1, b))
    y1, y2 = np.concatenate((a, b + 1)), np.concatenate((b, np.full_like(b, t.n - 1)))
    rows, eids = sample_rects(list(wc.classes.values()), x1, x2, y1, y2, sample_k(wc.n, multiplier))
    return us[rows % max(len(us), 1)], eids


class ProxyFilter:
    """1/3-threshold interest checks evaluated locally on a sparsifier.

    A (1 +- eps) sparsifier turns the exact strict-half tests into strict
    third tests that never reject a true partner; survivors still get the
    exact check in the real graph. Both checks take aligned (or scalar) edge
    arrays us, fs and return one boolean per row; the values come from the
    providers' subtree formula over a grid of the sparsifier's edges.
    """

    def __init__(self, h: WeightedGraph, tree):
        self.tree = tree
        self.grid = PoPrefixGrid(tree.n, *edge_points(tree.po, h.eu, h.ev), h.ew)
        self.deg = tree_degrees(self.grid, tree)

    def cross_ok_many(self, us, fs):
        """3 C(u_sub, f_sub) > deg(u_sub) per row, for disjoint subtrees."""
        return self._ok(us, fs, True)

    def down_ok_many(self, us, fs):
        """3 C(f_sub, V - u_sub) > deg(u_sub) per row, for f below u."""
        return self._ok(us, fs, False)

    def _ok(self, us, fs, sub):
        us, fs = np.broadcast_arrays(np.atleast_1d(us), np.atleast_1d(fs))
        return 3 * subtree_sums(self.grid, self.tree, us, fs, np.full(len(us), sub)) > self.deg[us]


def candidate_tops(d: PathDecomposition, es, eids, g: WeightedGraph):
    """Segment-top candidates implied by sampled boundary edges.

    es, eids: aligned rows of a tree edge and an edge of g leaving its
    subtree (as from sample_cross_candidates). Returns (cross, down) int64
    arrays of distinct (e, f) rows sorted by e then f, geometry-filtered
    (f orthogonal to e for cross, strictly below e for down), with f on e's
    own path excluded.
    """
    t = d.tree
    es, eids = np.asarray(es, dtype=np.int64), np.asarray(eids, dtype=np.int64)
    a, b = g.eu[eids], g.ev[eids]
    a_in = (t.lo[es] <= t.po[a]) & (t.po[a] <= t.hi[es])
    inner, outer = np.where(a_in, a, b), np.where(a_in, b, a)
    # witnesses on one decomposition path contribute nested candidate sets,
    # so only the deepest witness per (edge, path) matters
    ec, xc = _deepest_per_path(d, es, outer, outer != t.root)
    ed, xd = _deepest_per_path(d, es, inner, inner != es)
    # true partners sit strictly below the divergence point of e's and x's
    # root lines; everything there is orthogonal to e, and interest is closed
    # upward within the segment, so per met path its segment-top edge decides
    row, f = d.suffix_tops(xc, d.anchor_depths(ec, xc))
    e = ec[row]
    cross = _distinct_rows(e, f, (t.hi[e] < t.lo[f]) | (t.hi[f] < t.lo[e]), t.n)
    row, f = d.suffix_tops(xd, t.depth[ed])
    e = ed[row]
    down = _distinct_rows(e, f, d.path_of[f] != d.path_of[e], t.n)
    return cross, down


def _deepest_per_path(d, es, xs, ok):
    # d.pos orders the vertices of each path by depth, paths one after another
    n = d.tree.n
    keys = np.sort(es[ok] * n + d.pos[xs[ok]])
    es, xs = keys // n, d.flat[keys % n]
    group = es * n + d.path_of[xs]
    last = np.diff(group, append=-1) != 0
    return es[last], xs[last]


def _distinct_rows(e, f, keep, n):
    keys = np.sort(e[keep] * n + f[keep])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack((keys // n, keys % n), axis=1)


class PairAccumulator:
    """Ordered map from unordered path pairs to marked edges per side.

    Cross keys are canonicalized smaller path id first; down keys keep their
    (upper, lower) roles. Insertions are idempotent; drain yields each pair
    once, in key order, with side sets sorted top-to-bottom along the path.
    For down pairs only the upper side carries explicit marks (the lower
    path's relevant segment is materialized by the pairing step).
    """

    def __init__(self, d: PathDecomposition):
        self.d = d
        self._entries = {}

    def accumulate(self, p, q, e, kind):
        if kind == CROSS:
            if p == q:
                raise ValueError("cross pair needs two distinct paths")
            a, b = (p, q) if p < q else (q, p)
            key = (0, a, b)
            entry = self._entries.setdefault(key, (set(), set()))
            entry[0 if p == a else 1].add(e)
        elif kind == DOWN:
            key = (1, p, q)
            entry = self._entries.setdefault(key, (set(), set()))
            entry[0].add(e)
        else:
            raise ValueError(f"unknown kind {kind}")

    def drain(self):
        depth = self.d.tree._depth
        for key in sorted(self._entries):
            tag, p, q = key
            first, second = self._entries[key]
            yield (
                p,
                sorted(first, key=depth.__getitem__),
                q,
                sorted(second, key=depth.__getitem__),
                CROSS if tag == 0 else DOWN,
            )
