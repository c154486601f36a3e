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
endpoints, and one proxy filter call per interest kind. Candidates travel
as (e, f) rows of tree-edge children; f's decomposition path is path_of[f].

Once the exact checks have run, pair_solver_inputs groups the verified rows
by path pair with one sort of packed (path pair, position of e) keys and
returns the row and column lists of every Step 5 bipartite instance.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph
from .hld import PathDecomposition
from .rangeindex import SampleRangeIndex, edge_points, sample_rects, subtree_sums, tree_degrees
from .util import bit_lengths, ceil_log2

DEFAULT_SAMPLE_MULTIPLIER = 4


class WeightClassIndex:
    """Per weight class: that class's edge points with a sampling index.

    Zero-weight edges are skipped; they cannot witness any threshold.
    """

    def __init__(self, g: WeightedGraph, t, seed):
        self.n = t.n
        xs, ys = edge_points(t.po, g.eu, g.ev)
        cls = bit_lengths(g.ew) - 1
        self.classes = {}
        for i in np.unique(cls[cls >= 0]).tolist():
            keep = np.flatnonzero(cls == i)  # the class's edge ids
            self.classes[i] = SampleRangeIndex(xs[keep], ys[keep], keep, seed=(seed << 6) ^ i)


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
    """1/3-threshold interest checks evaluated locally on a provider's proxy.

    A (1 +- eps) sparsifier turns the exact strict-half tests into strict
    third tests that never reject a true partner; survivors still get the
    exact check in the real graph. On the graph itself (the in-memory proxy)
    it drops only rows the exact 2C > deg would fail. idx is any
    rect_weights index over the proxy's edge points under tree (see
    rangeindex.subtree_sums), as a provider's proxy_index hands it over.
    Both checks take aligned (or scalar) edge arrays us, fs and return one
    boolean per row.
    """

    def __init__(self, idx, tree):
        self.tree = tree
        self.idx = idx
        self.deg = tree_degrees(idx, tree)

    def cross_ok_many(self, us, fs):
        """3 C(u_sub, f_sub) > deg(u_sub) per row, for disjoint subtrees."""
        return self._ok(us, fs, True)

    def down_ok_many(self, us, fs):
        """3 C(f_sub, V - u_sub) > deg(u_sub) per row, for f below u."""
        return self._ok(us, fs, False)

    def _ok(self, us, fs, sub):
        us, fs = np.broadcast_arrays(np.atleast_1d(us), np.atleast_1d(fs))
        # 3 C > deg exactly, without tripling C in int64
        return subtree_sums(self.idx, self.tree, us, fs, np.full(len(us), sub)) > self.deg[us] // 3


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


def pair_solver_inputs(d: PathDecomposition, cross, down, ok):
    """Step 5 instances from the verified Step 4 rows, as (rows, cols) lists.

    cross, down: the (e, f) rows of interest_checks; ok: one bool per row,
    cross rows first, true where the exact check passed. A verified row
    marks e on its own path. A cross instance pairs two paths that both
    carry marks, each side top to bottom, the smaller path id's as rows. A
    down instance takes the upper path's marks bottom to top as rows and the
    whole lower path as columns: a path holding an edge below e, but not e,
    lies inside e's subtree. Cross instances come first, each kind ordered
    by its (path, path) key.
    """
    n, paths = d.tree.n, len(d.paths)
    out = []
    e, f = cross[ok[: len(cross)]].T
    p, q = d.path_of[e], d.path_of[f]
    keys, marks, first, last = _marks_by_pair(d, np.minimum(p, q) * paths + np.maximum(p, q), e)
    # a pair's marks on its smaller path come first; the larger path's start there
    pair = keys[first] // n
    split = np.searchsorted(keys, pair * n + d.start[pair % paths])
    for a, s, b in zip(first.tolist(), split.tolist(), last.tolist()):
        if a < s < b:
            out.append((marks[a:s], marks[s:b]))
    e, f = down[ok[len(cross) :]].T
    keys, marks, first, last = _marks_by_pair(d, d.path_of[e] * paths + d.path_of[f], e)
    for a, b, q in zip(first.tolist(), last.tolist(), (keys[first] // n % paths).tolist()):
        out.append((marks[a:b][::-1], d.paths[q]))
    return out


def _marks_by_pair(d, pair, e):
    """Distinct keys pair * n + pos[e] in ascending order, the mark e of each
    key, and the [first, last) bounds of each pair's run of keys. d.pos
    orders edges by path, then depth, so a run lists its marks path by
    path, top down."""
    n = d.tree.n
    keys = np.unique(pair * n + d.pos[e])
    first = np.flatnonzero(np.diff(keys // n, prepend=-1))
    return keys, d.flat[keys % n].tolist(), first, np.append(first[1:], len(keys))
