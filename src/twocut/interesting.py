"""Discovery of cross- and down-interesting tree-edge pairs, one tree at a time.

For a tree edge e above vertex u, a partner edge above v is cross-interesting
when C(u_sub, v_sub) > deg(u_sub) / 2 (disjoint subtrees) and
down-interesting when C(v_sub, V - u_sub) > deg(u_sub) / 2 (v below u). Only
such pairs can beat every single-edge tree cut. Partners of one edge all lie
on a single root-to-leaf line and are closed upward along it, so it is
enough to sample edges on u's subtree boundary, walk the root line of both
endpoints x of each sampled edge strictly below lca(u, x) (u itself for the
endpoint inside) through the path decomposition, and check the met
segments' top edges.

Sampling is stratified by weight class [2^i, 2^(i+1)): whenever some subtree
attracts more than half of u's boundary weight, at least one class gives its
edges a constant point-fraction, so a logarithmic sample hits it with high
probability. The split is the proxy's own (WeightedGraph.weight_classes),
made once per graph and shared with the forest peeling of proxy.py; each
tree only places the class's edges under its post-order. Pairs within one
decomposition path are excluded here; the path solver already covers them.

Every stage handles all tree edges of a tree in one batch: one sampling pass
over the two boundary rectangles of every subtree in every weight class, one
walk of the decomposition's per-vertex path tables for both endpoints of
every sampled edge, and one proxy filter call per interest kind. Candidates
travel as (e, f) rows of tree-edge children; f's decomposition path is
path_of[f]. The filter's subtree degrees are the tree's Step 1 degrees,
handed over by the provider, whenever the proxy nets to the hidden edges;
only a proxy that differs has them read off its own index.

Once the exact checks have run, pair_solver_inputs groups the verified rows
by path pair with one sort of packed (path pair, position of e) keys and
returns the row and column lists of every Step 5 bipartite instance.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph
from .hld import PathDecomposition
from .rangeindex import SampleRangeIndex, edge_points, sample_rects, subtree_sums, tree_degrees
from .util import ceil_log2

DEFAULT_SAMPLE_MULTIPLIER = 4


def build_weight_classes(g: WeightedGraph, t, seed):
    """Per weight class, ascending: a sampling index over that class's edge
    points under t, as {class: SampleRangeIndex}.

    The classes are g's cached split (WeightedGraph.weight_classes), so
    zero-weight edges are skipped; they cannot witness any threshold.
    """
    xs, ys = edge_points(t.po, g.eu, g.ev)
    return {i: SampleRangeIndex(xs[keep], ys[keep], keep, seed=(seed << 6) ^ i)
            for i, keep in g.weight_classes.items()}


def sample_k(n, multiplier=DEFAULT_SAMPLE_MULTIPLIER):
    return max(1, multiplier * ceil_log2(max(n, 2)))


def sample_cross_candidates(classes, t, us, multiplier=DEFAULT_SAMPLE_MULTIPLIER):
    """Boundary samples of the subtrees below every tree edge in us.

    classes: build_weight_classes' {class: SampleRangeIndex} under t. One
    sample_rects pass reports both boundary rectangles of every subtree (its
    edges leaving leftward and rightward in post-order) in every weight
    class. Returns aligned (edge, sampled edge id) arrays; the rectangles and
    the classes are disjoint, so no pair repeats. One sample serves both
    interest kinds: candidate_tops walks from both endpoints of every sampled
    edge, and the level walk is fixed by the build seed.
    """
    us = np.asarray(us, dtype=np.int64)
    a, b = t.lo[us], t.hi[us]
    x1, x2 = np.concatenate((np.zeros_like(a), a)), np.concatenate((a - 1, b))
    y1, y2 = np.concatenate((a, b + 1)), np.concatenate((b, np.full_like(b, t.n - 1)))
    rows, eids = sample_rects(list(classes.values()), x1, x2, y1, y2, sample_k(t.n, multiplier))
    return us[rows % max(len(us), 1)], eids


class ProxyFilter:
    """1/3-threshold interest checks evaluated locally on a provider's proxy.

    A (1 +- eps) sparsifier turns the exact strict-half tests into strict
    third tests that never reject a true partner; survivors still get the
    exact check in the real graph. On the graph itself (the in-memory proxy)
    it drops only rows the exact 2C > deg would fail. idx is any
    rect_weights index over the proxy's edge points under tree (see
    rangeindex.subtree_sums), as a provider's proxy_index hands it over;
    deg, the proxy's subtree degrees under tree when the provider already
    holds them (its proxy_degrees), else they are read from idx. Both
    checks take aligned (or scalar) edge arrays us, fs and return one
    boolean per row.
    """

    def __init__(self, idx, tree, deg=None):
        self.tree = tree
        self.idx = idx
        self.deg = tree_degrees(idx, tree) if deg is None else deg

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
    arrays of distinct (e, f) rows sorted by e then f: f orthogonal to e for
    cross, strictly below e and off e's own path for down.

    Both endpoints x of a sampled edge witness for e by one rule: e's
    partners on x's root line lie strictly below lca(e, x), and interest is
    closed upward within a segment, so per met path the segment's top edge
    decides. The endpoint inside e's subtree has lca(e, x) = e, so its tops
    lie below e; the outside one's tops are orthogonal to e. One walk thus
    serves both kinds, and geometry alone splits them. Witnesses on one
    decomposition path give nested candidate sets, so only the deepest per
    (e, path) is walked: an outside witness sharing a path with an inside
    one lies above e on e's root line and meets nothing below their lca, as
    does a witness equal to e or to the root.
    """
    t = d.tree
    es, eids = np.asarray(es, dtype=np.int64), np.asarray(eids, dtype=np.int64)
    es, xs = np.concatenate((es, es)), np.concatenate((g.eu[eids], g.ev[eids]))
    es, xs = _deepest_per_path(d, es, xs, (xs != es) & (xs != t.root))
    row, f = d.suffix_tops(xs, d.anchor_depths(es, xs))
    e = es[row]
    cross = _distinct_rows(e, f, (t.hi[e] < t.lo[f]) | (t.hi[f] < t.lo[e]), t.n)
    below = (t.lo[e] <= t.lo[f]) & (t.hi[f] < t.hi[e])
    down = _distinct_rows(e, f, below & (d.path_of[f] != d.path_of[e]), t.n)
    return cross, down


def _deepest_per_path(d, es, xs, ok):
    # d.pos orders the vertices of each path by depth, paths one after another
    n = d.tree.n
    keys = np.sort(es[ok] * n + d.pos[xs[ok]])
    es, pos = np.divmod(keys, n)
    xs = d.flat[pos]
    group = es * n + d.path_of[xs]
    last = np.diff(group, append=-1) != 0
    return es[last], xs[last]


def _distinct_rows(e, f, keep, n):
    keys = np.sort(e[keep] * n + f[keep])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack(np.divmod(keys, n), axis=1)


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
