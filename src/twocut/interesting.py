"""Discovery of cross- and down-interesting tree-edge pairs, many trees at a time.

For a tree edge e above vertex u, a partner edge above v is cross-interesting
when C(u_sub, v_sub) > deg(u_sub) / 2 (disjoint subtrees) and
down-interesting when C(v_sub, V - u_sub) > deg(u_sub) / 2 (v below u). Only
such pairs can beat every single-edge tree cut. Partners of one edge all lie
on a single root-to-leaf line and are closed upward along it, so it is
enough to find, per edge, a few witness vertices whose root lines hold every
partner, walk each line strictly below lca(u, x) through the path
decomposition, and check the met segments' top edges.

The witnesses are deterministic (tertile_witnesses): per kind, the vertices
where the running boundary mass of u's subtree, laid out in post-order on
the proxy, first reaches a third and two thirds of deg(u_sub). Every
partner the 1/3 filter keeps holds one of them in its subtree, so the
filtered rows are exactly the segment-top rows that filter keeps. Pairs
within one decomposition path are excluded here; the path solver already
covers them. Unlike the source paper, Step 4 samples no boundary edges.

Every stage handles all tree edges of a group of trees (PathStack.gather: tree i's
vertex v is i * n + v) in one batch: one binary search for all witnesses, one
walk of the stacked per-vertex path tables from all of them, and one proxy
filter call per interest kind, each rectangle read at its tree's table offset.
Candidates travel as (e, f) rows of tree-edge children; f's decomposition path
is path_of[f]. The provider builds the filter (CostProvider.proxy_filter) with
the subtree degrees it computed when it admitted the trees, whenever the proxy
nets to the hidden edges; a proxy that differs is filtered one tree at a time,
on degrees off its own index.

Once the exact checks have run, pair_solver_inputs groups the verified rows
by path pair with one sort of packed (path pair, position of e) keys and
returns the row and column lists of every Step 5 bipartite instance.
"""

from __future__ import annotations

import numpy as np

from .hld import PathDecomposition
from .rangeindex import subtree_sums, tree_degrees
from .util import ceil_log2


class ProxyFilter:
    """1/3-threshold interest checks evaluated locally on a provider's proxy.

    A (1 +- eps) sparsifier turns the exact strict-half tests into strict
    third tests that never reject a true partner; survivors still get the
    exact check in the real graph. On the graph itself (the in-memory proxy)
    it drops only rows the exact 2C > deg would fail. idx is any
    rect_weights index over the proxy's edge points under tree (see
    rangeindex.subtree_sums); deg, the proxy's subtree degrees under tree
    when the caller already holds them (as CostProvider.proxy_filter does),
    else they are read from idx. Both checks take aligned (or scalar) edge
    arrays us, fs and return one boolean per row. On a GridBlock idx, tree and
    deg stack several trees (PathStack.gather) and at[v] is the offset of v's table.
    """

    def __init__(self, idx, tree, deg=None, at=None):
        self.tree, self.idx, self.at = tree, idx, at
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
        at = None if self.at is None else self.at[us]
        return subtree_sums(self.idx, self.tree, us, fs, np.full(len(us), sub), at) > self.deg[us] // 3


def tertile_witnesses(d: PathDecomposition, filt: ProxyFilter):
    """Four witness vertices per tree edge e (above u) with T = filt.deg[u] > 0.

    Lay the boundary edges of u's subtree on the post-order line with their
    weights on filt.idx, at their outside endpoints for cross partners and at
    their inside ones for down partners. A partner f that the 1/3 filter
    keeps carries more than T/3 of that line's mass T, all of it inside f's
    post-order interval (outside u's for cross, inside for down). Let q1, q2
    be the first positions where the running mass reaches ceil(T/3) and
    ceil(2T/3). An interval missing both ends before q1 (mass at most
    ceil(T/3) - 1), starts after q2 (at most T - ceil(2T/3)) or lies strictly
    between them (at most ceil(2T/3) - 1 - ceil(T/3)): at most T/3 each. So
    the root lines of the vertices at q1 and q2 hold every kept partner.

    One binary search over post-order positions finds all four for every
    edge of every tree d stacks, each step one filt.idx.rect_weights call (at
    each tree's table offset filt.at on a GridBlock). The running mass at p is
    two rectangles, cross [0, min(p, lo-1)] x [lo, hi] + [lo, hi] x [hi+1, p]
    and down [0, lo-1] x [lo, p] + [lo, p] x [hi+1, n-1], both pieces of T,
    so no sum passes 2^62. Returns aligned (edge, witness) arrays, rows
    grouped as cross q1, cross q2, down q1, down q2.
    """
    t, n = d.tree, d.tree.n
    us = np.flatnonzero(filt.deg > 0)  # the root's degree is 0
    third, rest = np.divmod(filt.deg[us], 3)
    tau = np.tile(np.concatenate((third + (rest > 0), 2 * third + rest)), 2)  # ceil(T/3), ceil(2T/3)
    h = 2 * len(us)  # rows: h cross searches over 0..n-1, then h down searches over lo..hi
    lo, hi = np.tile(t.lo[us], 4), np.tile(t.hi[us], 4)
    a, b = np.concatenate((np.zeros(h, np.int64), lo[h:])), np.concatenate((np.full(h, n - 1), hi[h:]))
    # every row's first rectangle, then its second; x2 and y2 move with p
    x1, y1 = np.concatenate((np.zeros(2 * h, np.int64), lo)), np.concatenate((lo, hi + 1))
    x2, y2 = np.concatenate((lo - 1, hi)), np.concatenate((hi, np.full(2 * h, n - 1)))
    at = () if filt.at is None else (filt.at[np.tile(us, 8)],)  # each rectangle's table offset
    for _ in range(ceil_log2(n)):
        p = (a + b) >> 1
        x2[:h] = np.minimum(p[:h], lo[:h] - 1)
        x2[3 * h :] = y2[h : 2 * h] = p[h:]
        y2[2 * h : 3 * h] = p[:h]
        w = filt.idx.rect_weights(x1, x2, y1, y2, *at)
        hit = w[: 2 * h] + w[2 * h :] >= tau
        a, b = np.where(hit, a, p + 1), np.where(hit, p, b)
    return np.tile(us, 4), t.order[np.tile(us - us % n, 4) + a]


def candidate_tops(d: PathDecomposition, es, xs):
    """Segment-top candidates implied by witness vertices.

    es, xs: aligned rows of a tree edge and a witness vertex for it (as from
    tertile_witnesses). Returns (cross, down) int64 arrays of distinct (e, f)
    rows sorted by e then f: f orthogonal to e for cross, strictly below e
    and off e's own path for down.

    Every witness x follows one rule: e's partners on x's root line lie
    strictly below lca(e, x), and interest is closed upward within a
    segment, so per met path the segment's top edge decides. A witness
    inside e's subtree has lca(e, x) = e, so its tops lie below e; an
    outside one's tops are orthogonal to e. One walk thus serves both kinds,
    and geometry alone splits them; one np.unique over e * n + f keeps the
    distinct rows.
    """
    t, m = d.tree, len(d.tree.lo)  # m: the vertices of every tree d stacks
    es, xs = np.asarray(es, dtype=np.int64), np.asarray(xs, dtype=np.int64)
    row, f = d.suffix_tops(xs, d.anchor_depths(es, xs))
    e, f = np.divmod(np.unique(es[row] * m + f), m)
    le, he, lf, hf = t.lo[e], t.hi[e], t.lo[f], t.hi[f]
    cross = (he < lf) | (hf < le)
    down = (le <= lf) & (hf < he) & (d.path_of[f] != d.path_of[e])
    return np.stack((e[cross], f[cross]), axis=1), np.stack((e[down], f[down]), axis=1)


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
