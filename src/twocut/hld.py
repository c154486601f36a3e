"""Heavy-light decomposition and root-path / segment decomposition queries.

A tree's edges are split into vertical paths (each stored top edge first)
such that any root-to-leaf walk meets at most floor(log2 n) + 1 of them:
every step off a path follows a light edge, which at least halves the
subtree size. Queries return, per decomposition path met by a walk, the top
edge of the met segment. Walks are answered in batches from padded per-vertex
tables of the paths each root line meets. PathStack decomposes every tree of
a TreeStack at once; a tree's PathDecomposition views its rows.
"""

from __future__ import annotations

from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .graph import RootedSpanTree
from .util import ceil_log2, floor_log2


class PathStack:
    """The decompositions of all trees of a TreeStack ts, in (k, n) vertex tables
    and per-path tables over all trees (tree i's at pid[i]:pid[i + 1]), each
    tree numbered on its own: one argsort picks the heavy children and pointer
    jumping finds the chain tops.
    """

    VERTEX, PATH = ("path_of", "pos", "flat", "exit_path", "exit_depth"), ("start", "top_edge", "top_depth")

    def __init__(self, ts):
        n, k, vertex = ts.n, ts.k, np.arange(ts.k * ts.n)
        self.n, self.lo, self.hi, self.order = n, ts.lo, ts.po, ts.order  # for gather; no reference back to ts
        par = np.where(ts.parent >= 0, ts.parent + (vertex // n * n).reshape(k, n), -1).ravel()
        depth, kid = ts.depth.ravel(), np.flatnonzero(par >= 0)
        kid = kid[np.argsort((par[kid] * n + n - ts.size.ravel()[kid]) * n + kid % n)]  # largest, then smaller id
        heavy = kid[np.diff(par[kid], prepend=-1) != 0]
        heavy = heavy[par[par[heavy]] >= 0]  # a root's edges each start a path
        top = vertex.copy()
        top[heavy] = par[heavy]
        for _ in range(ceil_log2(n)):
            top = top[top]
        starts = par >= 0
        starts[heavy] = False  # a path starts at every edge that is not its parent's heavy edge
        top_edge = np.flatnonzero(starts)
        path_of = np.where(par >= 0, np.cumsum(starts)[top] - 1, -1)
        count = np.bincount(path_of[kid], minlength=len(top_edge))
        start = np.cumsum(count) - count
        pos = np.where(par >= 0, start[path_of] + depth - depth[top], -1)
        flat = np.empty(k * (n - 1), dtype=np.int64)
        flat[pos[kid]] = kid
        # row v of exit_path lists the paths the root-to-v line meets, root first, padded with -1 to
        # floor(log2 n) + 2 columns; exit_depth holds the depths where it leaves them (v's for the last)
        width = floor_log2(n) + 2
        jump, level, cur = np.where(par >= 0, par[top], vertex), np.zeros(k * n, dtype=np.int64), vertex
        for _ in range(width):  # jump: the vertex above v's path; level: the paths v's root line meets
            level, cur = level + (par[cur] >= 0), jump[cur]
        assert level.max() < width, "a root line meets more than floor(log2 n) + 1 paths"
        self.pid = np.searchsorted(top_edge, np.arange(k + 1) * n)
        path_of = np.where(par >= 0, path_of - self.pid[vertex // n], -1)  # each tree's own path ids
        exit_path, exit_depth = np.full((2, k * n, width), -1)
        for at in range(1, width):  # a line's rows are those of the line above its path, and one more
            rows = np.flatnonzero(level == at)
            exit_path[rows], exit_depth[rows] = exit_path[jump[rows]], exit_depth[jump[rows]]
            exit_path[rows, at - 1], exit_depth[rows, at - 1] = path_of[rows], depth[rows]
        self.path_of = path_of.reshape(k, n)
        self.exit_path, self.exit_depth = exit_path.reshape(k, n, width), exit_depth.reshape(k, n, width)
        self.pos = np.where(pos >= 0, pos - vertex // n * (n - 1), -1).reshape(k, n)
        self.flat = (flat % n).reshape(k, n - 1)
        self.start, self.top_edge, self.top_depth = start - top_edge // n * (n - 1), top_edge % n, depth[top_edge]

    def row(self, i, t):
        """Tree i's decomposition, of views; t is its tree."""
        a, b = self.pid[i : i + 2]
        return PathDecomposition(tree=t, stack=self, row=i, **{x: getattr(self, x)[i] for x in self.VERTEX},
                                 **{x: getattr(self, x)[a:b] for x in self.PATH})

    def gather(self, rows):
        """The decompositions of rows as one, for batched walks: the j-th row's
        vertex v becomes j * n + v, with path ids and flat positions offset to
        match; tree holds n and the stacked lo, hi and order tables."""
        rows, n = np.asarray(rows), self.n
        j, count = np.arange(len(rows))[:, None], self.pid[rows + 1] - self.pid[rows]
        shift = (np.cumsum(count) - count)[:, None, None]  # each row's first path id
        at = np.repeat(self.pid[rows] - shift[:, 0, 0], count) + np.arange(count.sum())  # the rows' paths
        path_of, exits = (np.where(a >= 0, a + shift, -1) for a in (self.path_of[rows, :, None], self.exit_path[rows]))
        tree = SimpleNamespace(n=n, lo=self.lo[rows].ravel(), hi=self.hi[rows].ravel())
        tree.order = (self.order[rows] + j * n).ravel()
        return PathDecomposition(tree=tree, stack=self, row=rows, path_of=path_of.ravel(),
                                 exit_path=exits.reshape(len(rows) * n, -1),
                                 exit_depth=self.exit_depth[rows].reshape(len(rows) * n, -1),
                                 flat=(self.flat[rows] + j * n).ravel(), top_depth=self.top_depth[at],
                                 start=self.start[at] + np.repeat(j[:, 0] * (n - 1), count))


class PathDecomposition:
    """Tree `tree`'s heavy paths, row `row` of the PathStack `stack` (or rows it
    gathered). flat lists all paths back to back, by path id (by top edge) then
    depth; pos is an edge's position there and start a path's offset."""

    def __init__(self, **tables):
        vars(self).update(tables)

    @cached_property
    def paths(self):
        """paths[p] lists child vertices of the path's edges, root-most first."""
        flat, cut = self.flat.tolist(), self.start.tolist() + [len(self.flat)]
        return [flat[a:b] for a, b in zip(cut, cut[1:])]

    def anchor_depths(self, us, xs):
        """Per row, the depth of lca(u, x): the deepest vertex of the root-to-x
        line that is an ancestor of u (where u's branch diverges).

        The paths both root lines meet form a common prefix of their rows; the
        lca is the shallower of the two exits from the last shared path.
        """
        pu, px = self.exit_path[us], self.exit_path[xs]
        shared = np.argmin((pu == px) & (pu >= 0), axis=1)  # rows end in padding
        j = np.maximum(shared - 1, 0)
        lca = np.minimum(self.exit_depth[us, j], self.exit_depth[xs, j])
        return np.where(shared > 0, lca, 0)

    def suffix_tops(self, xs, das):
        """Per-path segment tops of each root-to-x line strictly below depth da.

        Returns aligned (row, f) arrays, each row's tops root first: f is the
        topmost edge of the line on every path it meets below da.
        """
        below = np.asarray(das, dtype=np.int64)[:, None] + 1
        row, col = np.nonzero(self.exit_depth[xs] >= below)
        pid = self.exit_path[np.asarray(xs)[row], col]
        seg = np.maximum(below[row, 0], self.top_depth[pid])
        return row, self.flat[self.start[pid] + seg - self.top_depth[pid]]

    def suffix_tops_below_depth(self, x, da):
        """suffix_tops for one line, as (top_edge_child, path_id) pairs."""
        _, f = self.suffix_tops([x], [da])
        return list(zip(f.tolist(), self.path_of[f].tolist()))

    def cross_anchor_depth(self, u, x):
        """anchor_depths for one pair."""
        return int(self.anchor_depths([u], [x])[0])


def decompose(t: RootedSpanTree) -> PathDecomposition:
    """t's row of the PathStack of the trees rooted with it, built on first use."""
    if t.n < 2:
        raise ValueError("decomposition needs at least one edge")
    t.stack.paths = t.stack.paths or PathStack(t.stack)
    return t.stack.paths.row(t.row, t)


def top_edges_on_root_path(d: PathDecomposition, v: int):
    """For each decomposition path met by the root-to-v walk, its top edge.

    Returned as (edge_child, path_id) pairs ordered from the root toward v;
    empty for the root itself.
    """
    pids = d.exit_path[v][d.exit_path[v] >= 0]
    return list(zip(d.top_edge[pids].tolist(), pids.tolist()))
