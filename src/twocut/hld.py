"""Heavy-light decomposition and root-path / segment decomposition queries.

The tree's edges are split into vertical paths (each stored top edge first)
such that any root-to-leaf walk meets at most floor(log2 n) + 1 of them:
every step off a path follows a light edge, which at least halves the
subtree size. Queries return, per decomposition path met by a walk, the top
edge of the met segment. Walks are answered in batches from padded per-vertex
tables of the paths each root line meets.
"""

from __future__ import annotations

import numpy as np

from .graph import RootedSpanTree
from .util import floor_log2


class PathDecomposition:
    """paths[p] lists child vertices of the path's edges, root-most first."""

    def __init__(self, t: RootedSpanTree):
        self.tree = t
        n = t.n
        # the heavy child has the largest subtree; ties go to the smaller id, which comes first
        size = t.size.tolist()
        heavy = [max(kids, key=size.__getitem__) if kids else -1 for kids in t.children]
        path_of = np.full(n, -1, dtype=np.int64)
        paths = []
        for v in range(n):  # a path starts at every edge that is not its parent's heavy edge
            p = int(t.parent[v])
            if v != t.root and (p == t.root or heavy[p] != v):
                chain = [v]
                while heavy[chain[-1]] != -1:
                    chain.append(heavy[chain[-1]])
                path_of[chain] = len(paths)
                paths.append(chain)
        self.paths = paths
        self.path_of = path_of
        self.top_edge = np.asarray([p[0] for p in paths], dtype=np.int64) if paths else np.zeros(0, np.int64)
        # array forms for the batched walks: all paths back to back (so an
        # edge's position there orders by path, then depth), each edge's
        # position, and per path its offset and the depth of its top edge
        self.flat = np.asarray([c for p in paths for c in p], dtype=np.int64)
        self.pos = np.full(n, -1, dtype=np.int64)
        self.pos[self.flat] = np.arange(len(self.flat))
        self.start = self.pos[self.top_edge]
        self.top_depth = t.depth[self.top_edge]
        # row v of exit_path lists the paths met by the root-to-v line, root
        # first, padded with -1 to floor(log2 n) + 2 columns so that every row
        # ends in padding; exit_depth holds the depth where the line leaves
        # each of them (depth v for the last)
        width = floor_log2(n) + 2
        jump = np.full(n, t.root, dtype=np.int64)  # the vertex above v's path
        jump[path_of >= 0] = t.parent[self.top_edge[path_of[path_of >= 0]]]
        cur = np.arange(n, dtype=np.int64)
        up = []
        for _ in range(width):
            up.append(np.where(cur == t.root, -1, cur))
            cur = jump[cur]
        up = np.stack(up, axis=1)
        assert (up[:, -1] < 0).all(), "a root line meets more than floor(log2 n) + 1 paths"
        col = (up >= 0).sum(axis=1)[:, None] - 1 - np.arange(width)
        exits = np.where(col >= 0, np.take_along_axis(up, np.maximum(col, 0), axis=1), -1)
        self.exit_path = np.where(exits >= 0, path_of[exits], -1)
        self.exit_depth = np.where(exits >= 0, t.depth[exits], -1)

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
    if t.n < 2:
        raise ValueError("decomposition needs at least one edge")
    return PathDecomposition(t)


def top_edges_on_root_path(d: PathDecomposition, v: int):
    """For each decomposition path met by the root-to-v walk, its top edge.

    Returned as (edge_child, path_id) pairs ordered from the root toward v;
    empty for the root itself.
    """
    pids = d.exit_path[v][d.exit_path[v] >= 0]
    return list(zip(d.top_edge[pids].tolist(), pids.tolist()))
