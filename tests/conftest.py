"""Shared builders: the worked 5-vertex example and seeded random instances."""

import numpy as np
import pytest

from twocut.graph import WeightedGraph, build_rooted_tree
from twocut.grid import PoPrefixGrid
from twocut.interesting import ProxyFilter, candidate_tops, tertile_witnesses
from twocut.rangeindex import EdgePointSet, WeightRangeIndex, edge_points
from twocut.util import DisjointSets

GSTAR_EDGES = [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (2, 4, 4), (1, 3, 2)]
GSTAR_TREE = [(0, 1), (1, 2), (0, 3), (3, 4)]


def make_gstar():
    g = WeightedGraph(5, GSTAR_EDGES)
    t = build_rooted_tree(g, GSTAR_TREE, root=0)
    return g, t


@pytest.fixture
def gstar():
    return make_gstar()


def four_cycle(w):
    return WeightedGraph(4, [(0, 1, w), (1, 2, w), (2, 3, w), (0, 3, w)])


def random_connected_graph(rng, n, extra=2.0, wmax=10):
    """Random spanning tree plus ~extra*n additional edges, weights 1..wmax."""
    edges = {}
    perm = rng.permutation(n)
    for i in range(1, n):
        u = int(perm[i])
        v = int(perm[rng.integers(0, i)])
        key = (min(u, v), max(u, v))
        edges[key] = int(rng.integers(1, wmax + 1))
    want = min(int(extra * n), n * (n - 1) // 2) if n > 1 else 0
    tries = 0
    while len(edges) < want and tries < 50 * n:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        tries += 1
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = int(rng.integers(1, wmax + 1))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


def random_spanning_tree_edges(g, rng):
    """Spanning tree from a random edge order (randomized Kruskal)."""
    order = rng.permutation(g.m)
    ds = DisjointSets(g.n)
    out = []
    for idx in order:
        u, v, _ = g.edges[int(idx)]
        if ds.union(u, v):
            out.append((u, v))
    return out


def random_instance(rng, n_lo=4, n_hi=14, wmax=10, extra=2.0):
    n = int(rng.integers(n_lo, n_hi + 1))
    g = random_connected_graph(rng, n, extra=extra, wmax=wmax)
    root = int(rng.integers(0, n))
    t = build_rooted_tree(g, random_spanning_tree_edges(g, rng), root)
    return g, t


def candidate_rows(g, d):
    """Step 4's (cross, down) candidate rows on g before any filter:
    interest_checks without its proxy filter."""
    t = d.tree
    return candidate_tops(d, *tertile_witnesses(d, ProxyFilter(weight_index(g, t), t)))


def weight_index(g, t):
    """The merge-sort tree over g's edge points under t, as the in-memory
    provider builds it per tree."""
    pts = EdgePointSet(g, t)
    return WeightRangeIndex(pts.xs, pts.ys, pts.ws)


def grid_index(g, t):
    """The dense grid over g's edge points under t, as the simulated
    providers hand it to the proxy filter."""
    return PoPrefixGrid(t.n, *edge_points(t.po, g.eu, g.ev), g.ew)
