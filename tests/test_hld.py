"""Heavy-light decomposition: structure, bounds, segment queries."""

import numpy as np

from twocut.graph import WeightedGraph, build_rooted_tree
from twocut.hld import decompose, top_edges_on_root_path
from twocut.util import floor_log2

from conftest import make_gstar, random_instance


def random_tree(rng, n):
    parent = [-1] * n
    for v in range(1, n):
        parent[v] = int(rng.integers(0, v))
    edges = [(parent[v], v, 1) for v in range(1, n)]
    g = WeightedGraph(n, edges)
    return g, build_rooted_tree(g, [(u, v) for u, v, _ in edges], 0)


def walk_tops(t, d, u, v):
    """Brute force: the u..v walk (v in u's subtree) grouped by path, each
    group's root-most edge, ordered from u down; empty when v == u."""
    walk = []
    x = v
    while x != u:
        walk.append(x)
        x = int(t.parent[x])
    bypath = {}
    for c in walk:
        pid = int(d.path_of[c])
        best = bypath.get(pid)
        if best is None or t.depth[c] < t.depth[best]:
            bypath[pid] = c
    return sorted(((c, pid) for pid, c in bypath.items()), key=lambda e: int(t.depth[e[0]]))


def brute_lca(t, a, b):
    up = {a}
    while a != t.root:
        a = int(t.parent[a])
        up.add(a)
    while b not in up:
        b = int(t.parent[b])
    return b


def test_gstar_paths():
    _, t = make_gstar()
    d = decompose(t)
    as_sets = {tuple(p) for p in d.paths}
    assert as_sets == {(1, 2), (3, 4)}


def test_path_tree_single_path_and_star_singletons():
    n = 9
    path_edges = [(i, i + 1, 1) for i in range(n - 1)]
    g = WeightedGraph(n, path_edges)
    t = build_rooted_tree(g, [(u, v) for u, v, _ in path_edges], 0)
    d = decompose(t)
    assert len(d.paths) == 1 and len(d.paths[0]) == n - 1

    star_edges = [(0, i, 1) for i in range(1, n)]
    g2 = WeightedGraph(n, star_edges)
    t2 = build_rooted_tree(g2, [(u, v) for u, v, _ in star_edges], 0)
    d2 = decompose(t2)
    assert len(d2.paths) == n - 1
    assert all(len(p) == 1 for p in d2.paths)


def test_paths_partition_edges():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g, t = random_instance(rng, 2, 14)
        d = decompose(t)
        covered = [c for p in d.paths for c in p]
        assert sorted(covered) == sorted(t.edge_children())
        for pid, p in enumerate(d.paths):
            for c in p:
                assert d.path_of[c] == pid
            # consecutive entries are parent-child along the tree
            for a, b in zip(p, p[1:]):
                assert int(t.parent[b]) == a
            assert d.top_edge[pid] == p[0]


def test_root_leaf_bound_on_random_trees():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(2, 513))
        _, t = random_tree(rng, n)
        d = decompose(t)
        bound = floor_log2(n) + 1
        leaves = [v for v in range(n) if not t.children[v]]
        for v in leaves:
            assert len(top_edges_on_root_path(d, v)) <= bound


def test_gstar_top_edges():
    _, t = make_gstar()
    d = decompose(t)
    p2 = int(d.path_of[3])
    assert top_edges_on_root_path(d, 4) == [(3, p2)]
    p1 = int(d.path_of[1])
    assert top_edges_on_root_path(d, 2) == [(1, p1)]
    assert top_edges_on_root_path(d, 0) == []


def test_gstar_top_edge_below():
    _, t = make_gstar()
    d = decompose(t)
    p2 = int(d.path_of[3])
    assert d.suffix_tops_below_depth(4, int(t.depth[0])) == [(3, p2)]
    # parent-of: direct edge only
    assert d.suffix_tops_below_depth(4, int(t.depth[3])) == [(4, p2)]
    # nothing of a line lies strictly below its own end
    assert d.suffix_tops_below_depth(4, int(t.depth[4])) == []


def test_top_edge_below_matches_walk():
    rng = np.random.default_rng(8)
    for _ in range(60):
        g, t = random_instance(rng, 3, 14)
        d = decompose(t)
        rows = [(u, v) for u in range(g.n) for v in t.subtree(u) if v != u]
        want = [walk_tops(t, d, u, v) for u, v in rows]
        for (u, v), w in zip(rows, want):
            assert d.suffix_tops_below_depth(v, int(t.depth[u])) == w
        # the same rows in one batch
        us, vs = np.asarray(rows).T
        row, f = d.suffix_tops(vs, t.depth[us])
        got = [[] for _ in rows]
        for r, c in zip(row.tolist(), f.tolist()):
            got[r].append((c, int(d.path_of[c])))
        assert got == want


def test_top_edges_on_root_path_matches_walk():
    rng = np.random.default_rng(9)
    for _ in range(40):
        g, t = random_instance(rng, 2, 14)
        d = decompose(t)
        bound = floor_log2(g.n) + 1
        for v in range(g.n):
            if v == t.root:
                continue
            got = top_edges_on_root_path(d, v)
            assert len(got) <= bound
            seen_pids = [pid for _, pid in got]
            assert len(set(seen_pids)) == len(seen_pids)
            for edge, pid in got:
                assert d.top_edge[pid] == edge
                assert t.is_ancestor(edge, v) or t.is_ancestor(v, edge) or True
                # the top edge lies on the root..v path
                x = v
                chain = set()
                while x != t.root:
                    chain.add(x)
                    x = int(t.parent[x])
                assert edge in chain


def test_suffix_tops_match_segment_walk():
    rng = np.random.default_rng(12)
    for _ in range(40):
        g, t = random_instance(rng, 4, 14)
        d = decompose(t)
        rows = [(u, x) for x in range(g.n) if x != t.root for u in range(g.n) if u != x]
        us, xs = np.asarray(rows).T
        batch = d.anchor_depths(us, xs)
        for (u, x), da in zip(rows, batch.tolist()):
            assert d.cross_anchor_depth(u, x) == da
            if t.is_ancestor(u, x):
                assert d.suffix_tops_below_depth(x, int(t.depth[u])) == walk_tops(t, d, u, x)
            elif not t.is_ancestor(x, u):
                anchor = brute_lca(t, u, x)
                assert da == int(t.depth[anchor])
                assert d.suffix_tops_below_depth(x, da) == walk_tops(t, d, anchor, x)
            else:
                # x an ancestor of u: the divergence sits at x itself
                assert d.suffix_tops_below_depth(x, da) == []
