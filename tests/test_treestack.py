"""Stacked rooting (graph.TreeStack) and decomposition (hld.PathStack) against
the scalar per-tree walks in tree_reference, field for field."""

import numpy as np
import pytest

import twocut.graph as graph
from twocut.graph import RootedSpanTree, TreeStack, TreeStructureError, WeightedGraph, build_rooted_tree
from twocut.hld import PathStack, decompose
from twocut.packing import build_skeleton, greedy_pack, lambda_schedule, trees_to_run
from twocut.util import ceil_log2, rng_for

from conftest import random_connected_graph
from tree_reference import reference_decomposition, reference_parent, reference_tree

TREE_FIELDS = ("parent", "size", "depth", "po", "lo", "hi", "order")
PATH_FIELDS = ("path_of", "top_edge", "flat", "pos", "start", "top_depth", "exit_path", "exit_depth")


def shaped_parent(rng, n, shape):
    """A parent array rooted at 0 (parent[v] < v) of the given shape."""
    if shape == "path":
        return [-1] + list(range(n - 1))
    if shape == "star":
        return [-1] + [0] * (n - 1)
    if shape == "caterpillar":  # a spine of even vertices, each odd vertex a leg
        return [-1] + [v - 1 if v % 2 else max(v - 2, 0) for v in range(1, n)]
    return [-1] + [int(rng.integers(0, v)) for v in range(1, n)]


def shaped_edges(rng, n, shape):
    """n - 1 edges of a tree of the shape, relabelled at random, each in a random orientation."""
    parent, perm = shaped_parent(rng, n, shape), rng.permutation(n)
    edges = [(int(perm[parent[v]]), int(perm[v])) for v in range(1, n)]
    return [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]


def assert_tree_matches(t, ref):
    for name in TREE_FIELDS:
        assert np.array_equal(getattr(t, name), getattr(ref, name)), name
    assert t.root == ref.root and t.children == ref.children
    assert t.edge_children() == [v for v in range(ref.n) if v != ref.root]


def assert_paths_match(d, ref):
    assert d.paths == ref.paths
    for name in PATH_FIELDS:
        assert np.array_equal(getattr(d, name), getattr(ref, name)), name


def stacks():
    """(n, tree shapes, rng) of stacks that together hold over 300 trees: n in
    {1, 2, 3}, stacks of one shape, and stacks that mix shapes."""
    rng = np.random.default_rng(27)
    shapes = ("random", "path", "star", "caterpillar")
    for n in (1, 2, 3):
        for shape in shapes:
            yield n, [shape] * 3, rng
    for i in range(66):
        n = int(rng.integers(4, 70))
        mix = [shapes[i % 4]] * 4 if i < 20 else [shapes[j] for j in rng.integers(0, 4, int(rng.integers(1, 9)))]
        yield n, mix, rng


def test_stacked_builders_match_scalar_reference():
    trees = 0
    for n, shapes, rng in stacks():
        ends = [shaped_edges(rng, n, s) for s in shapes]
        roots = [int(rng.integers(n)) for _ in shapes]
        refs = [reference_tree(n, r, reference_parent(n, e, r) if n > 1 else [-1]) for e, r in zip(ends, roots)]
        ts = TreeStack(n, np.asarray(ends, dtype=np.int64).reshape(len(shapes), n - 1, 2), roots)
        for t, ref in zip(ts.trees(), refs):
            assert_tree_matches(t, ref)
            assert_tree_matches(RootedSpanTree(n, ref.root, ref.parent), ref)
        if n > 1:
            paths = PathStack(ts)
            for i, (t, ref) in enumerate(zip(ts.trees(), refs)):
                assert_paths_match(paths.row(i, t), reference_decomposition(ref))
        trees += len(shapes)
    assert trees >= 300


def test_one_tree_wrappers_match_scalar_reference():
    rng = np.random.default_rng(28)
    for i in range(40):
        n = int(rng.integers(2, 40))
        edges = shaped_edges(rng, n, ("random", "path", "star", "caterpillar")[i % 4])
        g, root = WeightedGraph(n, [(u, v, 1) for u, v in edges]), int(rng.integers(n))
        ref = reference_tree(n, root, reference_parent(n, edges, root))
        t = build_rooted_tree(g, edges, root)
        assert_tree_matches(t, ref)
        assert_paths_match(decompose(t), reference_decomposition(ref))


def test_gather_matches_concatenated_reference_rows():
    # the j-th gathered row numbers vertex v as j * n + v, with path ids and
    # flat positions offset by the rows before it
    rng = np.random.default_rng(29)
    for _ in range(30):
        n, k = int(rng.integers(2, 30)), int(rng.integers(1, 7))
        ends = [shaped_edges(rng, n, "random") for _ in range(k)]
        roots = [int(rng.integers(n)) for _ in range(k)]
        ts = TreeStack(n, np.asarray(ends, dtype=np.int64), roots)
        rows = rng.permutation(k)[: int(rng.integers(1, k + 1))]
        stack = PathStack(ts)
        got, light = stack.gather(rows), stack.gather(rows, exits=False)
        refs = [reference_decomposition(reference_tree(n, roots[i], ts.trees()[i].parent)) for i in rows]
        pid = np.cumsum([0] + [len(r.paths) for r in refs])
        j = np.arange(len(rows))
        shift = {"flat": j * n, "start": j * (n - 1), "pos": j * (n - 1), "path_of": pid, "exit_path": pid}
        for name in ("flat", "start", "pos", "top_depth", "path_of", "exit_path", "exit_depth"):
            want = np.concatenate([np.where(getattr(r, name) >= 0, getattr(r, name) + s, -1)
                                   for r, s in zip(refs, shift.get(name, 0 * j))])
            assert np.array_equal(getattr(got, name), want), name
            # the search's stacked columns, without the exit tables only the walks read
            assert name.startswith("exit") != hasattr(light, name) and (
                name.startswith("exit") or np.array_equal(getattr(light, name), want)), name
        for d in (got, light):
            assert np.array_equal(d.tree.order, np.concatenate([ts.order[i] + a * n for a, i in enumerate(rows)]))
            assert np.array_equal(d.tree.lo, ts.lo[rows].ravel()) and np.array_equal(d.tree.hi, ts.po[rows].ravel())
            assert d.tree.po is d.tree.hi


@pytest.mark.parametrize("n", [3, 17, 1000])
def test_cycle_off_the_root_raises_after_bounded_rounds(n, monkeypatch):
    # a parent array whose non-root vertices form one cycle: the root's tour never
    # reaches them, and the fixed ceil(log2 n) + 1 doubling rounds end the search
    asked = []
    monkeypatch.setattr(graph, "ceil_log2", lambda x: asked.append(x) or ceil_log2(x))
    parent = [-1] + [v % (n - 1) + 1 for v in range(1, n)]  # 1 -> 2 -> ... -> n-1 -> 1
    with pytest.raises(TreeStructureError, match="tree 0"):
        RootedSpanTree(n, 0, parent)
    parent = [v - 1 for v in range(n)]  # a path below the root, its end looped back onto vertex 2
    parent[0], parent[1] = -1, 0
    parent[2] = n - 1
    with pytest.raises(TreeStructureError):
        RootedSpanTree(n, 0, parent)
    assert set(asked) == {n}  # the round count depends on n alone


def test_bad_tree_in_a_stack_names_its_index():
    rng = np.random.default_rng(30)
    n = 12
    good = [shaped_edges(rng, n, s) for s in ("random", "path", "star", "caterpillar", "random")]
    cycle = good[3][:-1] + [good[3][0]]  # a repeated edge in place of the last one
    far = [(0, 1), (1, 2), (2, 0)] + [(v, v + 1) for v in range(3, n - 1)]  # a triangle, and a path apart from it
    for bad, i in ((cycle, 3), (far, 1), (far, 4)):  # the bad tree replaces tree i of five
        ends = good[:i] + [bad] + good[i + 1 :]
        with pytest.raises(TreeStructureError, match=f"tree {i}:"):
            TreeStack(n, np.asarray(ends), [0] * len(ends))


def test_trees_to_run_deduplicates_in_first_seen_order():
    # the (k, n-1) key table, deduplicated, equals the per-tree sorted edge tuples
    # kept on first sight, in the same order
    for seed in range(4):
        g = random_connected_graph(np.random.default_rng(300 + seed), 20, extra=2.0, wmax=1 << 20)
        keys, schedule, packed = trees_to_run(g, 0.5, seed, trees_override=6)
        assert schedule == lambda_schedule(g, 0.5) and packed == 6 * len(schedule)
        seen, want = set(), []
        for j, guess in enumerate(schedule):
            packing = greedy_pack(build_skeleton(g, 0.5, guess, rng_for(seed, 3, j)).graph, 6)
            for eids in packing.trees:
                edges = tuple(sorted(zip(packing.host.eu[eids].tolist(), packing.host.ev[eids].tolist())))
                if edges not in seen:
                    seen.add(edges)
                    want.append([u * g.n + v for u, v in edges])
        assert keys.tolist() == want
