"""Graph core: loading, tree numbering, cut formulas, and the two oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from twocut.graph import (
    NESTED,
    ORTHOGONAL,
    SINGLE,
    DisconnectedError,
    GraphError,
    MalformedInputError,
    RootedSpanTree,
    SelfLoopError,
    TreeEdgePair,
    TreeStructureError,
    WeightedGraph,
    WeightOverflowError,
    build_rooted_tree,
    classify_pair,
    cut_of_partition,
    load_graph,
    oracle_2respect_min,
    oracle_min_cut,
    pair_cut_value,
    reconstruct_partition,
)

from conftest import GSTAR_TREE, make_gstar, random_instance


def test_load_triangle():
    g = load_graph("p 3 3\n0 1 1\n1 2 1\n0 2 1\n")
    assert g.n == 3 and g.m == 3
    assert g.total_weight == 3


def test_load_merges_parallel_edges():
    g = load_graph("p 2 2\n0 1 2\n1 0 3\n")
    assert g.m == 1
    assert g.edges == [(0, 1, 5)]


def test_load_empty_graph_disconnected():
    with pytest.raises(DisconnectedError):
        load_graph("p 2 0\n")


def test_load_dimacs_lines_are_one_based():
    g = load_graph("c comment\np 3 2\na 1 2 4\na 2 3 1\n")
    assert g.edges == [(0, 1, 4), (1, 2, 1)]


def test_load_distinct_errors():
    with pytest.raises(MalformedInputError):
        load_graph("p 2 1\n0 1\n")
    with pytest.raises(SelfLoopError):
        load_graph("p 2 1\n1 1 3\n")
    with pytest.raises(WeightOverflowError):
        load_graph(f"p 2 1\n0 1 {2**32 + 1}\n")
    with pytest.raises(MalformedInputError):
        load_graph("p 2 1\n0 1 1\n0 1 1\n")


@pytest.mark.parametrize("header", ["p --3 2", "p \u00b2 2", "p 3 -"])
def test_load_malformed_header_refused(header):
    with pytest.raises(MalformedInputError, match="bad header"):
        load_graph(f"{header}\n0 1 1\n1 2 1\n")


def test_non_integer_weight_refused():
    for w, msg in ((1.5, "not an integer"), (2.0, "not an integer"), (-1, "negative weight")):
        with pytest.raises(MalformedInputError, match=msg):
            WeightedGraph(2, [(0, 1, w)])
    assert WeightedGraph(2, [(0, 1, np.int64(3))]).edges == [(0, 1, 3)]


def test_non_integer_endpoint_refused():
    with pytest.raises(MalformedInputError, match="not an integer"):
        WeightedGraph(3, [(0.5, 1, 1), (1, 2, 1), (0, 2, 1)])
    g = WeightedGraph(3, [(np.int64(2), np.int64(0), 1), (1, 2, 1)])
    assert g.edges == [(0, 2, 1), (1, 2, 1)] and all(type(x) is int for e in g.edges for x in e)


def test_too_few_edges_disconnected_before_vertex_arrays():
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedError):
            load_graph("p 2000000 1\n0 1 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20


def test_min_weighted_degree_exact_past_int64():
    big = 1 << 62
    g = WeightedGraph(3, [(0, 1, big + 5), (1, 2, big + 7), (0, 2, big + 9)])
    assert g.min_weighted_degree() == 2 * big + 12  # every degree passes 2**63


def test_merged_weight_past_int64_refused():
    with pytest.raises(WeightOverflowError, match="int64"):
        WeightedGraph(2, [(0, 1, 1 << 62), (0, 1, 1 << 62)])
    g = WeightedGraph(2, [(0, 1, 1 << 62), (0, 1, (1 << 62) - 1)])
    assert g.edges == [(0, 1, (1 << 63) - 1)] and int(g.ew[0]) == (1 << 63) - 1


def test_gstar_postorder_and_ranges():
    _, t = make_gstar()
    assert {v: int(t.po[v]) for v in range(5)} == {2: 0, 1: 1, 4: 2, 3: 3, 0: 4}
    assert t.range_of(1) == (0, 1)
    assert t.range_of(3) == (2, 3)
    assert t.range_of(0) == (0, 4)


def test_single_vertex_tree():
    g = WeightedGraph(1, [])
    t = build_rooted_tree(g, [], 0)
    assert int(t.po[0]) == 0 and t.range_of(0) == (0, 0)


def test_build_tree_rejects_bad_inputs(gstar):
    g, _ = gstar
    with pytest.raises(TreeStructureError):
        build_rooted_tree(g, [(0, 1), (1, 2), (0, 3)], 0)  # non-spanning
    with pytest.raises(TreeStructureError):
        build_rooted_tree(g, [(0, 1), (1, 3), (0, 3), (3, 4)], 0)  # cycle, misses vertex 2
    with pytest.raises(TreeStructureError):
        build_rooted_tree(g, [(0, 1), (1, 2), (0, 2), (3, 4)], 0)  # (0, 2) absent from g
    with pytest.raises(TreeStructureError):
        build_rooted_tree(g, [(0, 1), (1, 2), (2, 1), (0, 3)], 0)  # repeated edge, misses vertex 4
    with pytest.raises(TreeStructureError, match="not a vertex"):
        build_rooted_tree(g, [(0, 1), (1, 2), (0, g.n + 3), (3, 4)], 0)  # packs like (1, 3), an edge of g
    with pytest.raises(TreeStructureError, match="not a vertex"):
        build_rooted_tree(g, [(0, 1), (1, 2), (-1, 3), (3, 4)], 0)
    with pytest.raises(TreeStructureError, match="not a vertex"):
        build_rooted_tree(g, [(0, 1), (1, 2), (0.0, 3), (3, 4)], 0)


@pytest.mark.parametrize("n, root, parent", [
    (3, 0, [-1, 2, 1]),  # a cycle away from the root
    (3, 0, [-1, 0, 2]),  # a self-parent
    (3, 0, [-1, 5, 0]),  # a parent out of range
    (3, 0, [-1, -1, 0]),  # a second root
    (3, 0, [-1, 0]),  # too short
    (3, 3, [-1, 0, 0]),  # root out of range
    (3, 1, [-1, 0, 0]),  # the root has a parent
])
def test_rooted_tree_rejects_parent_arrays_that_are_not_trees(n, root, parent):
    with pytest.raises(TreeStructureError):
        RootedSpanTree(n, root, parent)


def test_build_tree_accepts_any_orientation_and_iterable(gstar):
    g, t = gstar
    weight = {(u, v): w for u, v, w in g.edges}
    flipped = [(v, u) for u, v in GSTAR_TREE]
    triples = [(u, v, weight[u, v]) for u, v in GSTAR_TREE]
    for edges in (flipped, triples, (e for e in reversed(GSTAR_TREE))):
        got = build_rooted_tree(g, edges, 0)
        assert got.parent.tolist() == t.parent.tolist() and got.po.tolist() == t.po.tolist()


def test_cut_of_partition_examples(gstar):
    g, _ = gstar
    assert cut_of_partition(g, {0}) == 2
    assert cut_of_partition(g, {1, 2}) == 7
    two = WeightedGraph(2, [(0, 1, 7)])
    assert cut_of_partition(two, {0}) == 7
    with pytest.raises(ValueError):
        cut_of_partition(g, set())
    with pytest.raises(ValueError):
        cut_of_partition(g, set(range(5)))


def test_pair_cut_values_on_gstar(gstar):
    g, t = gstar
    assert pair_cut_value(g, t, TreeEdgePair(ORTHOGONAL, 1, 3)) == 2
    assert pair_cut_value(g, t, TreeEdgePair(NESTED, 1, 2)) == 4
    assert pair_cut_value(g, t, TreeEdgePair(SINGLE, 2)) == 5


def test_pair_kind_mismatch_rejected(gstar):
    _, t = gstar
    g, _ = gstar
    with pytest.raises(ValueError):
        pair_cut_value(g, t, TreeEdgePair(ORTHOGONAL, 1, 2))
    with pytest.raises(ValueError):
        pair_cut_value(g, t, TreeEdgePair(NESTED, 3, 2))


def test_reconstruct_partition_examples(gstar):
    _, t = gstar
    assert reconstruct_partition(t, TreeEdgePair(ORTHOGONAL, 1, 3)) == {1, 2, 3, 4}
    assert reconstruct_partition(t, TreeEdgePair(NESTED, 1, 2)) == {1}
    assert reconstruct_partition(t, TreeEdgePair(SINGLE, 3)) == {3, 4}


def test_oracle_min_cut_examples(gstar):
    g, _ = gstar
    assert oracle_min_cut(g).value == 2
    tri = load_graph("p 3 3\n0 1 1\n1 2 1\n0 2 1\n")
    assert oracle_min_cut(tri).value == 2
    path = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert oracle_min_cut(path).value == 1
    with pytest.raises(GraphError):
        oracle_min_cut(WeightedGraph(1, []))


def test_oracle_min_cut_partition_is_witness():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g, _ = random_instance(rng, 4, 10)
        res = oracle_min_cut(g)
        assert cut_of_partition(g, res.partition) == res.value


def test_exhaustive_flag_cap():
    rng = np.random.default_rng(3)
    g, _ = random_instance(rng, 20, 20)
    with pytest.raises(GraphError):
        oracle_min_cut(g, exhaustive=True)


def test_stoer_wagner_matches_exhaustive():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g, _ = random_instance(rng, 4, 12)
        assert oracle_min_cut(g, exhaustive=False).value == oracle_min_cut(g).value
    res = oracle_min_cut(g, exhaustive=False)
    assert cut_of_partition(g, res.partition) == res.value


def test_oracle_2respect_on_gstar(gstar):
    g, t = gstar
    res = oracle_2respect_min(g, t)
    assert res.value == 2
    # two orthogonal pairs tie at 2; the (po(a), po(b)) rule picks children (2, 4)
    assert res.certificate == TreeEdgePair(ORTHOGONAL, 2, 4)
    assert cut_of_partition(g, res.partition) == 2


def test_oracle_2respect_trivia():
    star = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    t = build_rooted_tree(star, [(0, 1), (0, 2), (0, 3)], 0)
    res = oracle_2respect_min(star, t)
    assert res.value == 1 and res.certificate.kind == SINGLE
    two = WeightedGraph(2, [(0, 1, 7)])
    t2 = build_rooted_tree(two, [(0, 1)], 0)
    res2 = oracle_2respect_min(two, t2)
    assert res2.value == 7 and res2.certificate.kind == SINGLE


def all_pairs(t):
    kids = t.edge_children()
    for u in kids:
        yield TreeEdgePair(SINGLE, u)
    for x, y in itertools.combinations(kids, 2):
        yield classify_pair(t, x, y)


def test_pair_formula_equals_partition_cut_small_random():
    rng = np.random.default_rng(19)
    for _ in range(40):
        g, t = random_instance(rng, 2, 9)
        for p in all_pairs(t):
            assert pair_cut_value(g, t, p) == cut_of_partition(g, reconstruct_partition(t, p))


def test_2respect_at_least_min_cut_and_tight_when_applicable():
    rng = np.random.default_rng(23)
    for _ in range(60):
        g, t = random_instance(rng, 4, 11)
        mc = oracle_min_cut(g)
        r2 = oracle_2respect_min(g, t)
        assert r2.value >= mc.value
        tree_children = set(t.edge_children())
        crossing = 0
        for v in tree_children:
            p = int(t.parent[v])
            if (v in mc.partition) != (p in mc.partition):
                crossing += 1
        if crossing <= 2:
            assert r2.value == mc.value


def test_po_ranges_match_ancestor_walks():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g, t = random_instance(rng, 3, 12)
        for v in range(g.n):
            chain = set()
            x = v
            while x != -1:
                chain.add(x)
                x = int(t.parent[x]) if x != t.root else -1
            for u in range(g.n):
                assert t.is_ancestor(u, v) == (u in chain)
                if u != v:
                    disjoint = not (t.is_ancestor(u, v) or t.is_ancestor(v, u))
                    assert t.orthogonal(u, v) == disjoint


def four_cycle(w):
    return WeightedGraph(4, [(0, 1, w), (1, 2, w), (2, 3, w), (0, 3, w)])


def test_total_weight_is_exact_past_int64():
    g = four_cycle(1 << 62)
    assert g.total_weight == 1 << 64
    assert isinstance(g.total_weight, int)


def test_oracle_refuses_weight_sum_reaching_2_62():
    with pytest.raises(WeightOverflowError):
        oracle_min_cut(four_cycle(1 << 62))
    with pytest.raises(WeightOverflowError):
        oracle_min_cut(four_cycle(1 << 60), exhaustive=False)  # total exactly 2**62
    w = (1 << 60) - 1  # total just below the limit: both oracles stay exact
    assert oracle_min_cut(four_cycle(w)).value == 2 * w
    assert oracle_min_cut(four_cycle(w), exhaustive=False).value == 2 * w


@pytest.mark.parametrize("mode", ["sequential", "cut-query", "streaming"])
def test_pipeline_refuses_weight_sum_reaching_2_62(mode):
    from twocut.packing import min_cut_pipeline

    with pytest.raises(WeightOverflowError):
        min_cut_pipeline(four_cycle(1 << 62), mode, rng=1)
    w = (1 << 60) - 1
    assert min_cut_pipeline(four_cycle(w), mode, rng=1)[0].value == 2 * w
