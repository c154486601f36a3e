"""Packing, skeleton, guess schedule, and the sequential pipeline."""

import itertools
import math

import numpy as np
import pytest

from twocut.graph import GraphError, WeightedGraph, cut_of_partition, oracle_min_cut
from twocut import packing, proxy
from twocut.packing import (
    MODES,
    PipelineConfig,
    approx_min_cut,
    build_skeleton,
    greedy_pack,
    lambda_schedule,
    min_cut_pipeline,
    skeleton_rate,
)
from twocut.proxy import ResourceBudgetError, build_proxy_direct, forests_per_class
from twocut.util import DisjointSets

from conftest import make_gstar, random_connected_graph, random_instance


def test_greedy_pack_triangle_rotation():
    tri = WeightedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    packing = greedy_pack(tri, 3)
    assert packing.trees == [[0, 1], [0, 2], [1, 2]]
    assert packing.loads == [2, 2, 2]


def test_greedy_pack_single_tree_is_spanning():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 9)
    packing = greedy_pack(g, 1)
    assert len(packing.trees[0]) == g.n - 1
    assert sorted(set(packing.loads)) in ([0, 1], [1])


def test_greedy_pack_tree_host_repeats():
    path = WeightedGraph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 5)])
    packing = greedy_pack(path, 4)
    assert all(tree == [0, 1, 2] for tree in packing.trees)


def test_lambda_schedule_examples():
    # both saturate the skeleton rate, so the one exact packing is the schedule
    g, _ = make_gstar()
    assert lambda_schedule(g, 0.1) == [2]
    star = WeightedGraph(4, [(0, i, 1) for i in range(1, 4)])
    assert lambda_schedule(star, 0.1) == [1]


def test_lambda_schedule_spans_degree_gap():
    # two heavy cliques joined by one light bridge: lambda lies far below
    # the least degree, and a guess must still land in (lambda/2, lambda]
    heavy, bridge = 1 << 30, 1000
    edges = []
    for a, b in itertools.combinations(range(4), 2):
        edges.append((a, b, heavy))
        edges.append((a + 4, b + 4, heavy))
    edges.append((0, 4, bridge))
    g = WeightedGraph(8, edges)
    sched = lambda_schedule(g, 0.1)
    assert skeleton_rate(g.n, 0.1, g.min_weighted_degree()) < 1
    assert 1 <= len(sched) <= 3
    assert any(bridge < 2 * guess <= 2 * bridge for guess in sched)
    assert all(a > b for a, b in zip(sched, sched[1:]))


def matula_corpus():
    """Random graphs at light and heavy weights, zero-weight and merged
    parallel edges, totals near the 2**62 cap, paths, stars, cycles, and
    heavy cliques joined by a light bridge."""
    rng = np.random.default_rng(0x3A7)
    for i in range(120):
        n = int(rng.integers(2, 20))
        yield random_connected_graph(rng, n, float(rng.uniform(0.5, 4)), (10, 1 << 32)[i % 2])
    for i in range(30):
        g = random_connected_graph(rng, int(rng.integers(3, 16)), 2.5, (10, 1 << 32)[i % 2])
        yield WeightedGraph(g.n, [(u, v, w if j % 3 else 0) for j, (u, v, w) in enumerate(g.edges)])
        yield WeightedGraph(g.n, g.edges + [(u, v, w // 3) for u, v, w in g.edges[::2]])
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 16)), 2.0, 1 << 32)
        scale = int(2 ** 61.8) // g.total_weight
        yield WeightedGraph(g.n, [(u, v, w * scale) for u, v, w in g.edges])
    for i in range(30):
        n = int(rng.integers(2, 20))
        w = [int(x) for x in rng.integers(1, (10, 1 << 32)[i % 2] + 1, size=n)]
        shape = i % 3
        if shape == 0:
            yield WeightedGraph(n, [(v, v + 1, w[v]) for v in range(n - 1)])
        elif shape == 1:
            yield WeightedGraph(n, [(0, v, w[v]) for v in range(1, n)])
        else:
            yield WeightedGraph(n, [(v, (v + 1) % n, w[v]) for v in range(n)])
    for i in range(10):
        k, heavy = int(rng.integers(3, 8)), 1 << int(rng.integers(20, 33))
        clique = list(itertools.combinations(range(k), 2))
        edges = [(u, v, heavy) for u, v in clique] + [(u + k, v + k, heavy) for u, v in clique]
        yield WeightedGraph(2 * k, edges + [(0, k, 1 + i), (k - 1, 2 * k - 1, i)])


def test_approx_min_cut_brackets_lambda():
    graphs = list(matula_corpus())
    assert len(graphs) >= 200
    for i, g in enumerate(graphs):
        lam, alpha = oracle_min_cut(g).value, approx_min_cut(g)
        assert lam <= alpha and 10 * alpha <= 21 * lam, f"graph {i}: lambda {lam}, alpha {alpha}"


def test_lambda_schedule_covers_the_bracket(monkeypatch):
    # every integer lambda in [alpha / 2.1, alpha] is served by one of at
    # most three guesses: a g with lambda / 2 <= g <= lambda, or a saturated
    # g >= lambda / 2, whose exact packing every smaller guess shares. eps 1
    # leaves small guesses unsaturated, so the halvings themselves are tried.
    heavy = WeightedGraph(4, [(u, v, 1 << 40) for u, v in itertools.combinations(range(4), 2)])
    for eps, alpha in itertools.product((0.1, 1.0), [*range(1, 400), 10**9 + 7, 42 << 30, (1 << 41) - 1]):
        monkeypatch.setattr(packing, "approx_min_cut", lambda host: alpha)
        sched = lambda_schedule(heavy, eps)
        assert sched[0] == alpha and len(sched) <= 3
        lo = -(-10 * alpha // 21)
        near_edges = (lo, lo + 1, alpha // 2 - 1, alpha // 2, alpha // 2 + 1, alpha - 1)
        for lam in range(lo, alpha + 1) if alpha < 400 else [lam for lam in near_edges if lo <= lam] + [alpha]:
            assert any(lam <= 2 * g and (g <= lam or skeleton_rate(4, eps, g) >= 1) for g in sched), (eps, alpha, lam)


def test_skeleton_rate_one_copies_host():
    g, _ = make_gstar()
    sk = build_skeleton(g, eps=0.01, lambda_guess=1, rng=np.random.default_rng(0))
    assert sk.rate == 1.0 and sk.graph is g


def test_skeleton_subsamples_heavy_host():
    rng = np.random.default_rng(5)
    edges = [(i, (i + 1) % 12, 1 << 20) for i in range(12)]
    g = WeightedGraph(12, edges)
    sk = build_skeleton(g, eps=0.1, lambda_guess=2 * (1 << 20), rng=rng)
    assert sk.rate < 1.0
    assert sk.graph.total_weight < g.total_weight
    assert sk.graph.is_connected()


def test_skeleton_min_cut_concentration():
    # ring of heavy edges: min cut 2W, skeleton min cut should land near
    # rate * 2W (loose band; sanity not a proof)
    W = 1 << 22
    ring = WeightedGraph(16, [(i, (i + 1) % 16, W) for i in range(16)])
    lam = 2 * W
    inside = 0
    trials = 100
    for s in range(trials):
        sk = build_skeleton(ring, eps=0.1, lambda_guess=lam, rng=np.random.default_rng(s))
        expected = sk.rate * lam
        got = oracle_min_cut(sk.graph).value
        if 0.5 * expected <= got <= 2.0 * expected:
            inside += 1
    assert inside >= 95


def test_packing_respects_small_cuts():
    # Lemma-style check at desk scale: cuts within 1.1x of the minimum
    # 2-respect at least a third of a ceil(3 lambda ln m) greedy packing.
    rng = np.random.default_rng(17)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(rng, n, extra=1.5, wmax=4)
        lam = oracle_min_cut(g).value
        k = max(1, math.ceil(3 * lam * math.log(max(g.m, 2))))
        if k > 400:
            continue
        packing = greedy_pack(g, k)
        trees = [set(packing.trees[i]) for i in range(k)]
        edge_ids = {(u, v): eid for eid, (u, v, _) in enumerate(g.edges)}
        for mask in range(1, 1 << (n - 1)):
            side = {v for v in range(n - 1) if (mask >> v) & 1}
            value = cut_of_partition(g, side)
            if value > 1.1 * lam:
                continue
            crossing = {
                eid
                for (u, v), eid in edge_ids.items()
                if (u in side) != (v in side)
            }
            good = sum(1 for t in trees if len(crossing & t) <= 2)
            assert good >= math.ceil(k / 3)


def test_pipeline_sequential_gstar_and_triangle():
    g, _ = make_gstar()
    res, stats = min_cut_pipeline(g, "sequential", rng=7)
    assert res.value == 2
    assert cut_of_partition(g, res.partition) == 2
    assert stats.queries == 0 and stats.passes == 0
    tri = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert min_cut_pipeline(tri, "sequential", rng=1)[0].value == 2


def test_pipeline_sequential_matches_oracle():
    rng = np.random.default_rng(2025)
    for i in range(60):
        g, _ = random_instance(rng, 4, 14)
        res, _ = min_cut_pipeline(g, "sequential", rng=i)
        assert res.value == oracle_min_cut(g).value


def test_pipeline_rejects_bad_inputs():
    with pytest.raises(GraphError):
        min_cut_pipeline(WeightedGraph(1, []), "sequential")
    g, _ = make_gstar()
    with pytest.raises(ValueError):
        min_cut_pipeline(g, "sequential", eps=0.5)
    with pytest.raises(ValueError):
        min_cut_pipeline(g, "warp-drive")


def test_direct_proxy_small_graph_is_exact():
    g, _ = make_gstar()
    h = build_proxy_direct(g, eps=0.1)
    assert h.edges == g.edges
    tree = WeightedGraph(5, [(0, 1, 3), (1, 2, 1), (1, 3, 2), (3, 4, 9)])
    ht = build_proxy_direct(tree, eps=0.1)
    assert ht.edges == tree.edges


@pytest.mark.parametrize("mode", MODES)
def test_zero_weight_edges_pack_and_solve(mode):
    g = WeightedGraph(5, [(0, 1, 3), (1, 2, 4), (0, 2, 2), (2, 3, 0), (3, 4, 5)])
    packing = greedy_pack(g, 4)
    assert all(len(tr) == 4 for tr in packing.trees)
    res, _ = min_cut_pipeline(g, mode, rng=3)
    assert res.value == 0 == oracle_min_cut(g).value
    assert cut_of_partition(g, res.partition) == 0


def heavy_planted_family():
    """Two random halves at weights up to 2**32 joined by 1-3 bridges of
    weight 10..2**31, and a dumbbell whose lambda lies below the
    degree / (2n) floor where a halving sweep from the least degree stops."""
    rng = np.random.default_rng(0x2CA7)
    for _ in range(40):
        a, b = (int(k) for k in rng.integers(6, 14, size=2))
        left = random_connected_graph(rng, a, extra=3.0, wmax=1 << 32)
        right = random_connected_graph(rng, b, extra=3.0, wmax=1 << 32)
        edges = left.edges + [(u + a, v + a, w) for u, v, w in right.edges]
        for _ in range(int(rng.integers(1, 4))):
            edges.append((int(rng.integers(a)), a + int(rng.integers(b)), int(rng.integers(10, (1 << 31) + 1))))
        yield WeightedGraph(a + b, edges)
    clique = list(itertools.combinations(range(6), 2))
    edges = [(u, v, 1 << 32) for u, v in clique] + [(u + 6, v + 6, 1 << 32) for u, v in clique]
    yield WeightedGraph(12, edges + [(0, 6, 10)])


def test_heavy_planted_cuts_exact_in_all_modes():
    below = 0
    for i, g in enumerate(heavy_planted_family()):
        lam = oracle_min_cut(g).value
        below += lam < g.min_weighted_degree()
        for mode in MODES:
            cfg = PipelineConfig(churn=0.5 if mode == "streaming" else 0.0)
            res, stats = min_cut_pipeline(g, mode, rng=i, config=cfg)
            assert res.value == lam == cut_of_partition(g, res.partition), f"graph {i} {mode}"
            assert stats.lambda_guesses <= 3
    lam, n = oracle_min_cut(g).value, g.n
    assert lam == 10 < g.min_weighted_degree() // (2 * n)
    assert below >= 40  # all but one draw, whose light leaf is the minimum cut


# ---- scalar references for the forests peel_forests grows ----


def kruskal_pack(host, k):
    """Greedy packing as one Python sort and Kruskal loop per tree."""
    loads = [0] * host.m
    trees = []
    for _ in range(k):
        order = sorted(range(host.m), key=lambda e: (loads[e] / host.edges[e][2] if host.edges[e][2] else math.inf, e))
        ds = DisjointSets(host.n)
        tree = sorted(e for e in order if ds.union(host.edges[e][0], host.edges[e][1]))
        for e in tree:
            loads[e] += 1
        trees.append(tree)
    return trees, loads


def kruskal_proxy(g, eps):
    """Direct proxy edges: per weight class, Kruskal forests over the class's edges in id order."""
    kept = []
    for c in sorted({w.bit_length() for _, _, w in g.edges} - {0}):
        remaining = [e for e, (_, _, w) in enumerate(g.edges) if w.bit_length() == c]
        for _ in range(forests_per_class(g.n, eps)):
            ds = DisjointSets(g.n)
            forest = [e for e in remaining if ds.union(g.edges[e][0], g.edges[e][1])]
            if not forest:
                break
            kept += forest
            remaining = [e for e in remaining if e not in forest]
    return [g.edges[e] for e in sorted(kept)]


# per-unit loads float64 division would misorder: 1 / (2**54 + 2) < 1 / 2**54 exactly
HEAVY_TRIANGLE = [(0, 1, 2**54), (0, 2, 2**54 + 2), (1, 2, 1)]


def forest_corpus():
    """Random graphs at several weight ranges, some with zero weights, and the heavy triangle."""
    rng = np.random.default_rng(909)
    for i in range(50):
        wmax = (1, 3, 10, 1 << 32, 1 << 56)[i % 5]
        g = random_connected_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(1, 4)), wmax)
        if i % 3 == 0:
            g = WeightedGraph(g.n, [(u, v, w if j % 3 else 0) for j, (u, v, w) in enumerate(g.edges)])
        yield g
    yield WeightedGraph(3, HEAVY_TRIANGLE)


def test_greedy_pack_equals_kruskal_reference():
    for g in forest_corpus():
        for k in (1, 3, 7):
            packing = greedy_pack(g, k)
            assert (packing.trees, packing.loads) == kruskal_pack(g, k)
    assert greedy_pack(WeightedGraph(3, HEAVY_TRIANGLE), 2).trees == [[0, 1], [1, 2]]


@pytest.mark.parametrize("forest_factor", [proxy.FOREST_FACTOR, 0.002])
def test_direct_proxy_equals_kruskal_reference(forest_factor, monkeypatch):
    # the small factor leaves one forest per class at eps 0.1 and up to three
    # at eps 0.05, so the forest cap, not exhaustion, ends the peeling
    monkeypatch.setattr(proxy, "FOREST_FACTOR", forest_factor)
    for g in forest_corpus():
        for eps in (0.1, 0.05):
            assert build_proxy_direct(g, eps).edges == kruskal_proxy(g, eps)


def test_direct_proxy_raises_once_past_budget(monkeypatch):
    # one weight class, so each forest is a spanning tree of 7 edges
    g = random_connected_graph(np.random.default_rng(4), 8, extra=3.0, wmax=1)
    monkeypatch.setattr(proxy, "PROXY_BUDGET_FACTOR", 0.001)
    assert proxy.proxy_edge_budget(g.n, 0.1) == 8
    with pytest.raises(ResourceBudgetError, match="proxy exceeded 8 edges"):
        build_proxy_direct(g, 0.1)
