"""Orchestrated search vs the exhaustive 2-respecting oracle (in-memory)."""

from collections import Counter

import numpy as np
import pytest

from twocut import tworespect
from twocut.graph import (
    GraphError,
    WeightedGraph,
    build_rooted_tree,
    cut_of_partition,
    oracle_2respect_min,
)
from twocut.grid import PoPrefixGrid
from twocut.interesting import ProxyFilter
from twocut.interval import BipartiteSolver
from twocut.packing import MODES, min_cut_pipeline
from twocut.rangeindex import WeightRangeIndex
from twocut.sequential import SequentialProvider
from twocut.tworespect import min_2respect
from twocut.util import floor_log2

from conftest import (
    candidate_rows,
    make_gstar,
    random_connected_graph,
    random_instance,
    random_spanning_tree_edges,
)


def test_gstar_value_and_partition():
    g, t = make_gstar()
    res = min_2respect(g, t, SequentialProvider(g), rng=1)
    assert res.value == 2
    assert cut_of_partition(g, res.partition) == 2


def test_star_and_path_trivia():
    star = WeightedGraph(5, [(0, i, 1) for i in range(1, 5)])
    t = build_rooted_tree(star, [(0, i) for i in range(1, 5)], 0)
    assert min_2respect(star, t, SequentialProvider(star), rng=0).value == 1

    path = WeightedGraph(5, [(i, i + 1, i + 2) for i in range(4)])
    t2 = build_rooted_tree(path, [(i, i + 1) for i in range(4)], 0)
    assert min_2respect(path, t2, SequentialProvider(path), rng=0).value == 2


def test_two_vertices():
    g = WeightedGraph(2, [(0, 1, 7)])
    t = build_rooted_tree(g, [(0, 1)], 0)
    res = min_2respect(g, t, SequentialProvider(g), rng=0)
    assert res.value == 7 and res.certificate.kind == "single"


def test_single_vertex_rejected():
    g = WeightedGraph(1, [])
    t = build_rooted_tree(g, [], 0)
    with pytest.raises(GraphError):
        min_2respect(g, t, SequentialProvider(g), rng=0)


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    misses = 0
    for i in range(150):
        g, t = random_instance(rng, 4, 14)
        provider = SequentialProvider(g)
        res = min_2respect(g, t, provider, rng=i)
        want = oracle_2respect_min(g, t)
        assert cut_of_partition(g, res.partition) == res.value
        assert res.value >= want.value
        if res.value != want.value:
            misses += 1
    assert misses == 0


def test_output_bounded_by_all_singles():
    rng = np.random.default_rng(7)
    for i in range(30):
        g, t = random_instance(rng, 4, 12)
        res = min_2respect(g, t, SequentialProvider(g), rng=i)
        for v in t.edge_children():
            assert res.value <= cut_of_partition(g, t.subtree(v))


def test_step5_work_bound():
    # total marked-list mass across drained pairs stays within the
    # 4 (n-1) (floor(log2 n) + 1) budget
    from twocut.graph import cross_weight
    from twocut.hld import decompose
    from twocut.interesting import pair_solver_inputs

    rng = np.random.default_rng(40)
    for i in range(40):
        g, t = random_instance(rng, 5, 14)
        provider = SequentialProvider(g)
        min_2respect(g, t, provider, rng=i)
        n = g.n
        assert provider.stats.probes >= 0
        # direct bound check on the Step 5 instances, rows verified by brute force
        d = decompose(t)
        deg = {v: cut_of_partition(g, t.subtree(v)) for v in t.edge_children()}
        cross, down = candidate_rows(g, d)
        okc = np.array([2 * cross_weight(g, t.subtree(e), t.subtree(f)) > deg[e]
                        for e, f in cross.tolist()], dtype=bool)
        okd = np.array([2 * cross_weight(g, t.subtree(f), set(range(n)) - set(t.subtree(e))) > deg[e]
                        for e, f in down.tolist()], dtype=bool)
        cross_pairs = pair_solver_inputs(d, cross, down[:0], okc)
        down_pairs = pair_solver_inputs(d, cross[:0], down, okd)
        total = sum(len(mp) + len(mq) for mp, mq in cross_pairs + down_pairs)
        # cross instances mark both sides, down instances only their rows
        appearances = Counter([e for mp, mq in cross_pairs for e in mp + mq] + [e for mp, _ in down_pairs for e in mp])
        cap = floor_log2(n) + 1
        assert total <= 4 * (n - 1) * cap
        for e, c in appearances.items():
            assert c <= 2 * cap


def test_lockstep_round_counts():
    from twocut.provider import run_lockstep
    from twocut.sequential import SequentialProvider

    def fixed_rounds(k):
        for _ in range(k):
            yield []

    class _NullProvider:
        def batch_eval(self, items):
            return []

    # two instances of different depths: the deeper one sets the schedule
    rounds = run_lockstep([fixed_rounds(3), fixed_rounds(5)], _NullProvider())
    assert rounds == 5

    # worked example: step 1 + one step-3 round + verification + two
    # step-5 rounds
    g, t = make_gstar()
    provider = SequentialProvider(g)
    from twocut.tworespect import SearchSink, two_respect_plan

    sink = SearchSink()
    rounds = run_lockstep([two_respect_plan(t, provider, sink)], provider)
    assert sink.value == 2
    assert rounds <= 5

    # no non-tree edges: nothing interesting, no step-5 rounds
    from twocut.graph import WeightedGraph, build_rooted_tree

    path = WeightedGraph(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2)])
    tp = build_rooted_tree(path, [(0, 1), (1, 2), (2, 3)], 0)
    sink2 = SearchSink()
    provider2 = SequentialProvider(path)
    rounds2 = run_lockstep(
        [two_respect_plan(tp, provider2, sink2)], provider2
    )
    assert sink2.value == 1
    assert rounds2 <= 4


@pytest.mark.parametrize("mode", MODES)
def test_at_most_two_pair_solvers_per_tree(mode, monkeypatch):
    # one solver holds every Step 3 instance of a tree, one every Step 5 instance;
    # every solver built is driven once, under the tree it searches
    trees, built = [], []
    drive, init = tworespect._drive_solvers, BipartiteSolver.__init__

    def spy(t, solver, sink):
        trees.append(t)
        return drive(t, solver, sink)

    def count(self, instances, ledger=None):
        init(self, instances, ledger)
        built.append(self)

    monkeypatch.setattr(tworespect, "_drive_solvers", spy)
    monkeypatch.setattr(BipartiteSolver, "__init__", count)
    for g in (make_gstar()[0], random_connected_graph(np.random.default_rng(41), 40, extra=3.0, wmax=1 << 32)):
        trees.clear()
        built.clear()
        _, stats = min_cut_pipeline(g, mode, rng=5)
        solvers = Counter(trees)
        assert len(built) == len(trees)
        assert solvers and max(solvers.values()) <= 2
        assert len(solvers) <= stats.trees_packed


@pytest.mark.parametrize("n, extra, index", [(24, 8.0, PoPrefixGrid), (64, 1.5, WeightRangeIndex)])
def test_sequential_filter_index_by_size(n, extra, index, monkeypatch):
    # the 1/3 filter reads the tree's own index: its grid on a dense g, its
    # merge-sort tree on a sparse g held alone; either way it spares only
    # exact checks that would fail
    rng = np.random.default_rng(n)
    g = random_connected_graph(rng, n, extra=extra, wmax=10)
    t = build_rooted_tree(g, random_spanning_tree_edges(g, rng), 0)
    seen = []
    proxy_filter = SequentialProvider.proxy_filter

    def spy(self, tree):
        filt = proxy_filter(self, tree)
        seen.append(filt.idx)
        return filt

    monkeypatch.setattr(SequentialProvider, "proxy_filter", spy)
    provider = SequentialProvider(g)
    res = min_2respect(g, t, provider, rng=5)
    assert len(seen) == 1 and type(seen[0]) is index
    assert seen[0] is provider._index[0]
    for name in ("cross_ok_many", "down_ok_many"):
        monkeypatch.setattr(ProxyFilter, name, lambda self, us, fs: np.ones(len(us), dtype=bool))
    keep_all = min_2respect(g, t, SequentialProvider(g), rng=5)
    assert (res.value, res.certificate, res.partition) == (keep_all.value, keep_all.certificate, keep_all.partition)
    assert res.value == oracle_2respect_min(g, t).value
