"""Orchestrated search vs the exhaustive 2-respecting oracle (in-memory), and
Step 4 discovery shared by a group of trees vs each tree's own."""

import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from twocut import packing, tworespect
from twocut import proxy as proxy_module
from twocut.graph import (
    GraphError,
    WeightedGraph,
    build_rooted_tree,
    cut_of_partition,
    oracle_2respect_min,
)
from twocut.grid import PoPrefixGrid
from twocut.hld import PathStack, decompose
from twocut.interesting import ProxyFilter
from twocut.interval import BipartiteSolver
from twocut.packing import MODES, PipelineConfig, min_cut_pipeline
from twocut.rangeindex import WeightRangeIndex
from twocut.sequential import SequentialProvider
from twocut.tworespect import interest_checks, min_2respect
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
    from twocut.tworespect import SearchSink, Step4Batch, two_respect_plan

    sink = SearchSink()
    rounds = run_lockstep([two_respect_plan(t, provider, sink, Step4Batch())], provider)
    assert sink.value == 2
    assert rounds <= 5

    # no non-tree edges: nothing interesting, no step-5 rounds
    from twocut.graph import WeightedGraph, build_rooted_tree

    path = WeightedGraph(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2)])
    tp = build_rooted_tree(path, [(0, 1), (1, 2), (2, 3)], 0)
    sink2 = SearchSink()
    provider2 = SequentialProvider(path)
    rounds2 = run_lockstep(
        [two_respect_plan(tp, provider2, sink2, Step4Batch())], provider2
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


def bench_shaped_runs():
    """(graph, mode, churn) at the benchmark workloads' shapes: n = 128 at extra 8
    in memory, n = 48 at weights up to 2^32 under queries, n = 128 under a churned
    stream."""
    for i, (mode, n, extra, wmax, churn) in enumerate([("sequential", 128, 8, 10, 0.0),
                                                       ("cut-query", 48, 8, 1 << 32, 0.0),
                                                       ("streaming", 128, 8, 10, 0.5)]):
        yield random_connected_graph(np.random.default_rng(90 + i), n, extra=extra, wmax=wmax), mode, churn


def discovery_runs(case):
    if case == "bench-shaped":
        yield from bench_shaped_runs()
    elif case == "criterion-1":
        from test_acceptance import corpus_200

        for g in corpus_200()[:12]:
            for mode in MODES:
                yield g, mode, 0.5 if mode == "streaming" else 0.0
    elif case == "merge-sort":  # as in test_sequential_filter_index_by_size
        yield random_connected_graph(np.random.default_rng(64), 64, extra=1.5, wmax=10), "sequential", 0.0
    else:  # a thin stream proxy that differs from the graph, filtered on a grid of its own
        for i in range(3):
            yield random_connected_graph(np.random.default_rng(70 + i), 48, extra=8, wmax=10), "streaming", 0.5


@pytest.mark.parametrize("group_edges", [1, tworespect.GROUP_EDGES, 1 << 40])
@pytest.mark.parametrize("case", ["bench-shaped", "criterion-1", "merge-sort", "thin-proxy"])
def test_batched_rows_equal_per_tree_rows(case, group_edges, monkeypatch):
    # every tree takes from its group's one pass exactly the rows interest_checks
    # gives it alone, whatever the group bound: one tree, about 1,024 edges, all
    monkeypatch.setattr(tworespect, "GROUP_EDGES", group_edges)
    if case == "thin-proxy":
        monkeypatch.setattr(proxy_module, "FOREST_FACTOR", 0.002)
    rows, gather, providers = tworespect.Step4Batch.rows, PathStack.gather, packing._providers_for
    taken, groups, own = [], [], []

    def spy(self, t, provider):
        got = rows(self, t, provider)
        want = interest_checks(decompose(t), provider.proxy_filter(t))
        taken.append(all(map(np.array_equal, got, want)))
        return got

    def providers_spy(*args):
        provider, host = providers(*args)
        own.append(provider._proxy_is_own)
        return provider, host

    monkeypatch.setattr(tworespect.Step4Batch, "rows", spy)
    monkeypatch.setattr(PathStack, "gather", lambda self, rows: groups.append(len(rows)) or gather(self, rows))
    monkeypatch.setattr(packing, "_providers_for", providers_spy)
    runs = 0
    for g, mode, churn in discovery_runs(case):
        min_cut_pipeline(g, mode, rng=5, config=PipelineConfig(churn=churn))
        runs += 1
    assert taken and all(taken)
    assert sum(groups) == len(taken)
    if case in ("bench-shaped", "criterion-1"):  # each run's trees share one GridBlock
        assert all(own) and (max(groups) > 1) == (group_edges > 1)
        if group_edges == 1 << 40:
            assert len(groups) == runs
    else:  # filtered alone: a merge-sort tree's graph, or a proxy that differs
        assert max(groups) == 1 and all(own) == (case == "merge-sort")


def test_discovery_runs_once_per_group(monkeypatch):
    # a silent per-tree route would pass every value check; count the witness searches
    searches, registered = [], []
    witnesses, register = tworespect.tertile_witnesses, tworespect.Step4Batch.register
    monkeypatch.setattr(tworespect, "tertile_witnesses", lambda d, filt: searches.append(d) or witnesses(d, filt))
    monkeypatch.setattr(tworespect.Step4Batch, "register",
                        lambda self, t, d: registered.append(t) or register(self, t, d))
    g, mode, _ = next(bench_shaped_runs())
    min_cut_pipeline(g, mode, rng=5)
    room = tworespect.GROUP_EDGES // g.n
    assert room > 1 and len(registered) > room
    assert len(searches) == math.ceil(len(registered) / room)


def test_finished_pipeline_frees_its_provider(monkeypatch):
    # a reference cycle through the provider would keep every grid of a finished
    # solve alive until the next collection
    refs, providers = [], packing._providers_for

    def providers_spy(*args):
        provider, host = providers(*args)
        refs.append(weakref.ref(provider))
        return provider, host

    monkeypatch.setattr(packing, "_providers_for", providers_spy)
    g = next(bench_shaped_runs())[0]
    gc.disable()
    try:
        for mode in MODES:
            min_cut_pipeline(g, mode, rng=5)
            assert refs[-1]() is None, mode
    finally:
        gc.enable()
