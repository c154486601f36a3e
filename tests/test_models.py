"""The three cost models: oracle accounting, stream passes, forest peeling, sketches, sampling."""

from collections import Counter

import numpy as np
import pytest

from twocut import cutquery, packing
from twocut.cutquery import (
    CutOracle,
    QueryProvider,
    build_proxy_via_oracle,
    oracle_cross_weight,
    query_provider,
    recover_crossing_edge,
)
from twocut.graph import (
    TreeEdgePair,
    WeightedGraph,
    WeightOverflowError,
    build_rooted_tree,
    cross_weight,
    cut_of_partition,
    oracle_min_cut,
    pair_cut_value,
)
from twocut import provider as provider_module
from twocut.grid import GridBlock, PoPrefixGrid
from twocut.packing import min_cut_pipeline
from twocut.provider import CostProvider, TreeContext
from twocut.rangeindex import WeightRangeIndex, subtree_sums, tree_degrees
from twocut.proxy import ResourceBudgetError, peel_forests
from twocut.requests import CrossNested, CrossSub, DegSubtree, PairCut
from twocut.reservoir import reservoir_sample
from twocut.sequential import SequentialProvider
from twocut.streaming import (
    SketchBank,
    StreamHarness,
    StreamProvider,
    _fingerprints,
    build_proxy_via_stream,
    stream_provider,
)
from twocut.tworespect import min_2respect
from twocut.util import ceil_log2

from conftest import (
    four_cycle,
    make_gstar,
    random_connected_graph,
    random_instance,
    random_spanning_tree_edges,
    weight_index,
)


# ---- cut-query oracle ----


def test_cut_query_counting_and_values():
    g, _ = make_gstar()
    oracle = CutOracle(g)
    assert oracle.cut({0}) == 2
    assert oracle.cut({1, 2}) == 7
    assert oracle.query_count == 2
    with pytest.raises(ValueError):
        oracle.cut(set())
    with pytest.raises(ValueError):
        oracle.cut(set(range(5)))


def test_cut_oracle_refuses_out_of_range_sides():
    g, _ = make_gstar()
    oracle = CutOracle(g)
    for side in ([-1], [g.n], [0, g.n + 3], np.zeros(g.n + 1, dtype=bool), np.ones(g.n - 1, dtype=bool)):
        with pytest.raises(ValueError):
            oracle.cut(side)
    with pytest.raises(ValueError):
        oracle_cross_weight(oracle, [0], [-1])
    assert oracle.query_count == 0
    assert oracle.cut(np.arange(g.n) == g.n - 1) == oracle.cut([g.n - 1]) == 5


@pytest.mark.parametrize("side", [[0.5], np.array([1.0]), [1.0], [np.float64(2)]])
def test_cut_oracle_refuses_non_integer_vertices(side):
    oracle = CutOracle(make_gstar()[0])
    with pytest.raises(ValueError, match="integers"):
        oracle.cut(side)
    assert oracle.query_count == 0


def test_cut_oracle_reads_python_bools_as_vertex_ids():
    g, _ = make_gstar()
    oracle = CutOracle(g)
    # [True, False, ...] is the side {0, 1}, not the mask selecting vertex 0
    assert oracle.cut([True, False, False, False, False]) == oracle.cut([0, 1]) == oracle.cut({1, 0})
    assert oracle.cut([True]) == oracle.cut([1]) == cut_of_partition(g, [1])
    assert oracle.cut([True, False, False, False, False]) != oracle.cut([0])


@pytest.mark.parametrize("eps", [1e-170, 0.5])
def test_provider_factories_refuse_eps(eps):
    # the library factories check eps as the pipeline does, before any query or pass
    g, _ = make_gstar()
    oracle, harness = CutOracle(g), StreamHarness(g, seed=1)
    with pytest.raises(ValueError, match="eps must lie"):
        query_provider(oracle, eps=eps)
    with pytest.raises(ValueError, match="eps must lie"):
        stream_provider(harness, eps=eps)
    assert oracle.query_count == harness.pass_count == 0


def test_oracle_cross_weight_examples():
    g, _ = make_gstar()
    oracle = CutOracle(g)
    assert oracle_cross_weight(oracle, {1, 2}, {3, 4}) == 6
    assert oracle.query_count == 3
    assert oracle_cross_weight(oracle, {0}, {1}) == 1
    two = CutOracle(WeightedGraph(3, [(0, 1, 4), (1, 2, 1)]))
    assert oracle_cross_weight(two, {0}, {2}) == 0
    with pytest.raises(ValueError):
        oracle_cross_weight(oracle, {0, 1}, {1, 2})


def test_recover_crossing_edge_any_mode():
    g, _ = make_gstar()
    oracle = CutOracle(g)
    got = recover_crossing_edge(oracle, {2})
    assert got is not None
    u, v, w = got
    assert {u, v} in ({1, 2}, {2, 4})
    assert (min(u, v), max(u, v), w) in g.edges
    assert oracle.query_count <= 6 * ceil_log2(g.n)


def test_recover_none_when_isolated():
    g = WeightedGraph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1), (0, 3, 5)])
    oracle = CutOracle(g)
    from twocut.cutquery import PeeledEdges

    peeled = PeeledEdges()
    peeled.extend(g.edges)
    assert recover_crossing_edge(oracle, {0, 1}, peeled=peeled) is None


def test_oracle_proxy_small_graphs_exact():
    rng = np.random.default_rng(77)
    for i in range(15):
        g, _ = random_instance(rng, 4, 12)
        oracle = CutOracle(g)
        h = build_proxy_via_oracle(oracle, eps=0.1)
        assert h.edges == g.edges


@pytest.mark.parametrize("model", ["cut-query", "streaming"])
def test_filter_index_is_the_tree_grid_when_the_proxy_nets_to_the_graph(model):
    # equality is of net edges: the stream's churn cancels and a zero-weight edge adds nothing
    g = WeightedGraph(5, [(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 4, 2), (0, 4, 1), (1, 3, 0)])
    t = build_rooted_tree(g, [(0, 1), (1, 2), (2, 3), (3, 4)], 0)
    same = WeightedGraph(5, [e for e in g.edges if e[2]])
    other = WeightedGraph(5, [(u, v, w + (u == 0 and v == 4)) for u, v, w in same.edges])
    for proxy in (same, other):
        if model == "cut-query":
            provider = QueryProvider(CutOracle(g), proxy)
        else:
            provider = StreamProvider(StreamHarness(g, seed=3, churn=1.0), proxy)
        ctx = TreeContext(t)
        provider.batch_eval([(ctx, DegSubtree(v)) for v in t.edge_children()])  # Step 1 builds the tree's grid
        idx = provider.proxy_index(ctx)
        assert (idx is provider._index[provider._slots[ctx.uid]]) == (proxy is same)
        assert tree_degrees(idx, t)[1:].tolist() == [cut_of_partition(proxy, t.subtree(v)) for v in range(1, 5)]


def test_query_provider_costs():
    g, t = make_gstar()
    oracle = CutOracle(g)
    provider = QueryProvider(oracle, proxy=None)
    ctx = TreeContext(t)
    base = oracle.query_count
    vals = provider.batch_eval([(ctx, PairCut(TreeEdgePair("orthogonal", 1, 3)))])
    assert vals == [2]
    assert oracle.query_count - base == 1
    base = oracle.query_count
    provider.batch_eval([(ctx, DegSubtree(3))])
    assert oracle.query_count - base == 1
    base = oracle.query_count
    provider.batch_eval([(ctx, CrossSub(1, 3))])
    assert oracle.query_count - base == 3
    base = oracle.query_count
    provider.batch_eval([(ctx, CrossNested(2, 1))])
    assert oracle.query_count - base == 3
    # sides that cover V need no third cut
    base = oracle.query_count
    assert provider.batch_eval([(ctx, CrossNested(2, 2))]) == [cut_of_partition(g, t.subtree(2))]
    assert oracle.query_count - base == 2
    # b pair-cut requests cost exactly b queries
    kids = [TreeEdgePair("single", v) for v in (1, 2, 3, 4)]
    base = oracle.query_count
    provider.batch_eval([(ctx, PairCut(p)) for p in kids])
    assert oracle.query_count - base == 4


# ---- provider value equivalence ----


def all_requests(g, t):
    from twocut.graph import classify_pair

    kids = t.edge_children()
    reqs = [DegSubtree(v) for v in kids]
    for i, x in enumerate(kids):
        for y in kids[i + 1 :]:
            p = classify_pair(t, x, y)
            reqs.append(PairCut(p))
            if p.kind == "orthogonal":
                reqs.append(CrossSub(p.a, p.b))
            else:
                reqs.append(CrossNested(p.b, p.a))
    return reqs


def test_three_providers_agree_exactly():
    rng = np.random.default_rng(31)
    for i in range(12):
        g, t = random_instance(rng, 4, 12)
        reqs = all_requests(g, t)
        seq = SequentialProvider(g)
        ctx1 = TreeContext(t)
        v1 = seq.batch_eval([(ctx1, r) for r in reqs])
        oracle = CutOracle(g)
        qp = QueryProvider(oracle, proxy=None)
        ctx2 = TreeContext(t)
        v2 = qp.batch_eval([(ctx2, r) for r in reqs])
        harness = StreamHarness(g, seed=i, churn=0.5)
        sp = StreamProvider(harness, proxy=None)
        ctx3 = TreeContext(t)
        v3 = sp.batch_eval([(ctx3, r) for r in reqs])
        assert v1 == v2 == v3
        assert sp.stats.passes == 1  # one batch, one pass


def brute_value(g, t, req):
    if isinstance(req, DegSubtree):
        return cut_of_partition(g, t.subtree(req.v))
    if isinstance(req, CrossSub):
        return cross_weight(g, t.subtree(req.u), t.subtree(req.v))
    if isinstance(req, CrossNested):
        return cross_weight(g, t.subtree(req.v), set(range(g.n)) - set(t.subtree(req.u)))
    return pair_cut_value(g, t, req.pair)


def model_queries(t, req):
    """The cut-query price of one request, from its vertex sets."""
    if isinstance(req, CrossSub):
        a, b = set(t.subtree(req.u)), set(t.subtree(req.v))
    elif isinstance(req, CrossNested):
        a, b = set(t.subtree(req.v)), set(range(t.n)) - set(t.subtree(req.u))
    else:
        return 1
    return 2 if len(a | b) == t.n else 3


PROVIDERS = {
    "sequential": SequentialProvider,
    "cut-query": lambda g: QueryProvider(CutOracle(g), proxy=None),
    "streaming": lambda g: StreamProvider(StreamHarness(g, seed=5, churn=0.5), proxy=None),
}


@pytest.mark.parametrize("mode", PROVIDERS)
def test_batch_interleaves_trees_in_input_order(mode):
    rng = np.random.default_rng(37)
    g, t0 = random_instance(rng, 9, 13, wmax=1 << 32)
    trees = [t0] + [build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(g.n)))
                    for _ in range(3)]
    ctxs = [TreeContext(t) for t in trees]
    pool = [(ctx, req) for ctx, t in zip(ctxs, trees) for req in all_requests(g, t)]
    picks = rng.integers(0, len(pool), size=3 * len(pool))  # shuffled, with repeats
    batch = [pool[int(i)] for i in picks]
    assert len({ctx.uid for ctx, _ in batch[:40]}) > 1
    provider = PROVIDERS[mode](g)
    fresh = {(ctx.uid, req): (ctx, req) for ctx, req in batch}
    for _ in range(2):  # the second round answers degrees from the cache
        queries, passes, words = (getattr(provider.stats, k) for k in ("queries", "passes", "tracked_words"))
        got = provider.batch_eval(batch)
        assert got == [brute_value(g, ctx.tree, req) for ctx, req in batch]
        assert all(type(x) is int for x in got)
        if mode == "cut-query":
            want = sum(model_queries(ctx.tree, req) for ctx, req in fresh.values())
            assert provider.stats.queries - queries == want
        if mode == "streaming":
            assert provider.stats.passes - passes == 1
            assert provider.stats.tracked_words - words == len(fresh)
        fresh = {k: v for k, v in fresh.items() if not isinstance(k[1], DegSubtree)}


@pytest.mark.parametrize("mode", PROVIDERS)
def test_batch_meters_mirrors_repeats_and_charged_degrees_once(mode):
    from twocut.graph import classify_pair

    rng = np.random.default_rng(41)
    g, t0 = random_instance(rng, 10, 10, wmax=1 << 32)
    trees = [t0, build_rooted_tree(g, random_spanning_tree_edges(g, rng), 3)]
    ctxs = [TreeContext(t) for t in trees]
    per_tree, distinct = [], []
    for ctx, t in zip(ctxs, trees):
        kids = t.edge_children()
        e, f = next((x, y) for x in kids for y in kids if x < y and classify_pair(t, x, y).kind == "orthogonal")
        v = kids[0]
        single = PairCut(TreeEdgePair("single", v))
        per_tree.append([(ctx, r) for r in (CrossSub(e, f), DegSubtree(v), CrossSub(f, e), single,
                                            CrossSub(e, f), DegSubtree(v), single, CrossSub(f, e))])
        distinct += [(ctx, CrossSub(e, f)), (ctx, DegSubtree(v)), (ctx, single)]
    batch = [item for pair in zip(*per_tree) for item in pair]  # the two trees interleaved
    provider = PROVIDERS[mode](g)

    def deltas(items):
        before = (provider.stats.queries, provider.stats.passes, provider.stats.tracked_words)
        got = provider.batch_eval(items)
        assert got == [brute_value(g, ctx.tree, req) for ctx, req in items]
        after = (provider.stats.queries, provider.stats.passes, provider.stats.tracked_words)
        return tuple(b - a for a, b in zip(before, after))

    # a mirror and a repeat are one request; a single PairCut is metered apart from its DegSubtree
    want = {
        "sequential": (0, 0, 0),
        "cut-query": (sum(model_queries(ctx.tree, req) for ctx, req in distinct), 0, 0),
        "streaming": (0, 1, len(distinct)),
    }
    assert deltas(batch) == want[mode]
    # DegSubtrees already charged cost nothing, not even a pass
    assert deltas([item for item in batch if isinstance(item[1], DegSubtree)]) == (0, 0, 0)
    # other requests on trees already seen are metered again, and no index is built
    held = [id(idx) for idx in provider._index]
    again = [(ctx, req) for ctx, req in distinct if not isinstance(req, DegSubtree)]
    want = {
        "sequential": (0, 0, 0),
        "cut-query": (sum(model_queries(ctx.tree, req) for ctx, req in again), 0, 0),
        "streaming": (0, 1, len(again)),
    }
    assert deltas([item for item in batch if not isinstance(item[1], DegSubtree)]) == want[mode]
    assert [id(idx) for idx in provider._index] == held


def test_query_provider_refuses_empty_or_full_sides():
    g, t = make_gstar()
    provider = QueryProvider(CutOracle(g), proxy=None)
    ctx = TreeContext(t)
    with pytest.raises(ValueError):
        provider.batch_eval([(ctx, DegSubtree(t.root))])
    with pytest.raises(ValueError):
        provider.batch_eval([(ctx, CrossNested(1, t.root))])


@pytest.mark.parametrize("n, extra, index", [(24, 8.0, PoPrefixGrid), (64, 1.5, WeightRangeIndex)])
def test_sequential_index_is_the_smaller_one(n, extra, index, monkeypatch):
    # a tree's index is its grid while (n+1)^2 <= 2 m log m words, else its merge-sort tree;
    # the filter reads that index, or a grid once the merge-sort trees held outweigh one
    rng = np.random.default_rng(n)
    g = random_connected_graph(rng, n, extra=extra, wmax=1 << 32)
    trees = [build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(n))) for _ in range(4)]
    ctxs = [TreeContext(t) for t in trees]
    grids = []
    init = PoPrefixGrid.__init__
    monkeypatch.setattr(PoPrefixGrid, "__init__", lambda self, *a: grids.append(self) or init(self, *a))
    provider = SequentialProvider(g)
    batch = [(ctx, req) for ctx in ctxs[:2] for req in all_requests(g, ctx.tree)]
    assert provider.batch_eval(batch) == [brute_value(g, ctx.tree, req) for ctx, req in batch]
    provider.batch_eval([(ctx, DegSubtree(ctx.tree.root)) for ctx in ctxs])
    assert [type(idx) for idx in provider._index] == [index] * 4
    filters = [provider.proxy_index(ctx) for ctx in ctxs]
    if index is PoPrefixGrid:
        assert all(f is idx for f, idx in zip(filters, provider._index))
        assert grids == provider._index  # one grid per tree, none for the filter
    else:
        assert (n + 1) ** 2 <= 4 * 2 * g.m * g.m.bit_length()
        assert grids == filters and all(type(f) is PoPrefixGrid for f in filters)


def per_tree_values(g, t, reqs):
    """Each request's value from one subtree_sums call over t's own merge-sort tree."""
    idx = weight_index(g, t)
    deg = tree_degrees(idx, t)
    terms, rows = [], []  # value = base + coef * crossing of row (u, v, sub)
    for req in reqs:
        if isinstance(req, DegSubtree):
            terms.append((int(deg[req.v]), 0))
            rows.append((req.v, req.v, False))
        elif isinstance(req, (CrossSub, CrossNested)):
            terms.append((0, 1))
            rows.append((req.u, req.v, isinstance(req, CrossSub)))
        else:
            p = req.pair
            b = p.a if p.b is None else p.b
            terms.append((int(deg[p.a]) + (0 if p.b is None else int(deg[b])), 0 if p.b is None else -2))
            rows.append((p.a, b, p.kind == "orthogonal"))
    u, v, sub = zip(*rows)
    return [base + coef * x for (base, coef), x in zip(terms, subtree_sums(idx, t, u, v, sub).tolist())]


# (mode, n, extra): block grids in every model, and merge-sort trees in memory
VALUE_CASES = [("sequential", 24, 8.0), ("sequential", 64, 1.5), ("cut-query", 24, 3.0), ("streaming", 24, 3.0)]


@pytest.mark.parametrize("mode, n, extra", VALUE_CASES)
def test_values_equal_per_tree_subtree_sums(mode, n, extra):
    # trees arrive over three batches, each bringing new trees beside known ones;
    # every request kind of every tree against subtree_sums over its own merge-sort tree
    rng = np.random.default_rng(n + 7)
    g = random_connected_graph(rng, n, extra=extra, wmax=1 << 32)
    ctxs = [TreeContext(build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(n))))
            for _ in range(5)]
    provider = PROVIDERS[mode](g)
    want = {}
    for ctx in ctxs:
        t = ctx.tree
        reqs = all_requests(g, t) + [PairCut(TreeEdgePair("single", v)) for v in t.edge_children()]
        want[ctx.uid] = list(zip(reqs, per_tree_values(g, t, reqs)))
    for held in (2, 4, 5):
        items = [(ctx, req) for ctx in ctxs[:held] for req, _ in want[ctx.uid]]
        rng.shuffle(items)
        value = {(ctx.uid, req): v for ctx in ctxs[:held] for req, v in want[ctx.uid]}
        assert provider.batch_eval(items) == [value[ctx.uid, req] for ctx, req in items]
    assert len(provider._blocks) == (3 if provider._dense else 0)
    assert provider._dense == (mode != "sequential" or n == 24)


@pytest.mark.parametrize("mode", ["sequential", "cut-query", "streaming"])
def test_grid_runs_read_crossings_per_block(mode, monkeypatch):
    # on block grids, _values makes one subtree_sums call per block it reads, never one per tree
    g = random_connected_graph(np.random.default_rng(5), 24, extra=8.0, wmax=10)
    calls, rounds = [], []
    sums = provider_module.subtree_sums

    def spy(idx, t, u, v, sub, at=None):
        calls.append((type(idx), at is not None))
        return sums(idx, t, u, v, sub, at)

    values = CostProvider._values

    def count(self, rows):
        rounds.append(len({int(b) for b in self._block[rows[:, 0]]}))
        return values(self, rows)

    monkeypatch.setattr(provider_module, "subtree_sums", spy)
    monkeypatch.setattr(CostProvider, "_values", count)
    res, stats = min_cut_pipeline(g, mode, rng=2)
    assert res.value == oracle_min_cut(g).value
    assert stats.trees_packed > 1 and len(rounds) > 2
    assert set(calls) == {(GridBlock, True)}
    assert len(calls) <= sum(rounds) + 1  # one call for the new trees' degrees


@pytest.mark.parametrize("mode", PROVIDERS)
def test_block_path_refuses_overlap_and_non_nesting(mode):
    g, t = make_gstar()  # 0 - 1 - 2 and 0 - 3 - 4
    provider = PROVIDERS[mode](g)
    ctx = TreeContext(t)
    provider.batch_eval([(ctx, DegSubtree(1))])
    assert provider._dense and len(provider._blocks) == 1
    with pytest.raises(ValueError, match="overlap"):
        provider.batch_eval([(ctx, CrossSub(1, 2))])
    with pytest.raises(ValueError, match="does not nest"):
        provider.batch_eval([(ctx, CrossNested(1, 4))])


def test_grid_block_out_of_address_space_is_a_memory_error():
    # numpy refuses such a shape with a ValueError; the CLI maps MemoryError to exit code 5
    with pytest.raises(MemoryError):
        GridBlock(1 << 31, [(np.zeros(0, dtype=np.int64),) * 3] * 2)


def test_sources_refuse_weight_sum_reaching_2_62():
    g = four_cycle(1 << 62)  # int64 cut sums would wrap to -2**63
    for make in (CutOracle, lambda g: StreamHarness(g, seed=1), SequentialProvider,
                 lambda g: query_provider(CutOracle(g)), lambda g: stream_provider(StreamHarness(g, seed=1))):
        with pytest.raises(WeightOverflowError):
            make(g)
    w = (1 << 60) - 1  # total just below the limit
    g = four_cycle(w)
    t = build_rooted_tree(g, [(0, 1), (1, 2), (2, 3)], 0)
    for provider in (SequentialProvider(g), query_provider(CutOracle(g)),
                     stream_provider(StreamHarness(g, seed=1, churn=0.5))):
        assert min_2respect(g, t, provider, rng=1).value == 2 * w


# ---- stream harness ----


def test_stream_net_multiset_matches_graph():
    g, _ = make_gstar()
    h = StreamHarness(g, seed=3, churn=0.7)
    updates = list(zip(h.uu.tolist(), h.vv.tolist(), h.wdelta.tolist()))
    assert len(h) == len(updates) > g.m
    net = {}
    for u, v, delta in updates:
        net[(u, v)] = net.get((u, v), 0) + delta
    weights = {(u, v): w for u, v, w in g.edges}
    assert net == weights
    # each update inserts or deletes the whole edge; prefix weights never go negative
    run = {}
    for u, v, delta in updates:
        assert abs(delta) == weights[(u, v)]
        run[(u, v)] = run.get((u, v), 0) + delta
        assert run[(u, v)] >= 0


@pytest.mark.parametrize("churn", [float("inf"), float("nan"), -0.5])
def test_harness_refuses_bad_churn(churn):
    g, _ = make_gstar()
    with pytest.raises(ValueError, match="churn must be finite and nonnegative"):
        StreamHarness(g, seed=1, churn=churn)


def test_counter_value_ignores_churn():
    g, t = make_gstar()
    vals = []
    for churn in (0.0, 0.5, 2.0):
        h = StreamHarness(g, seed=9, churn=churn)
        sp = StreamProvider(h, proxy=None)
        ctx = TreeContext(t)
        vals.append(sp.batch_eval([(ctx, DegSubtree(1))])[0])
    assert vals == [7, 7, 7]


def test_stream_proxy_small_graphs_exact():
    rng = np.random.default_rng(5)
    for i in range(10):
        g, _ = random_instance(rng, 4, 12)
        h = StreamHarness(g, seed=100 + i, churn=0.5)
        proxy = build_proxy_via_stream(h, eps=0.1)
        assert proxy.edges == g.edges
        assert h.pass_count == 1


@pytest.mark.parametrize("bridge", [1 << 60, 1 << 61])
def test_stream_pipeline_exact_with_huge_bridge(bridge):
    # a weighted index sum w * eid would wrap int64 here and lose the bridge
    g = WeightedGraph(4, [(0, 1, 3), (1, 2, 5), (0, 2, 4), (2, 3, bridge)])
    got, _ = min_cut_pipeline(g, "streaming", 0.1, 1)
    assert got.value == oracle_min_cut(g).value == 7


def test_stream_word_budget_refuses_bank_before_allocating(monkeypatch):
    banks = []
    init = SketchBank.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        banks.append(self)

    monkeypatch.setattr(SketchBank, "__init__", spy)
    monkeypatch.setattr(packing, "TRACKED_WORDS_FACTOR", 0.01)
    g, _ = make_gstar()
    with pytest.raises(ResourceBudgetError):
        min_cut_pipeline(g, "streaming", rng=1)
    assert len(banks) == 1
    assert "cells" not in vars(banks[0])  # no cell array was allocated


# ---- forest peeling ----


def leaving(residual, labels, c):
    """The first residual edge with exactly one end labelled c, or None."""
    return next(((u, v, w) for u, v, w in residual if (labels[u] == c) != (labels[v] == c)), None)


def subtracting(residual):
    def subtract(forest):
        for e in forest:
            residual.remove(e)
    return subtract


def test_peel_forests_skips_components_merged_this_sweep():
    # {1} and {3} merge into earlier components during sweep 0, so their
    # edges (both (1, 3, 2)) are not asked for lazily and are skipped eagerly
    edges = [(1, 3, 2), (0, 1, 1), (2, 3, 3), (3, 4, 4)]
    asked = []

    def lazy(sweep, labels, live):
        for c in range(max(labels) + 1):
            if live(c):
                asked.append((sweep, c))
                yield leaving(residual, labels, c)
            else:
                yield None

    def eager(sweep, labels, live):
        return [leaving(residual, labels, c) for c in range(max(labels) + 1)]

    for recover in (lazy, eager):
        residual = list(edges)
        kept = peel_forests(5, recover, subtracting(residual), 10, 1, 100, [])
        assert kept == [(0, 1, 1), (2, 3, 3), (3, 4, 4), (1, 3, 2)]
        assert residual == []
    # forest 1: sweep 0 and one sweep over {0, 1} | {2, 3, 4}; forest 2 finds nothing
    assert asked == [(0, 0), (0, 2), (0, 4), (1, 0)] + [(0, c) for c in range(5)]


def test_peel_forests_ends_a_forest_after_patience_idle_sweeps():
    residual = [(2, 0, 1), (1, 2, 2)]
    sweeps = []
    seen = []

    def recover(sweep, labels, live):
        # only sweep 2 of a forest finds anything, and only for label 0
        sweeps.append(sweep)
        seen.append(labels.copy())
        return [leaving(residual, labels, 0) if sweep == 2 else None] + [None] * max(labels)

    kept = peel_forests(3, recover, subtracting(residual), 10, 3, 100, [])
    assert kept == [(2, 0, 1)]
    # forest 1: idle, idle, union, then three idle sweeps; forest 2: three idle
    # sweeps (sweep 2 has no edge leaving {0} left), empty, so peeling stops
    assert sweeps == [0, 1, 2, 3, 4, 5, 0, 1, 2]
    # labels are int64 and follow each component's first vertex: the union
    # roots {0, 2} at label 2, yet that set is labelled before {1}
    assert all(labels.dtype == np.int64 for labels in seen)
    assert [labels.tolist() for labels in seen] == [[0, 1, 2]] * 3 + [[0, 1, 0]] * 3 + [[0, 1, 2]] * 3


def test_peel_forests_raises_after_keeping_the_forest_past_budget():
    residual = [(0, 1, 1), (1, 2, 2), (0, 2, 3)]
    subtracted = []

    def subtract(forest):
        subtracted.append(list(forest))
        subtracting(residual)(forest)

    def recover(sweep, labels, live):
        return [leaving(residual, labels, c) for c in range(max(labels) + 1)]

    kept = []
    with pytest.raises(ResourceBudgetError):
        peel_forests(3, recover, subtract, 10, 1, 2, kept)
    # the first forest meets the budget exactly; the second passes it
    assert subtracted == [[(0, 1, 1), (1, 2, 2)], [(0, 2, 3)]]
    assert kept == [(0, 1, 1), (1, 2, 2), (0, 2, 3)]


# (n, extra, wmax, churn, seed, zero every third weight) ->
#   (oracle query_count, recover_crossing_edge calls,
#    stream pass_count, tracked_words, SketchBank.recover calls, subtract_edges calls)
# The last two graphs are the query-heavy and stream-dense-churn bench instances.
PINNED_PROXIES = [
    ((4, 2.0, 10, 0.0, 1, False), (45, 18, 1, 2560, 32, 4)),
    ((9, 2.0, 1 << 32, 0.5, 2, False), (218, 47, 1, 9072, 41, 4)),
    ((17, 3.0, 10, 1.0, 3, False), (791, 137, 1, 34272, 82, 6)),
    ((25, 2.0, 1 << 32, 0.0, 4, False), (914, 191, 1, 56000, 80, 6)),
    ((30, 4.0, 10, 0.5, 5, True), (1475, 221, 1, 67200, 83, 6)),
    ((60, 3.0, 1 << 32, 0.5, 6, False), (3951, 552, 1, 368640, 171, 11)),
    ((48, 8.0, 1 << 32, 0.0, 3000, False), (8081, 1244, 1, 294912, 193, 15)),
    ((128, 24.0, 10, 0.5, 3000, False), (79147, 11737, 1, 552960, 305, 30)),
]


@pytest.mark.parametrize("spec, want", PINNED_PROXIES, ids=[str(spec[:5]) for spec, _ in PINNED_PROXIES])
def test_model_proxies_pinned(spec, want, monkeypatch):
    n, extra, wmax, churn, seed, zeros = spec
    g = random_connected_graph(np.random.default_rng(seed), n, extra, wmax)
    if zeros:
        g = WeightedGraph(n, [(u, v, w if k % 3 else 0) for k, (u, v, w) in enumerate(g.edges)])
    calls = Counter()

    def count(obj, name):
        fn = getattr(obj, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(obj, name, spy)

    for obj, name in ((cutquery, "recover_crossing_edge"), (SketchBank, "recover"), (SketchBank, "subtract_edges")):
        count(obj, name)
    oracle = CutOracle(g)
    oracle_proxy = build_proxy_via_oracle(oracle, eps=0.1)
    harness = StreamHarness(g, seed=seed, churn=churn)
    stream_proxy = build_proxy_via_stream(harness, eps=0.1)
    # peeling exhausts these graphs; no forest can hold a zero-weight edge
    assert oracle_proxy.edges == stream_proxy.edges == [e for e in g.edges if e[2]]
    got = (oracle.query_count, calls["recover_crossing_edge"], harness.pass_count, harness.tracked_words,
           calls["recover"], calls["subtract_edges"])
    assert got == want


# ---- sketches ----


def side_labels(n, side):
    """Component labels for one vertex set against the rest: 1 inside, 0 outside."""
    return np.array([int(v in side) for v in range(n)])


def test_l0_single_edge_roundtrip():
    bank = SketchBank(10, [2], seed=5, copies=1)
    bank.absorb(np.array([3]), np.array([7]), np.array([4]))
    assert bank.recover(2, 0, side_labels(10, {3})) == [(3, 7, 4), (3, 7, 4)]
    bank.absorb(np.array([3]), np.array([7]), np.array([-4]))
    assert bank.recover(2, 0, side_labels(10, {3})) == [None, None]
    # a net delete leaves -w on u's side, which no real edge does
    bank.absorb(np.array([3]), np.array([7]), np.array([-4]))
    assert bank.recover(2, 0, side_labels(10, {3})) == [None, None]


def test_sketch_bank_absorb_matches_per_update_loop():
    # the flat-index scatter against one cell at a time, on a churned stream
    rng = np.random.default_rng(23)
    g, _ = random_instance(rng, 9, 9, wmax=1 << 32)
    h = StreamHarness(g, seed=4, churn=1.0)
    classes = sorted({w.bit_length() - 1 for _, _, w in g.edges})
    bank = SketchBank(g.n, classes, seed=12, copies=3)
    bank.absorb(h.uu, h.vv, h.wdelta)
    want = {c: {name: np.zeros_like(arr) for name, arr in bank.cells[c].items()} for c in classes}
    primes, roots = (1048573, 1048583), (5, 7)
    for u, v, delta in zip(h.uu.tolist(), h.vv.tolist(), h.wdelta.tolist()):
        w, op = abs(delta), (1 if delta >= 0 else -1)
        eid = u * g.n + v
        fps = [op * (w % p) * pow(r, eid % (p - 1) + 1, p) for p, r in zip(primes, roots)]
        for copy in range(bank.copies):
            for rep in range(bank.reps):
                top = int(bank._tops(np.array([eid]), bank.salts[copy * bank.reps + rep])[0])
                for lvl in range(top + 1):
                    for x, side in ((u, 1), (v, -1)):
                        cell = want[w.bit_length() - 1]
                        cell["w"][x, copy, rep, lvl] += side * op * w
                        cell["x"][x, copy, rep, lvl] += side * op * eid
                        cell["f1"][x, copy, rep, lvl] += side * fps[0]
                        cell["f2"][x, copy, rep, lvl] += side * fps[1]
    for c in classes:
        for name in ("w", "x", "f1", "f2"):
            assert np.array_equal(bank.cells[c][name], want[c][name]), (c, name)


def reference_tops(bank, eids, salts):
    """SketchBank._tops one level at a time: trailing one-bits of the hash, at most levels - 1."""
    from twocut.streaming import _mix64

    with np.errstate(over="ignore"):
        h = _mix64(eids.astype(np.uint64) + salts)
    top = np.zeros(h.shape, dtype=np.int64)
    alive = np.ones(h.shape, dtype=bool)
    for _ in range(bank.levels - 1):
        alive &= (h & np.uint64(1)).astype(bool)
        top += alive
        h >>= np.uint64(1)
    return top


def test_sketch_hashing_matches_per_bit_references():
    rng = np.random.default_rng(29)
    for n in (3, 40, 4096, 1 << 20):
        bank = SketchBank(n, [0], seed=int(rng.integers(1 << 60)), copies=3)
        eids = rng.integers(0, n * n, size=20_000)
        got = bank._tops(eids[:, None], bank.salts)
        assert np.array_equal(got, reference_tops(bank, eids[:, None], bank.salts))
        if n <= 40:
            assert got.max() == bank.levels - 1  # small banks reach the cap
    eids = np.concatenate((rng.integers(0, 1 << 40, size=2_000), np.arange(2_100), [1048572, 1048582]))
    want = [[pow(r, e % (p - 1) + 1, p) for e in eids.tolist()] for p, r in ((1048573, 5), (1048583, 7))]
    assert _fingerprints(eids).tolist() == want


def test_sketch_bank_recovers_crafted_large_edge():
    n, w = 4096, (1 << 61) - 1
    bank = SketchBank(n, [60], seed=7, copies=1)
    bank.absorb(np.array([4094]), np.array([4095]), np.array([w]))
    edge = (4094, 4095, w)
    assert bank.recover(60, 0, side_labels(n, {4094})) == [edge, edge]
    assert bank.recover(60, 0, side_labels(n, set(range(n)) - {4095})) == [edge, edge]


def test_l0_linearity():
    # sketch(A) + sketch(B) - sketch(B) leaves cells (hence recovery)
    # identical to sketch(A)
    a_edges = [(0, 3, 4), (1, 5, 5)]
    b_edges = [(2, 6, 7), (0, 3, 6)]

    def absorb(bank, edges, sign=1):
        uu, vv, ww = (np.array(col) for col in zip(*edges))
        bank.absorb(uu, vv, sign * ww)

    a = SketchBank(8, [2], seed=9, copies=2)
    merged = SketchBank(8, [2], seed=9, copies=2)
    absorb(a, a_edges)
    absorb(merged, a_edges)
    absorb(merged, b_edges)
    absorb(merged, b_edges, -1)
    for name, cells in merged.cells[2].items():
        assert np.array_equal(cells, a.cells[2][name])
    labels = side_labels(8, {0, 1})
    for copy in range(2):
        assert merged.recover(2, copy, labels) == a.recover(2, copy, labels)
        assert merged.recover(2, copy, labels)[1] in a_edges


def test_l0_random_multiset_recovery_rate():
    # random weighted edge sets between {0..11} and {12..23}, all crossing
    rng = np.random.default_rng(17)
    pairs = [(u, v) for u in range(12) for v in range(12, 24)]
    left = side_labels(24, set(range(12)))
    ok = 0
    for s in range(1000):
        bank = SketchBank(24, [5], seed=int(rng.integers(1 << 60)), copies=1, reps=4)
        support = rng.choice(len(pairs), size=int(rng.integers(1, 60)), replace=False)
        edges = {pairs[i] + (int(rng.integers(32, 64)),) for i in support}
        uu, vv, ww = (np.array(col) for col in zip(*edges))
        bank.absorb(uu, vv, ww)
        if bank.recover(5, 0, left)[1] in edges:
            ok += 1
    assert ok / 1000 >= 0.99


def test_l0_recovery_rate_and_uniformity():
    # a 20-edge star recovered from its center
    rng = np.random.default_rng(11)
    trials = 10_000
    support = list(range(1, 21))
    counts = {i: 0 for i in support}
    fails = 0
    center = side_labels(21, {0})
    for s in range(trials):
        bank = SketchBank(21, [1], seed=int(rng.integers(1 << 60)), copies=1, reps=4)
        bank.absorb(np.zeros(20, dtype=np.int64), np.array(support), np.full(20, 3))
        got = bank.recover(1, 0, center)[1]
        if got is None:
            fails += 1
        else:
            counts[got[1]] += 1
    assert fails / trials <= 0.01
    ok = trials - fails
    for idx in support:
        assert abs(counts[idx] / ok - 1 / len(support)) <= 0.05


# ---- reservoir ----


def test_reservoir_keeps_prefix():
    rng = np.random.default_rng(0)
    assert reservoir_sample(range(3), 3, rng) == [0, 1, 2]


def test_reservoir_marginals():
    rng = np.random.default_rng(42)
    trials = 100_000
    hits = np.zeros(2)
    for _ in range(trials):
        kept = reservoir_sample(range(2), 1, rng)
        hits[kept[0]] += 1
    assert abs(hits[0] / trials - 0.5) <= 0.01

    hits30 = np.zeros(30)
    for _ in range(trials // 10):
        for item in reservoir_sample(range(30), 3, rng):
            hits30[item] += 1
    freq = hits30 / (trials // 10)
    assert np.all(np.abs(freq - 0.1) <= 0.02)


def test_bit_lengths_exact_up_to_int64_max():
    from twocut.util import bit_lengths

    vals = [0, 1, 2, 3, 4, 7, 8, (1 << 32) - 1, 1 << 32, (1 << 53) + 1, (1 << 62) - 1, 1 << 62, (1 << 63) - 1]
    vals += [(1 << b) + d for b in range(63) for d in (-1, 0, 1) if 0 <= (1 << b) + d < 1 << 63]
    assert bit_lengths(np.asarray(vals, dtype=np.int64)).tolist() == [v.bit_length() for v in vals]
