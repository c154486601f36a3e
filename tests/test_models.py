"""The three cost models: oracle accounting, stream passes, forest peeling, sketches, sampling."""

import functools
from collections import Counter

import numpy as np
import pytest

from twocut import cutquery, packing
from twocut.cutquery import (
    CutCache,
    CutOracle,
    QueryProvider,
    bisection_outcomes,
    build_proxy_via_oracle,
    query_provider,
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
from twocut import proxy as proxy_module
from twocut.grid import GridBlock, PoPrefixGrid
from twocut.packing import PipelineConfig, min_cut_pipeline
from twocut.provider import CostProvider
from twocut.rangeindex import WeightRangeIndex, subtree_sums, tree_degrees
from twocut.proxy import ResourceBudgetError, forests_per_class, peel_forests, proxy_edge_budget
from twocut.requests import (CROSS_NESTED, CROSS_SUB, DEG, NESTED_CUT, ORTHOGONAL_CUT, SINGLE_CUT, CrossNested,
                             CrossSub, DegSubtree, PairCut, RequestTable)
from twocut.reservoir import reservoir_sample
from twocut.sequential import SequentialProvider
from twocut import streaming
from twocut.streaming import (
    SketchBank,
    StreamHarness,
    StreamProvider,
    _fingerprints,
    build_proxy_via_stream,
    stream_provider,
)
from twocut.tworespect import min_2respect
from twocut.util import DisjointSets, ceil_log2

from conftest import (
    four_cycle,
    make_gstar,
    random_connected_graph,
    random_instance,
    random_spanning_tree_edges,
    weight_index,
)
from cutquery_reference import PeeledEdges, oracle_cross_weight, recover_crossing_edge


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


def residual_cases(seed, count):
    """Random graphs on 2..40 vertices, weights up to 10 with every third
    zeroed, or up to 2^32."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 41))
        g = random_connected_graph(rng, n, extra=float(rng.choice([0.5, 2.0, 6.0])), wmax=(10, 1 << 32)[i % 2])
        if i % 2 == 0:
            g = WeightedGraph(n, [(u, v, w if k % 3 else 0) for k, (u, v, w) in enumerate(g.edges)])
        yield rng, g


def side_key(n, side):
    """A side as the frozenset of its vertices, complemented when it holds
    vertex 0: a side and its complement, which have one cut, share one key."""
    side = frozenset(side)
    return frozenset(range(n)) - side if 0 in side else side


class DistinctSides:
    """A memo front around a CutOracle that asks it each side once, by
    side_key: the exact count of distinct sides that CutCache counts by
    hashing. recover_crossing_edge and oracle_cross_weight run through it
    unchanged; `sides` holds the keys of the sides asked."""

    def __init__(self, oracle):
        self.oracle, self.n, self._mask = oracle, oracle.n, oracle._mask
        self.sides = {}

    @property
    def query_count(self):
        return self.oracle.query_count

    def cut(self, side):
        mask = self._mask(side)
        key = side_key(self.n, np.flatnonzero(mask).tolist())
        if key not in self.sides:
            self.sides[key] = self.oracle.cut(mask)
        return self.sides[key]


def cache_keys(cache, sides):
    """CutCache keys of vertex sets, each summed directly over its vertices."""
    return set(cache.key(np.array([cache.words[list(s)].sum() for s in sides], dtype=np.uint64)).tolist())


def test_bisection_outcomes_equal_recover_crossing_edge():
    # every component's outcome and the sides it asks, against one bisection on the residual graph
    for rng, g in residual_cases(11, 60):
        peeled = rng.random(g.m) < rng.choice([0.0, 0.3, 0.8])
        k = int(rng.integers(2, g.n + 1))
        labels = np.unique(rng.integers(k, size=g.n), return_inverse=True)[1].reshape(-1)
        if labels.max() == 0:
            labels[int(rng.integers(g.n))] = 1
        oracle = CutOracle(g)
        cache = CutCache(oracle)
        near, far, weight, sums, askers = bisection_outcomes(oracle, cache.words, ~peeled, labels)
        assert oracle.query_count == 0 and sums.dtype == np.uint64
        residual = PeeledEdges()
        residual.extend([e for e, p in zip(g.edges, peeled) if p])
        for c in range(int(labels.max()) + 1):
            front = DistinctSides(oracle)
            got = recover_crossing_edge(front, labels == c, peeled=residual)
            assert got == ((int(near[c]), int(far[c]), int(weight[c])) if weight[c] else None)
            assert set(cache.key(sums[askers == c]).tolist()) == cache_keys(cache, front.sides)


def lazy_bisection_proxy(oracle, eps):
    """The oracle sparsifier by one recover_crossing_edge call per component
    still unmerged in its sweep, peeled forests subtracted locally: the
    reference build_proxy_via_oracle must equal in edges, and through
    DistinctSides in queries."""
    n, peeled = oracle.n, PeeledEdges()

    def recover(sweep, labels, live):
        for c in range(int(labels.max()) + 1):
            yield recover_crossing_edge(oracle, labels == c, peeled=peeled) if live(c) else None

    kept = peel_forests(n, recover, peeled.extend, 40 * forests_per_class(n, eps), 1, proxy_edge_budget(n, eps), [])
    return WeightedGraph(n, kept, require_connected=False)


def test_oracle_proxy_equals_lazy_bisection_reference():
    for _, g in residual_cases(12, 44):
        fast, slow = CutOracle(g), DistinctSides(CutOracle(g))
        assert build_proxy_via_oracle(fast, eps=0.1).edges == lazy_bisection_proxy(slow, eps=0.1).edges
        assert fast.query_count == slow.query_count


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
        provider.batch_eval([(t, DegSubtree(v)) for v in t.edge_children()])  # Step 1 builds the tree's grid
        idx = provider.proxy_filter(t).idx
        assert (idx is provider._index[provider._slots[t]]) == (proxy is same)
        assert tree_degrees(idx, t)[1:].tolist() == [cut_of_partition(proxy, t.subtree(v)) for v in range(1, 5)]


def test_query_provider_costs():
    g, t = make_gstar()
    oracle = CutOracle(g)
    provider = QueryProvider(oracle, proxy=None)
    # the tree is 0 - 1 - 2 and 0 - 3 - 4 rooted at 0; a side asked before, or
    # its complement, costs nothing
    base = oracle.query_count
    vals = provider.batch_eval([(t, PairCut(TreeEdgePair("orthogonal", 1, 3)))])
    assert vals == [2]
    assert oracle.query_count - base == 1  # {1, 2, 3, 4}
    base = oracle.query_count
    provider.batch_eval([(t, DegSubtree(3))])
    assert oracle.query_count - base == 1  # {3, 4}
    base = oracle.query_count
    provider.batch_eval([(t, CrossSub(1, 3))])
    assert oracle.query_count - base == 1  # {1, 2}; {3, 4} and their union are known
    base = oracle.query_count
    provider.batch_eval([(t, CrossNested(2, 1))])
    assert oracle.query_count - base == 2  # {2} and {1}; V - {1, 2} is known
    # sides that cover V need no third cut, and these two are known
    base = oracle.query_count
    assert provider.batch_eval([(t, CrossNested(2, 2))]) == [cut_of_partition(g, t.subtree(2))]
    assert oracle.query_count - base == 0
    # of the four single-edge cuts only {4} is new
    kids = [TreeEdgePair("single", v) for v in (1, 2, 3, 4)]
    base = oracle.query_count
    provider.batch_eval([(t, PairCut(p)) for p in kids])
    assert oracle.query_count - base == 1


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
        v1 = seq.batch_eval([(t, r) for r in reqs])
        oracle = CutOracle(g)
        qp = QueryProvider(oracle, proxy=None)
        v2 = qp.batch_eval([(t, r) for r in reqs])
        harness = StreamHarness(g, seed=i, churn=0.5)
        sp = StreamProvider(harness, proxy=None)
        v3 = sp.batch_eval([(t, r) for r in reqs])
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


def model_sides(t, req):
    """The side_keys of the sides that the cut queries behind one request
    ask, from its vertex sets: a crossing of A and B asks A, B and A + B
    (not when A + B is V), a cut its one side."""
    def sub(v):
        return set(t.subtree(v))

    if isinstance(req, CrossSub):
        a, b = sub(req.u), sub(req.v)
        sides = [a, b, a | b]
    elif isinstance(req, CrossNested):
        a, b = sub(req.v), set(range(t.n)) - sub(req.u)
        sides = [a, b, a | b]
    elif isinstance(req, DegSubtree):
        sides = [sub(req.v)]
    else:
        p = req.pair
        sides = [sub(p.a) if p.kind == "single" else sub(p.a) | sub(p.b) if p.kind == "orthogonal"
                 else sub(p.a) - sub(p.b)]
    return {side_key(t.n, s) for s in sides if len(s) < t.n}


def new_sides(items, asked):
    """How many distinct sides the requests of items ask beyond `asked`, which gains them."""
    sides = set().union(*(model_sides(t, req) for t, req in items)) - asked
    asked |= sides
    return len(sides)


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
    pool = [(t, req) for t in trees for req in all_requests(g, t)]
    picks = rng.integers(0, len(pool), size=3 * len(pool))  # shuffled, with repeats
    batch = [pool[int(i)] for i in picks]
    assert len({t for t, _ in batch[:40]}) > 1
    provider = PROVIDERS[mode](g)
    fresh = {(t, req): (t, req) for t, req in batch}
    asked = set()
    for _ in range(2):  # the second round answers degrees from the cache, and asks no side again
        queries, passes, words = (getattr(provider.stats, k) for k in ("queries", "passes", "tracked_words"))
        got = provider.batch_eval(batch)
        assert got == [brute_value(g, t, req) for t, req in batch]
        assert all(type(x) is int for x in got)
        if mode == "cut-query":
            assert provider.stats.queries - queries == new_sides(batch, asked)
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
    per_tree, distinct = [], []
    for t in trees:
        kids = t.edge_children()
        e, f = next((x, y) for x in kids for y in kids if x < y and classify_pair(t, x, y).kind == "orthogonal")
        v = kids[0]
        single = PairCut(TreeEdgePair("single", v))
        per_tree.append([(t, r) for r in (CrossSub(e, f), DegSubtree(v), CrossSub(f, e), single,
                                          CrossSub(e, f), DegSubtree(v), single, CrossSub(f, e))])
        distinct += [(t, CrossSub(e, f)), (t, DegSubtree(v)), (t, single)]
    batch = [item for pair in zip(*per_tree) for item in pair]  # the two trees interleaved
    provider = PROVIDERS[mode](g)

    def deltas(items):
        before = (provider.stats.queries, provider.stats.passes, provider.stats.tracked_words)
        got = provider.batch_eval(items)
        assert got == [brute_value(g, t, req) for t, req in items]
        after = (provider.stats.queries, provider.stats.passes, provider.stats.tracked_words)
        return tuple(b - a for a, b in zip(before, after))

    # a mirror and a repeat are one request; a single PairCut is metered apart
    # from its DegSubtree, though the cut-query model asks their one side once
    want = {
        "sequential": (0, 0, 0),
        "cut-query": (new_sides(distinct, set()), 0, 0),
        "streaming": (0, 1, len(distinct)),
    }
    assert deltas(batch) == want[mode]
    # DegSubtrees already charged cost nothing, not even a pass
    assert deltas([item for item in batch if isinstance(item[1], DegSubtree)]) == (0, 0, 0)
    # other requests on trees already seen are metered again, but ask no new
    # side, and no index is built
    held = [id(idx) for idx in provider._index]
    again = [(t, req) for t, req in distinct if not isinstance(req, DegSubtree)]
    want = {
        "sequential": (0, 0, 0),
        "cut-query": (0, 0, 0),
        "streaming": (0, 1, len(again)),
    }
    assert deltas([item for item in batch if not isinstance(item[1], DegSubtree)]) == want[mode]
    assert [id(idx) for idx in provider._index] == held


def tree_requests(t):
    """All four request kinds on t as one table per kind, built from arrays as
    the search builds them, each with its request objects built one by one."""
    from twocut.graph import classify_pair, classify_pairs

    kids = np.array(t.edge_children())
    x, y = (a.ravel() for a in np.meshgrid(kids, kids))
    x, y = x[x != y], y[x != y]
    orth, a, b = classify_pairs(t, x, y)
    pairs = [classify_pair(t, p, q) for p, q in zip(x.tolist(), y.tolist())]
    yield RequestTable.of(t, DEG, kids, kids), [DegSubtree(v) for v in kids.tolist()]
    yield RequestTable.of(t, SINGLE_CUT, kids, kids), [PairCut(TreeEdgePair("single", v)) for v in kids.tolist()]
    yield RequestTable.of(t, np.where(orth, ORTHOGONAL_CUT, NESTED_CUT), a, b), [PairCut(p) for p in pairs]
    # CrossSub both ways round; CrossNested(b, a) is the row (a, b)
    yield (RequestTable.of(t, CROSS_SUB, x[orth], y[orth]),
           [CrossSub(p, q) for p, q in zip(x[orth].tolist(), y[orth].tolist())])
    yield (RequestTable.of(t, CROSS_NESTED, a[~orth], b[~orth]),
           [CrossNested(q, p) for p, q in zip(a[~orth].tolist(), b[~orth].tolist())])


@pytest.mark.parametrize("mode", PROVIDERS)
def test_request_table_reads_and_evaluates_as_its_items(mode):
    # a table of mixed requests on several trees, shuffled, reads as its
    # (tree, request) items and evaluates and meters exactly as their list
    rng = np.random.default_rng(43)
    g, t0 = random_instance(rng, 9, 13, wmax=1 << 32)
    trees = [t0] + [build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(g.n)))
                    for _ in range(2)]
    parts = [part for t in trees for part in tree_requests(t)]
    table = RequestTable.join([tab for tab, _ in parts])
    items = [(tab.trees[0], req) for tab, reqs in parts for req in reqs]
    order = rng.permutation(len(items))
    table, items = RequestTable(table.trees, table.rows[order]), [items[i] for i in order]
    assert list(table) == items and table[-1] == items[-1]
    assert {type(req) for _, req in table} == {DegSubtree, CrossSub, CrossNested, PairCut}
    runs = []
    for batch in (table, list(table)):
        provider = PROVIDERS[mode](g)
        for _ in range(2):  # the second batch reads its degrees as charged
            before = (provider.stats.queries, provider.stats.passes, provider.stats.tracked_words)
            got = provider.batch_eval(batch)
            after = (provider.stats.queries, provider.stats.passes, provider.stats.tracked_words)
            runs.append((got, tuple(b - a for a, b in zip(before, after))))
    assert runs[:2] == runs[2:]
    assert runs[0][0] == [brute_value(g, t, req) for t, req in items]
    assert PROVIDERS[mode](g).batch_eval(RequestTable([], np.zeros((0, 4), dtype=np.int64))) == []


@pytest.mark.parametrize("mode", PROVIDERS)
def test_tree_on_another_vertex_count_is_refused(mode):
    g, t = make_gstar()  # 5 vertices
    small = four_cycle(1)
    provider = PROVIDERS[mode](g)
    with pytest.raises(ValueError, match="a tree on 4 vertices, the provider's graph has 5"):
        provider.batch_eval([(build_rooted_tree(small, [(0, 1), (1, 2), (2, 3)], 0), DegSubtree(1))])
    assert provider._slots == {}
    assert provider.batch_eval([(t, DegSubtree(1))]) == [7]


MODELS = {
    "sequential": SequentialProvider,
    "cut-query": lambda g: query_provider(CutOracle(g)),
    "streaming": lambda g: stream_provider(StreamHarness(g, seed=5, churn=0.5)),
}


@pytest.mark.parametrize("mode", MODELS)
def test_one_tree_object_keeps_one_slot_across_batches_and_searches(mode):
    # the tree is its own key: a second batch, and a second search on the same
    # tree object, reuse its slot and index, and its Step 1 degrees are charged
    # once; the cut-query model asked every side of the second search before
    rng = np.random.default_rng(43)
    g = random_connected_graph(rng, 16, extra=3.0, wmax=1 << 20)
    t = build_rooted_tree(g, random_spanning_tree_edges(g, rng), 0)
    kids = t.edge_children()
    provider = MODELS[mode](g)

    def ledgers():
        return np.array([provider.stats.queries, provider.stats.passes, provider.stats.tracked_words])

    start = ledgers()
    first = min_2respect(g, t, provider, rng=8)
    held = list(provider._index)
    cost = ledgers() - start
    second = min_2respect(g, t, provider, rng=8)
    assert (second.value, second.certificate, second.partition) == (first.value, first.certificate, first.partition)
    # the stream meters the repeat again but for Step 1's degrees, whose first round
    # it still passes for Step 4's checks; in memory it is free
    again = (cost - [0, 0, len(kids)]).tolist() if mode == "streaming" else [0, 0, 0]
    assert (ledgers() - start - cost).tolist() == again
    before = ledgers()
    assert provider.batch_eval([(t, DegSubtree(v)) for v in kids]) == [cut_of_partition(g, t.subtree(v)) for v in kids]
    assert (ledgers() - before).tolist() == [0, 0, 0]
    assert provider._slots == {t: 0} and len(provider._index) == 1 and provider._index[0] is held[0]


def test_query_provider_refuses_empty_or_full_sides():
    g, t = make_gstar()
    provider = QueryProvider(CutOracle(g), proxy=None)
    with pytest.raises(ValueError):
        provider.batch_eval([(t, DegSubtree(t.root))])
    with pytest.raises(ValueError):
        provider.batch_eval([(t, CrossNested(1, t.root))])


def test_cut_query_ledger_counts_distinct_sides(monkeypatch):
    # each querier, the sparsifier build and the search's provider, is charged
    # exactly the distinct sides it asks, counted by frozensets here and by
    # hashed keys in CutCache: on 2-respecting searches of trees rooted away
    # from vertex 0 and on whole pipelines
    built, asked = [], []
    build = packing.build_proxy_graph
    batch_eval = QueryProvider.batch_eval

    def spy_build(source, eps):
        proxy = build(source, eps)
        built.append((source.query_count, eps))
        return proxy

    monkeypatch.setattr(packing, "build_proxy_graph", spy_build)
    monkeypatch.setattr(QueryProvider, "batch_eval", lambda self, items: asked.extend(items) or batch_eval(self, items))
    rng = np.random.default_rng(59)
    for i in range(40):
        n = int(rng.integers(3, 13))
        g = random_connected_graph(rng, n, extra=float(rng.choice([1.0, 3.0])), wmax=(10, 1 << 32)[i % 2])
        if i % 3 == 2:
            g = WeightedGraph(n, [(u, v, w if k % 3 else 0) for k, (u, v, w) in enumerate(g.edges)])
        t = build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(1, n)))
        provider = QueryProvider(CutOracle(g), g)
        asked.clear()
        min_2respect(g, t, provider, rng=i)
        search = provider.stats.queries
        assert search == new_sides(asked, set()), f"graph {i}"
        built.clear()
        asked.clear()
        _, stats = min_cut_pipeline(g, "cut-query", rng=i)
        (proxy_queries, eps), = built
        reference = DistinctSides(CutOracle(g))
        lazy_bisection_proxy(reference, eps)
        assert proxy_queries == reference.query_count, f"graph {i}"
        assert stats.queries - proxy_queries == new_sides(asked, set()), f"graph {i}"
        if n <= 6:  # n vertices have 2^(n-1) - 1 sides, a side and its complement being one
            assert max(search, proxy_queries, stats.queries - proxy_queries) <= (1 << (n - 1)) - 1, f"graph {i}"


def test_cut_cache_keys_are_uint64_word_sums():
    # prefix-sum keys equal the direct sums over their sides' vertices at n = 2048,
    # where every sum wraps; a uint64 prefix sum concatenated after a Python 0
    # would silently turn float64
    rng = np.random.default_rng(2048)
    g = random_connected_graph(rng, 2048, extra=1.0, wmax=1 << 32)
    oracle = CutOracle(g)
    cache = CutCache(oracle)
    assert cache.words.dtype == np.uint64 and len(set(cache.words.tolist())) == g.n
    labels = np.unique(rng.integers(40, size=g.n), return_inverse=True)[1].reshape(-1)
    near, far, weight, sums, askers = bisection_outcomes(oracle, cache.words, np.ones(g.m, dtype=bool), labels)
    assert sums.dtype == np.uint64 and cache.key(sums).dtype == np.uint64
    for c in range(4):
        front = DistinctSides(oracle)
        recover_crossing_edge(front, labels == c)
        assert set(cache.key(sums[askers == c]).tolist()) == cache_keys(cache, front.sides)
    t = build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(1, g.n)))
    provider = QueryProvider(oracle, g)
    provider.batch_eval([(t, DegSubtree(v)) for v in t.edge_children()[:64]])
    assert provider._sub.dtype == np.uint64 and np.array_equal(provider.cache.words, cache.words)
    assert provider._sub[0].tolist() == [int(cache.words[t.subtree(v)].sum()) for v in range(g.n)]
    # a side, its complement and a repeat are one query; the keys stay sorted
    small = CutCache(CutOracle(four_cycle(1)))
    w = small.words
    small.charge(np.array([w[[0, 1]].sum(), w[[2, 3]].sum(), w[[0, 1]].sum()]))
    assert small.oracle.query_count == 1
    small.charge(np.array([w[3], w[[2, 3]].sum(), w[[0, 1, 2]].sum()]))
    assert small.oracle.query_count == 2 and small.seen.dtype == np.uint64
    assert small.seen.tolist() == sorted(small.key(np.array([w[[0, 1]].sum(), w[3]])).tolist())


@pytest.mark.parametrize("n, extra, index", [(24, 8.0, PoPrefixGrid), (64, 1.5, WeightRangeIndex)])
def test_sequential_index_is_the_smaller_one(n, extra, index, monkeypatch):
    # a tree's index is its grid while (n+1)^2 <= 2 m log m words, else its merge-sort tree;
    # the filter reads that index, or a grid once the merge-sort trees held outweigh one
    rng = np.random.default_rng(n)
    g = random_connected_graph(rng, n, extra=extra, wmax=1 << 32)
    trees = [build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(n))) for _ in range(4)]
    grids = []
    init = PoPrefixGrid.__init__
    monkeypatch.setattr(PoPrefixGrid, "__init__", lambda self, *a: grids.append(self) or init(self, *a))
    provider = SequentialProvider(g)
    batch = [(t, req) for t in trees[:2] for req in all_requests(g, t)]
    assert provider.batch_eval(batch) == [brute_value(g, t, req) for t, req in batch]
    provider.batch_eval([(t, DegSubtree(t.root)) for t in trees])
    assert [type(idx) for idx in provider._index] == [index] * 4
    filters = [provider.proxy_filter(t).idx for t in trees]
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


# (mode, n, extra, rows per _crossings call or None): block grids in every
# model, and merge-sort trees in memory; a small cap splits runs inside a tree
VALUE_CASES = [("sequential", 24, 8.0, None), ("sequential", 64, 1.5, None), ("cut-query", 24, 3.0, None),
               ("streaming", 24, 3.0, None), ("sequential", 64, 1.5, 5), ("cut-query", 24, 3.0, 5)]


@pytest.mark.parametrize("mode, n, extra, cap", VALUE_CASES,
                         ids=[f"{m}-{n}-{x}" + (f"-cap{c}" if c else "") for m, n, x, c in VALUE_CASES])
def test_values_equal_per_tree_subtree_sums(mode, n, extra, cap, monkeypatch):
    # trees arrive over three batches, each bringing new trees beside known ones;
    # every request kind of every tree against subtree_sums over its own merge-sort tree
    if cap:
        monkeypatch.setattr(provider_module, "CROSSING_ROWS", cap)
    rng = np.random.default_rng(n + 7)
    g = random_connected_graph(rng, n, extra=extra, wmax=1 << 32)
    trees = [build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(n))) for _ in range(5)]
    provider = PROVIDERS[mode](g)
    want = {}
    for t in trees:
        reqs = all_requests(g, t) + [PairCut(TreeEdgePair("single", v)) for v in t.edge_children()]
        want[t] = list(zip(reqs, per_tree_values(g, t, reqs)))
    for held in (2, 4, 5):
        items = [(t, req) for t in trees[:held] for req, _ in want[t]]
        rng.shuffle(items)
        value = {(t, req): v for t in trees[:held] for req, v in want[t]}
        assert provider.batch_eval(items) == [value[t, req] for t, req in items]
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
    provider.batch_eval([(t, DegSubtree(1))])
    assert provider._dense and len(provider._blocks) == 1
    with pytest.raises(ValueError, match="overlap"):
        provider.batch_eval([(t, CrossSub(1, 2))])
    with pytest.raises(ValueError, match="does not nest"):
        provider.batch_eval([(t, CrossNested(1, 4))])


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
        vals.append(sp.batch_eval([(t, DegSubtree(1))])[0])
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


FINGERPRINT_ROOTS = ((1048573, 5), (1048583, 7))  # (modulus, root) per fingerprint


class VertexCells(SketchBank):
    """The per-vertex sketch model, the reference for SketchBank.

    Per class, a (4, n, copies, reps, levels) int64 array of the cells w,
    x, f1, f2, filled one update at a time: +payload on u's cells and
    -payload on v's, at every level up to the update's top. recover sums
    each component's member rows and scans its cells one at a time,
    sparsest level first and reps in order. It counts its recover calls, and
    the components whose summed cells are not all zero yet verify no edge.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        shape = (4, self.n, self.copies, self.reps, self.levels)
        self.cells = {c: np.zeros(shape, dtype=np.int64) for c in self.classes}
        self.calls = self.missed = 0

    def absorb(self, uu, vv, wdelta):
        for u, v, delta in zip(uu.tolist(), vv.tolist(), wdelta.tolist()):
            w, op = abs(delta), (1 if delta >= 0 else -1)
            if w.bit_length() - 1 not in self.cells:
                continue
            eid = u * self.n + v
            fps = [op * (w % p) * pow(r, eid % (p - 1) + 1, p) for p, r in FINGERPRINT_ROOTS]
            payload = np.array([delta, op * eid, *fps], dtype=np.int64)
            reach = np.arange(self.levels) <= self._tops(np.array([eid]), self.salts)[:, None]
            add = payload[:, None, None, None] * reach.reshape(self.copies, self.reps, self.levels)
            cells = self.cells[w.bit_length() - 1]
            cells[:, u] += add
            cells[:, v] -= add

    def recover(self, cls, copy, labels):
        self.calls += 1
        k = int(labels.max()) + 1
        sums = np.zeros((4, k, self.reps, self.levels), dtype=np.int64)
        np.add.at(sums, (slice(None), labels), self.cells[cls][:, :, copy])
        out = [self._first_edge(labels, c, copy, sums[:, c].tolist()) for c in range(k)]
        self.missed += sum(got is None and sums[:, c].any() for c, got in enumerate(out))
        return out

    def _first_edge(self, labels, c, copy, cells):
        """The first of component c's (rep, level) cells, sparsest level first
        and reps in order, that holds exactly one edge leaving c, as (u, v, |w|)."""
        for lvl in reversed(range(self.levels)):
            for rep in range(self.reps):
                w, x, *fps = (field[rep][lvl] for field in cells)
                sign = 1 if w > 0 else -1
                eid = x * sign
                if not w or not 0 <= eid < self.space:
                    continue
                u, v = divmod(eid, self.n)
                u_in, v_in = labels[u] == c, labels[v] == c
                if u >= v or u_in == v_in or sign != (1 if u_in else -1):  # u's side carries +w, v's -w
                    continue
                if self._tops(np.array([eid]), self.salts[copy * self.reps + rep])[0] < lvl:
                    continue
                if any((f - w % p * pow(r, eid % (p - 1) + 1, p)) % p
                       for f, (p, r) in zip(fps, FINGERPRINT_ROOTS)):
                    continue
                return (u, v, abs(w))
        return None


def every_component_proxy(harness, eps, copies, reps=2):
    """The stream sparsifier over the per-vertex model, with every Boruvka
    sweep summing every component's cells and relabelling, unions or not:
    the reference that build_proxy_via_stream must equal in kept edges,
    passes, words and recover calls. The sweep loop is peel_forests' own,
    written out, less the edge budget, which no stream here comes near.
    Returns the kept edges in order and the reference bank."""
    n = harness.n
    observed = sorted({abs(w).bit_length() - 1 for w in harness.wdelta.tolist() if w})
    bank = VertexCells(n, observed, seed=harness.seed ^ 0x5EED, copies=copies, reps=reps)
    harness.fill_bank(bank)
    kept = []
    for cls in observed:
        for _ in range(forests_per_class(n, eps)):
            labels, k, forest, sweep, idle = np.arange(n), n, [], 0, 0
            while k > 1 and idle < copies:
                ds, grown = DisjointSets(k), len(forest)
                for c, got in enumerate(bank.recover(cls, sweep % copies, labels)):
                    if got is not None and ds.size[ds.find(c)] == 1 and ds.union(int(labels[got[0]]),
                                                                                  int(labels[got[1]])):
                        forest.append(got)
                ids = {}
                labels = np.array([ids.setdefault(ds.find(c), len(ids)) for c in range(k)])[labels]
                k, sweep = len(ids), sweep + 1
                idle = 0 if len(forest) > grown else idle + 1
            if not forest:
                break
            bank.subtract_edges(forest)
            kept.extend(forest)
    return kept, bank


def stream_cases(seed, count):
    """Random streams: n 4..60, churn 0..1, weights up to 10 or 2^32, every
    third weight zeroed on every third graph."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(4, 61))
        g = random_connected_graph(rng, n, extra=float(rng.choice([0.5, 2.0, 5.0])), wmax=(10, 1 << 32)[i % 2])
        if i % 3 == 0:
            g = WeightedGraph(n, [(u, v, w if k % 3 else 0) for k, (u, v, w) in enumerate(g.edges)])
        yield g, int(rng.integers(1 << 30)), float(rng.choice([0.0, 0.3, 0.5, 1.0]))


def kept_and_recover_calls(harness, eps, monkeypatch):
    """build_proxy_via_stream's kept edges in peeling order, and its SketchBank.recover calls."""
    calls, kept = Counter(), []
    recover, peel = SketchBank.recover, streaming.peel_forests

    def counting(*args):
        calls["recover"] += 1
        return recover(*args)

    def peel_keeping(*args):
        kept.append(args[-1])  # the builder's kept list, in peeling order
        return peel(*args)

    with monkeypatch.context() as patch:
        patch.setattr(SketchBank, "recover", counting)
        patch.setattr(streaming, "peel_forests", peel_keeping)
        proxy = build_proxy_via_stream(harness, eps)
    got = kept[-1] if kept else []
    assert proxy.edges == sorted(got)
    return got, calls["recover"]


@pytest.mark.parametrize("copies, reps", [(None, 2), (1, 1)], ids=["bank", "one-copy-one-rep"])
def test_stream_proxy_equals_every_component_reference(copies, reps, monkeypatch):
    # one copy and one rep make the sketch miss edges of crossing components,
    # so forests end early with nonzero cells left unrecovered
    if copies is not None:
        monkeypatch.setattr(streaming, "ceil_log2", lambda x: copies - 2)
        monkeypatch.setattr(streaming, "SketchBank", functools.partial(SketchBank, reps=reps))
    missed = 0
    for i, (g, seed, churn) in enumerate(stream_cases(21, 64)):
        fast, slow = StreamHarness(g, seed=seed, churn=churn), StreamHarness(g, seed=seed, churn=churn)
        got, calls = kept_and_recover_calls(fast, 0.1, monkeypatch)
        want, ref = every_component_proxy(slow, 0.1, copies or ceil_log2(g.n) + 2, reps)
        assert got == want, f"stream {i}"
        assert calls == ref.calls, f"stream {i}"
        assert (fast.pass_count, fast.tracked_words) == (slow.pass_count, slow.tracked_words), f"stream {i}"
        missed += ref.missed
    if copies is not None:
        assert missed > 0
    else:
        assert sorted(got) == [e for e in g.edges if e[2]]  # the full bank exhausts the last graph


def test_thin_stream_proxy_differs_from_graph_and_keeps_the_cut(monkeypatch):
    # one to three forests per class leave a proxy that is not the graph, so
    # Step 4 filters on a grid over the proxy instead of the tree's own index
    grids = Counter()
    grid = provider_module.PoPrefixGrid

    def counting(*args):
        grids["proxy filter"] += 1
        return grid(*args)

    monkeypatch.setattr(provider_module, "PoPrefixGrid", counting)
    rng = np.random.default_rng(41)
    graphs = [random_connected_graph(rng, 96, extra=12.0, wmax=10) for _ in range(3)]
    for factor in (0.005, 0.001):
        monkeypatch.setattr(proxy_module, "FOREST_FACTOR", factor)
        for i, g in enumerate(graphs):
            assert g.m == 1152
            seed = 60 + i
            got, _ = kept_and_recover_calls(StreamHarness(g, seed=seed, churn=0.5), 0.1, monkeypatch)
            want, _ = every_component_proxy(StreamHarness(g, seed=seed, churn=0.5), 0.1, ceil_log2(g.n) + 2)
            assert got == want
            assert len(got) < g.m
            grids.clear()
            result, _ = min_cut_pipeline(g, "streaming", 0.1, seed, PipelineConfig(churn=0.5))
            assert result.value == oracle_min_cut(g).value
            assert grids["proxy filter"] > 0


def test_sketch_bank_recover_equals_per_vertex_reference():
    # a churned stream, then two subtracted forests; besides, one pair gets
    # three 1,300,000 inserts and two subtracted 1,950,000 edges, all in
    # class 20: its w sum is zero, but its sign and fingerprint sums are not,
    # since the weights pass both moduli and their residues do not cancel;
    # one more class-20 edge shares cells with it
    rng = np.random.default_rng(31)
    n = 14
    g = random_connected_graph(rng, n, extra=3.0, wmax=40)
    h = StreamHarness(g, seed=5, churn=0.8)
    odd, other = (2, 9), (5, 11, 1_200_000)
    classes = sorted({w.bit_length() - 1 for _, _, w in g.edges} | {20})
    ds, forest = DisjointSets(n), []
    for u, v, w in g.edges:
        if ds.union(u, v):
            forest.append((u, v, w))
    bank, ref = SketchBank(n, classes, seed=8, copies=3), VertexCells(n, classes, seed=8, copies=3)
    for sketch in (bank, ref):
        sketch.absorb(h.uu, h.vv, h.wdelta)
        sketch.absorb(np.array([odd[0]] * 3 + [other[0]]), np.array([odd[1]] * 3 + [other[1]]),
                      np.array([1_300_000] * 3 + [other[2]]))
        sketch.subtract_edges(forest[::2] + [odd + (1_950_000,)] * 2)
        sketch.subtract_edges(forest[1::3])
    keys, sums = bank.net[20]
    assert keys.tolist() == [odd[0] * n + odd[1], other[0] * n + other[1]]
    assert sums[0, 0] == 0 and (sums[1:, 0] != 0).all()
    checked = Counter()
    for _ in range(40):
        k = int(rng.integers(2, n + 1))
        labels = np.unique(rng.integers(k, size=n), return_inverse=True)[1].reshape(-1)
        for c in classes:
            for copy in range(bank.copies):
                got = bank.recover(c, copy, labels)
                assert got == ref.recover(c, copy, labels), (c, copy, labels.tolist())
                checked["edges"] += sum(e is not None for e in got)
        if labels[odd[0]] != labels[odd[1]]:
            checked["odd pair split"] += 1
    assert checked["edges"] > 1000 and checked["odd pair split"] > 0 and ref.missed > 0


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
    assert not any(len(keys) for keys, _ in banks[0].net.values())  # the bank absorbed no update


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
#   (oracle query_count, oracle recoveries (one recover_crossing_edge bisection each),
#    stream pass_count, tracked_words, SketchBank.recover calls, subtract_edges calls)
# The last two graphs are the query-heavy and stream-dense-churn bench instances.
PINNED_PROXIES = [
    ((4, 2.0, 10, 0.0, 1, False), (7, 18, 1, 2560, 32, 4)),
    ((9, 2.0, 1 << 32, 0.5, 2, False), (58, 47, 1, 9072, 41, 4)),
    ((17, 3.0, 10, 1.0, 3, False), (204, 137, 1, 34272, 82, 6)),
    ((25, 2.0, 1 << 32, 0.0, 4, False), (262, 191, 1, 56000, 80, 6)),
    ((30, 4.0, 10, 0.5, 5, True), (440, 221, 1, 67200, 83, 6)),
    ((60, 3.0, 1 << 32, 0.5, 6, False), (1176, 552, 1, 368640, 171, 11)),
    ((48, 8.0, 1 << 32, 0.0, 3000, False), (1636, 1244, 1, 294912, 193, 15)),
    ((128, 24.0, 10, 0.5, 3000, False), (12402, 11737, 1, 552960, 305, 30)),
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

    for obj, name in ((SketchBank, "recover"), (SketchBank, "subtract_edges")):
        count(obj, name)
    peel = cutquery.peel_forests

    def peel_counting_recoveries(n, recover, *rest):
        # the oracle builder charges one recovery for each component peel_forests admits
        def counted(sweep, labels, live):
            for c, got in enumerate(recover(sweep, labels, live)):
                calls["oracle recoveries"] += live(c)
                yield got

        return peel(n, counted, *rest)

    monkeypatch.setattr(cutquery, "peel_forests", peel_counting_recoveries)
    oracle = CutOracle(g)
    oracle_proxy = build_proxy_via_oracle(oracle, eps=0.1)
    harness = StreamHarness(g, seed=seed, churn=churn)
    stream_proxy = build_proxy_via_stream(harness, eps=0.1)
    # peeling exhausts these graphs; no forest can hold a zero-weight edge
    assert oracle_proxy.edges == stream_proxy.edges == [e for e in g.edges if e[2]]
    got = (oracle.query_count, calls["oracle recoveries"], harness.pass_count, harness.tracked_words,
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
    # the netted store against one update at a time, on a churned stream
    rng = np.random.default_rng(23)
    g, _ = random_instance(rng, 9, 9, wmax=1 << 32)
    h = StreamHarness(g, seed=4, churn=1.0)
    classes = sorted({w.bit_length() - 1 for _, _, w in g.edges})
    bank = SketchBank(g.n, classes[1:], seed=12, copies=3)  # a class the bank lacks is dropped
    bank.absorb(h.uu, h.vv, h.wdelta)
    want = {}
    for u, v, delta in zip(h.uu.tolist(), h.vv.tolist(), h.wdelta.tolist()):
        w, op = abs(delta), (1 if delta >= 0 else -1)
        eid = u * g.n + v
        fps = [op * (w % p) * pow(r, eid % (p - 1) + 1, p) for p, r in FINGERPRINT_ROOTS]
        sums = want.setdefault(w.bit_length() - 1, {}).setdefault(eid, [0, 0, 0, 0])
        for i, val in enumerate((delta, op * eid, *fps)):
            sums[i] += val
    assert sorted(bank.net) == classes[1:]
    for c in classes[1:]:
        keys, sums = bank.net[c]
        assert dict(zip(keys.tolist(), sums.T.tolist())) == {e: s for e, s in want[c].items() if any(s)}
        assert keys.tolist() == sorted(keys.tolist())


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
    # sketch(A) + sketch(B) - sketch(B) leaves the net store (hence every
    # cell and recovery) identical to sketch(A)
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
    assert sorted(merged.net) == sorted(a.net) == [2]
    for got, want in zip(merged.net[2], a.net[2]):
        assert np.array_equal(got, want)
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
