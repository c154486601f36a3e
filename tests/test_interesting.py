"""Interest discovery: thresholds, structure laws, the tertile-witness route
against a scalar per-edge reference and against exhaustive enumeration, and
the Step 5 pairing against a scalar per-row reference."""

import itertools

import numpy as np
import pytest

from twocut.graph import WeightedGraph, all_pair_tables, build_rooted_tree, cross_weight, cut_of_partition
from twocut import proxy as proxy_module
from twocut import tworespect
from twocut.hld import decompose
from twocut.interesting import ProxyFilter, candidate_tops, pair_solver_inputs, tertile_witnesses
from twocut.packing import min_cut_pipeline
from twocut.proxy import build_proxy_direct
from twocut.rangeindex import tree_degrees
from twocut.requests import CrossNested, CrossSub, DegSubtree
from twocut.sequential import SequentialProvider
from twocut.tworespect import interest_checks

from conftest import (
    candidate_rows,
    grid_index,
    make_gstar,
    random_connected_graph,
    random_instance,
    random_spanning_tree_edges,
    weight_index,
)
from test_hld import brute_lca, walk_tops

CROSS = "cross"
DOWN = "down"


def exhaustive_interest(g, t):
    """Direct threshold evaluation over all edge pairs."""
    deg, cross, down = all_pair_tables(g, t)
    kids = t.edge_children()
    cross_int = {
        e: {f for f in kids if t.orthogonal(e, f) and 2 * int(cross[e, f]) > int(deg[e])}
        for e in kids
    }
    down_int = {
        e: {
            f
            for f in kids
            if f != e and t.is_ancestor(e, f) and 2 * int(down[f, e]) > int(deg[e])
        }
        for e in kids
    }
    return cross_int, down_int


# -- scalar per-edge reference of Step 4 discovery --


def reference_sample_rect(sidx, x1, x2, y1, y2, k):
    """One rectangle: mask every point, histogram the levels, walk down from the top."""
    inside = (sidx.xs >= x1) & (sidx.xs <= x2) & (sidx.ys >= y1) & (sidx.ys <= y2)
    lv = sidx.point_level[inside]
    if len(lv) <= k:
        return sidx.ids[inside]
    counts_at = np.bincount(lv, minlength=sidx.top + 1)[::-1].cumsum()[::-1]
    stop = max(i for i in range(sidx.top + 1) if counts_at[i] >= k)
    return sidx.ids[inside][lv >= stop]


def reference_witnesses(t, proxy, e):
    """e's tertile witnesses by one scan of its boundary edges in Python ints:
    with each edge's weight at its outside endpoint (cross), then at its inside
    one (down), the first vertex in post-order where the running mass m has
    3 m >= T, then 3 m >= 2 T; none when T = 0."""
    inside = set(t.subtree(e))
    at_out, at_in = [0] * t.n, [0] * t.n
    for u, v, w in proxy.edges:
        if (u in inside) != (v in inside):
            a, b = (u, v) if u in inside else (v, u)
            at_in[int(t.po[a])] += w
            at_out[int(t.po[b])] += w
    total = sum(at_in)
    if not total:
        return []
    out = []
    for mass in (at_out, at_in):
        for k in (1, 2):
            running = itertools.accumulate(mass)
            out.append(int(t.order[next(p for p, m in enumerate(running) if 3 * m >= k * total)]))
    return out


def reference_checks(t, d, proxy, filtered=True):
    """The per-edge loop: scan for each edge's witnesses, walk parent pointers
    from each, then (when filtered) one brute-force proxy check per candidate."""
    cross, down = set(), set()
    for e in t.edge_children():
        for x in reference_witnesses(t, proxy, e):
            for f, _ in walk_tops(t, d, brute_lca(t, e, x), x):
                if t.orthogonal(e, f):
                    cross.add((e, f))
                elif d.path_of[f] != d.path_of[e]:
                    down.add((e, f))
    if filtered:
        deg = {e: cut_of_partition(proxy, t.subtree(e)) for e in t.edge_children()}
        cross = {(e, f) for e, f in cross if 3 * cross_weight(proxy, t.subtree(e), t.subtree(f)) > deg[e]}
        down = {
            (e, f) for e, f in down
            if 3 * cross_weight(proxy, t.subtree(f), set(range(t.n)) - set(t.subtree(e))) > deg[e]
        }
    return sorted(cross), sorted(down)


def exhaustive_filtered_rows(t, d, proxy):
    """Every (e, f) row whose f tops its path segment below lca(e, f) and which
    the 1/3 filter keeps, by enumerating all edge pairs in Python ints; down
    rows off e's own path."""
    kids = t.edge_children()
    cross, down = [], []
    for e in kids:
        sub = t.subtree(e)
        deg = cut_of_partition(proxy, sub)
        for f in kids:
            if not (int(t.parent[f]) == brute_lca(t, e, f) or d.top_edge[d.path_of[f]] == f):
                continue
            if t.orthogonal(e, f):
                if 3 * cross_weight(proxy, sub, t.subtree(f)) > deg:
                    cross.append((e, f))
            elif f != e and t.is_ancestor(e, f) and d.path_of[f] != d.path_of[e]:
                if 3 * cross_weight(proxy, t.subtree(f), set(range(t.n)) - set(sub)) > deg:
                    down.append((e, f))
    return sorted(cross), sorted(down)


def verified_rows(g, t, d):
    """Step 4 on one tree without the proxy filter: the unfiltered candidate
    rows, then the exact strict-half check of every row through a
    SequentialProvider, as the pipeline does. Returns (cross, down, ok), ok
    aligned with the cross rows, then down."""
    provider = SequentialProvider(g)
    cross, down = candidate_rows(g, d)
    kids = t.edge_children()
    reqs = [(t, DegSubtree(e)) for e in kids]
    reqs += [(t, CrossSub(e, f)) for e, f in cross.tolist()]
    reqs += [(t, CrossNested(f, e)) for e, f in down.tolist()]
    values = provider.batch_eval(reqs)
    deg = dict(zip(kids, values))
    rows = cross.tolist() + down.tolist()
    ok = np.array([2 * v > deg[e] for (e, _), v in zip(rows, values[len(kids):])], dtype=bool)
    return cross, down, ok


def verified_partners(g, t, d):
    """verified_rows as {e: (cross path ids, down path ids)}."""
    cross, down, ok = verified_rows(g, t, d)
    out = {e: (set(), set()) for e in t.edge_children()}
    for i, ((e, f), keep) in enumerate(zip(cross.tolist() + down.tolist(), ok.tolist())):
        if keep:
            out[e][i >= len(cross)].add(int(d.path_of[f]))
    return out


# -- scalar per-row reference of the Step 5 pairing --


def reference_solver_inputs(d, cross, down, ok):
    """The per-row loop: accumulate marks per path pair in a dict of sets,
    then drain the pairs in key order into (rows, cols) lists."""
    t = d.tree
    entries = {}
    for i, ((e, f), keep) in enumerate(zip(cross.tolist() + down.tolist(), ok.tolist())):
        if not keep:
            continue
        p, q = int(d.path_of[e]), int(d.path_of[f])
        if i < len(cross):  # cross keys put the smaller path id first
            a, b = min(p, q), max(p, q)
            entries.setdefault((0, a, b), (set(), set()))[0 if p == a else 1].add(e)
        else:  # down keys keep (upper, lower); only the upper side is marked
            entries.setdefault((1, p, q), (set(), set()))[0].add(e)
    out = []
    for tag, p, q in sorted(entries):
        first, second = (sorted(side, key=lambda x: int(t.depth[x])) for side in entries[tag, p, q])
        if tag == 0:
            if first and second:
                out.append((first, second))
        else:
            top = first[0]
            cols = [f for f in d.paths[q] if t.lo[top] <= t.lo[f] and t.hi[f] <= t.hi[top]]
            if cols:
                out.append((first[::-1], cols))
    return out


def exact_interest(provider, t, e, f, kind):
    """The pipeline's verification request for one row, with Step 1's degree."""
    req = CrossSub(e, f) if kind == CROSS else CrossNested(f, e)
    deg, val = provider.batch_eval([(t, DegSubtree(e)), (t, req)])
    return 2 * val > deg


def test_gstar_weight_classes():
    g, _ = make_gstar()
    assert {i: len(ids) for i, ids in g.weight_classes.items()} == {0: 4, 1: 1, 2: 1}


def test_weight_classes_unit_and_sparse():
    unit = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert set(unit.weight_classes) == {0}

    wide = WeightedGraph(3, [(0, 1, 1), (1, 2, 1 << 20)])
    assert set(wide.weight_classes) == {0, 20}

    # weights past 2**53, where a float bit length rounds 2**61 - 1 up to 62 bits
    heavy = WeightedGraph(3, [(0, 1, (1 << 61) - 1), (1, 2, 1 << 61), (0, 2, (1 << 53) + 1)])
    # the split is the graph's own, made once; a zero weight is in no class
    assert heavy.weight_classes is heavy.weight_classes
    assert {i: ids.tolist() for i, ids in heavy.weight_classes.items()} == {53: [1], 60: [0], 61: [2]}
    zero = WeightedGraph(3, [(0, 1, 0), (1, 2, 3), (0, 2, 2)])
    assert {i: ids.tolist() for i, ids in zero.weight_classes.items()} == {1: [1, 2]}


def test_verify_interest_examples():
    g, t = make_gstar()
    provider = SequentialProvider(g)
    assert exact_interest(provider, t, 2, 4, CROSS)
    assert exact_interest(provider, t, 1, 4, CROSS)
    assert exact_interest(provider, t, 1, 3, CROSS)  # ancestor closure
    assert exact_interest(provider, t, 3, 1, CROSS)  # C=6 > deg(3_sub)/2 = 3.5
    with pytest.raises(ValueError):
        exact_interest(provider, t, 1, 2, CROSS)  # nested, not orthogonal
    with pytest.raises(ValueError):
        exact_interest(provider, t, 2, 3, DOWN)  # 3 is not below 2


def test_verify_interest_zero_cross_false():
    g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    t = build_rooted_tree(g, [(0, 1), (0, 2), (0, 3)], 0)
    assert not exact_interest(SequentialProvider(g), t, 1, 2, CROSS)


def test_gstar_interesting_paths():
    g, t = make_gstar()
    d = decompose(t)
    crossed, downed = verified_partners(g, t, d)[2]
    assert crossed == {int(d.path_of[3])}
    assert downed == set()


def test_interest_structure_laws_exhaustively():
    rng = np.random.default_rng(63)
    for _ in range(60):
        g, t = random_instance(rng, 4, 12)
        cross_int, down_int = exhaustive_interest(g, t)
        for e, partners in cross_int.items():
            for f1, f2 in itertools.combinations(partners, 2):
                assert not t.orthogonal(f1, f2)  # one root-leaf line
            for f in partners:
                anc = int(t.parent[f])
                while anc != t.root and anc != -1:
                    if t.orthogonal(e, anc):
                        assert anc in partners  # upward closure
                    anc = int(t.parent[anc])
        for e, partners in down_int.items():
            for f1, f2 in itertools.combinations(partners, 2):
                assert not t.orthogonal(f1, f2)
            for f in partners:
                anc = int(t.parent[f])
                while anc != e and t.is_ancestor(e, anc) and anc != -1:
                    assert anc in partners
                    anc = int(t.parent[anc])


def test_returned_paths_cover_truth():
    rng = np.random.default_rng(65)
    bad_instances = 0
    for i in range(120):
        g, t = random_instance(rng, 4, 12)
        d = decompose(t)
        cross_int, down_int = exhaustive_interest(g, t)
        got = verified_partners(g, t, d)
        ok = True
        for e in t.edge_children():
            crossed, downed = got[e]
            want_cross = {int(d.path_of[f]) for f in cross_int[e]}
            want_down = {
                int(d.path_of[f]) for f in down_int[e] if d.path_of[f] != d.path_of[e]
            }
            if not want_cross <= crossed or not want_down <= downed:
                ok = False
        if not ok:
            bad_instances += 1
    assert bad_instances == 0


def test_proxy_filter_soundness_and_breadth():
    rng = np.random.default_rng(66)
    for i in range(40):
        g, t = random_instance(rng, 4, 12)
        h = build_proxy_direct(g, eps=0.01)
        filt = ProxyFilter(grid_index(h, t), t)
        cross_int, down_int = exhaustive_interest(g, t)
        kids = t.edge_children()
        for e in kids:
            assert filt.cross_ok_many(e, sorted(cross_int[e])).all()
            assert filt.down_ok_many(e, sorted(down_int[e])).all()
            # proxy breadth: no three pairwise-orthogonal 1/3-survivors
            orth = [f for f in kids if t.orthogonal(e, f)]
            survivors = [f for f, ok in zip(orth, filt.cross_ok_many(e, orth)) if ok]
            for trio in itertools.combinations(survivors, 3):
                assert not all(
                    t.orthogonal(a, b) for a, b in itertools.combinations(trio, 2)
                )


def test_accumulator_canonicalization_and_drain():
    g, t = make_gstar()
    d = decompose(t)
    p1 = int(d.path_of[1])
    p2 = int(d.path_of[3])
    # (e, f) rows mark e on its own path; f only names the partner path
    cross = np.array([[1, 3], [3, 1], [1, 3], [2, 3], [4, 1], [2, 4]])
    ok = np.array([True, True, True, True, True, False])  # repeats are idempotent
    drained = pair_solver_inputs(d, cross, cross[:0], ok)
    assert drained == reference_solver_inputs(d, cross, cross[:0], ok)
    assert len(drained) == 1
    mp, mq = drained[0]
    p, q = min(p1, p2), max(p1, p2)
    assert {int(d.path_of[e]) for e in mp} == {p} and {int(d.path_of[e]) for e in mq} == {q}
    low, high = (mp, mq) if p == p1 else (mq, mp)
    assert low == [1, 2] and high == [3, 4]
    # marks on one side only make no instance
    assert pair_solver_inputs(d, cross, cross[:0], ~ok) == []


def test_gstar_full_cross_marks():
    g, t = make_gstar()
    d = decompose(t)
    cross, down, ok = verified_rows(g, t, d)
    drained = pair_solver_inputs(d, cross, down[:0], ok[: len(cross)])
    assert len(drained) == 1
    mp, mq = drained[0]
    assert sorted(mp + mq) == [1, 2, 3, 4]


def equivalence_instances():
    rng = np.random.default_rng(0x57E4)
    out = [make_gstar()]
    for i in range(160):
        wmax = 10 if i % 2 else 1 << 32
        if i % 10 == 9:  # bigger trees, so the witness searches take more steps
            out.append(random_instance(rng, 30, 60, wmax=wmax, extra=4.0))
        else:
            out.append(random_instance(rng, 4, 14, wmax=wmax, extra=3.0))
    # degenerate shapes, where witnesses sit on e's own heavy path above and
    # below e
    for shape, root in (("path", 0), ("path", "middle"), ("star", 0), ("star", 1), ("caterpillar", 0)):
        for wmax in (10, 1 << 32):
            out.append(shaped_instance(rng, shape, root, int(rng.integers(12, 41)), wmax))
    return out


def shaped_instance(rng, shape, root, n, wmax):
    """A tree of the given shape on n vertices plus ~3n random non-tree
    edges, weights 1..wmax. A caterpillar hangs legs off a spine 0..n/2-1."""
    spine = n // 2
    tree = {
        "path": [(i, i + 1) for i in range(n - 1)],
        "star": [(0, i) for i in range(1, n)],
        "caterpillar": [(i, i + 1) for i in range(spine - 1)]
        + [(int(rng.integers(spine)), i) for i in range(spine, n)],
    }[shape]
    edges = {tuple(sorted(e)): int(rng.integers(1, wmax + 1)) for e in tree}
    while len(edges) < 4 * n:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((u, v), int(rng.integers(1, wmax + 1)))
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])
    return g, build_rooted_tree(g, tree, n // 2 if root == "middle" else root)


def as_rows(arrays):
    return [list(map(tuple, rows.tolist())) for rows in arrays]


def test_batch_rows_equal_per_edge_reference():
    for i, (g, t) in enumerate(equivalence_instances()):
        if t.n < 3:
            continue
        d = decompose(t)
        h = build_proxy_direct(g, eps=0.1)
        # on the graph itself (the in-memory provider's proxy) through its
        # merge-sort tree, and on a sparsifier through its grid
        for p, index in ((g, weight_index), (h, grid_index)):
            filt = ProxyFilter(index(p, t), t)
            es, xs = tertile_witnesses(d, filt)
            want = sorted((e, x) for e in t.edge_children() for x in reference_witnesses(t, p, e))
            assert sorted(zip(es.tolist(), xs.tolist())) == want, f"instance {i}"
            # rows come distinct and sorted by (e, f), as the reference lists them
            assert as_rows(candidate_tops(d, es, xs)) == list(reference_checks(t, d, p, filtered=False)), f"instance {i}"
            assert as_rows(interest_checks(d, filt)) == list(reference_checks(t, d, p)), f"instance {i}"


def exhaustive_cases():
    """(graph, tree) pairs: random trees at light and 2^32 weights, then the
    path, star and caterpillar shapes."""
    rng = np.random.default_rng(0xE4A)
    for i in range(40):
        yield random_instance(rng, 4, 12, wmax=1 << 32 if i % 2 else 10, extra=3.0)
    for shape, root in (("path", 0), ("path", "middle"), ("star", 0), ("star", 1), ("caterpillar", 0)):
        for wmax in (10, 1 << 32):
            yield shaped_instance(rng, shape, root, int(rng.integers(9, 17)), wmax)


def test_interest_checks_equal_exhaustive_enumeration(monkeypatch):
    # every segment-top row the 1/3 filter keeps, and no other, on the graph
    # itself through its merge-sort tree and on a sparser proxy (one forest
    # per weight class) through its grid
    monkeypatch.setattr(proxy_module, "FOREST_FACTOR", 0.002)
    differing = 0
    for i, (g, t) in enumerate(exhaustive_cases()):
        d = decompose(t)
        h = build_proxy_direct(g, eps=0.1)
        differing += h.m < g.m
        for p, index in ((g, weight_index), (h, grid_index)):
            got = as_rows(interest_checks(d, ProxyFilter(index(p, t), t)))
            assert got == list(exhaustive_filtered_rows(t, d, p)), f"instance {i}"
    assert differing >= 40


@pytest.mark.parametrize("weights, landing", [
    ((3, 4, 1, 1), "T/3 at leaf 2"),    # T = 9
    ((2, 4, 2, 1), "2T/3 at leaf 3"),   # T = 9
    ((4, 3, 2, 1), "ceil(T/3) at 2"),   # T = 10
    ((1, 6, 2, 1), "ceil(2T/3) at 3"),  # T = 10
    ((4, 4, 2, 1), "ceil(T/3) at 2, ceil(2T/3) at 3"),  # T = 11
    ((1, 3, 4, 3), "ceil(T/3) at 3, ceil(2T/3) at 4"),  # T = 11
])
def test_tertile_witnesses_at_exact_landings(weights, landing):
    # tree 0-1, 0-2, 0-3, 0-4 (post-order 1, 2, 3, 4, 0) and edges from 1 to
    # each other vertex: e = 1's cross line carries w2, w3, w4 at leaves 2..4
    # and the tree edge's w0 at the root, so T = deg(1) = w2 + w3 + w4 + w0
    w2, w3, w4, w0 = weights
    g = WeightedGraph(5, [(0, 1, w0), (1, 2, w2), (1, 3, w3), (1, 4, w4), (0, 2, 1), (0, 3, 1), (0, 4, 1)])
    t = build_rooted_tree(g, [(0, 1), (0, 2), (0, 3), (0, 4)], root=0)
    d = decompose(t)
    filt = ProxyFilter(weight_index(g, t), t)
    es, xs = tertile_witnesses(d, filt)
    total = sum(weights)
    running = dict(zip((2, 3, 4, 0), itertools.accumulate((w2, w3, w4, w0))))
    first = [next(v for v in (2, 3, 4, 0) if 3 * running[v] >= k * total) for k in (1, 2)]
    assert xs[es == 1][:2].tolist() == first, landing
    assert as_rows(interest_checks(d, filt)) == list(exhaustive_filtered_rows(t, d, g)), landing


def test_pair_solver_inputs_equal_per_row_reference():
    for i, (g, t) in enumerate(equivalence_instances()):
        d = decompose(t)
        cross, down, ok = verified_rows(g, t, d)
        # every candidate marked as well, so that many pairs form on small trees
        for keep in (ok, np.ones_like(ok)):
            got = pair_solver_inputs(d, cross, down, keep)
            assert got == reference_solver_inputs(d, cross, down, keep), f"instance {i}"


@pytest.mark.parametrize(
    "graph_seed, wmax, mode, seed, ledgers",
    [
        (11, 10, "sequential", 5, (0, 0, 0, 635)),
        (12, 1 << 32, "cut-query", 6, (2237, 0, 0, 2191)),
        (13, 10, "streaming", 7, (0, 9, 55262, 715)),
    ],
)
def test_pipeline_ledgers_pinned(graph_seed, wmax, mode, seed, ledgers):
    # discovery rows feed every ledger, so a changed row set shows here
    g = random_connected_graph(np.random.default_rng(graph_seed), 24, extra=3, wmax=wmax)
    _, stats = min_cut_pipeline(g, mode, rng=seed)
    assert (stats.queries, stats.passes, stats.tracked_words, stats.probes) == ledgers


def every_witness(d, filt):
    """Every vertex as a witness for every edge of its tree, in tertile_witnesses'
    form: d may stack several trees (hld.stack), tree i's vertex v at i * n + v."""
    t, n = d.tree, d.tree.n
    es, xs = np.divmod(np.arange(len(t.lo) * n), n)
    xs += es - es % n
    edge = t.hi[es] - t.lo[es] < n - 1  # not a root, whose subtree spans the tree
    return es[edge], xs[edge]


@pytest.mark.parametrize("graph", ["gstar", "n40"])
def test_sequential_filter_drops_only_failing_rows(graph, monkeypatch):
    # on the graph itself the 1/3 filter (3 C > deg) is implied by the exact
    # 2 C > deg, so it and the tertile witnesses only spare exact checks of
    # rows that would fail: checking every segment-top row instead, with
    # every vertex a witness for every edge, changes nothing else
    if graph == "gstar":
        g, _ = make_gstar()
    else:
        g = random_connected_graph(np.random.default_rng(40), 40, extra=3, wmax=10)
    crossings = []
    batch_eval = SequentialProvider.batch_eval

    def spy(self, items):
        crossings[-1] += sum(isinstance(req, (CrossSub, CrossNested)) for _, req in items)
        return batch_eval(self, items)

    monkeypatch.setattr(SequentialProvider, "batch_eval", spy)
    runs = []
    for keep_all in (False, True):
        if keep_all:
            for name in ("cross_ok_many", "down_ok_many"):
                monkeypatch.setattr(ProxyFilter, name, lambda self, us, fs: np.ones(len(us), dtype=bool))
            monkeypatch.setattr(tworespect, "tertile_witnesses", every_witness)
        crossings.append(0)
        res, stats = min_cut_pipeline(g, "sequential", rng=3)
        runs.append((res.value, res.certificate, res.partition, stats.probes))
    assert runs[0] == runs[1]
    assert 0 < crossings[0] < crossings[1]


def heavy_graphs():
    # totals between 2**61.5 and the 2**62 cap, where 3 C can pass 2**63
    heavy = (1 << 62) - 8
    yield WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, heavy), (1, 3, 1), (2, 3, 1)])
    light = random_connected_graph(np.random.default_rng(62), 12, extra=3, wmax=10)
    scale = int(2 ** 61.8) // light.total_weight
    yield WeightedGraph(light.n, [(u, v, w * scale) for u, v, w in light.edges])


@pytest.mark.parametrize("mode", ["sequential", "cut-query", "streaming"])
def test_filter_on_provider_degrees_equals_recomputed(mode):
    # the Step 1 degrees a provider hands over are the ones the filter would read off its index
    from twocut.cutquery import CutOracle, QueryProvider
    from twocut.streaming import StreamHarness, StreamProvider

    rng = np.random.default_rng(71)
    g = random_connected_graph(rng, 20, extra=3, wmax=1 << 32)
    make = {"sequential": SequentialProvider,
            "cut-query": lambda g, proxy: QueryProvider(CutOracle(g), proxy),
            "streaming": lambda g, proxy: StreamProvider(StreamHarness(g, seed=2, churn=0.5), proxy)}[mode]
    provider = make(g) if mode == "sequential" else make(g, build_proxy_direct(g, 0.1))
    for _ in range(3):
        t = build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(g.n)))
        provider.batch_eval([(t, DegSubtree(v)) for v in t.edge_children()])
        given = provider.proxy_filter(t)
        assert np.shares_memory(given.deg, provider._deg)  # the Step 1 degrees
        own = ProxyFilter(given.idx, t)
        assert given.deg.tolist() == own.deg.tolist()
        kids = t.edge_children()
        us, fs = (np.array(col) for col in zip(*itertools.product(kids, kids)))
        orth = (t.hi[us] < t.lo[fs]) | (t.hi[fs] < t.lo[us])
        below = (t.lo[us] <= t.lo[fs]) & (t.hi[fs] < t.hi[us])
        assert np.array_equal(given.cross_ok_many(us[orth], fs[orth]), own.cross_ok_many(us[orth], fs[orth]))
        assert np.array_equal(given.down_ok_many(us[below], fs[below]), own.down_ok_many(us[below], fs[below]))
    if mode != "sequential":  # a proxy that does not net to the hidden edges has its degrees read off its grid
        lighter = WeightedGraph(g.n, g.edges[1:], require_connected=False)
        other = make(g, lighter)
        other.batch_eval([(t, DegSubtree(kids[0]))])
        filt = other.proxy_filter(t)
        assert not np.shares_memory(filt.deg, other._deg)
        assert filt.deg.tolist() == tree_degrees(filt.idx, t).tolist()
        assert filt.deg[kids].tolist() == [cut_of_partition(lighter, t.subtree(v)) for v in kids]


def test_filter_keeps_every_interesting_row_near_the_weight_cap():
    g = next(heavy_graphs())
    t = build_rooted_tree(g, [(0, 1), (0, 2), (1, 3)], root=0)
    # C(sub 1, sub 2) = heavy + 1 and deg(sub 1) = heavy + 2: the exact check
    # passes, and 3 C wraps in int64
    assert ProxyFilter(weight_index(g, t), t).cross_ok_many(1, 2).all()
    rng = np.random.default_rng(63)
    for g in heavy_graphs():
        assert (1 << 61) < g.total_weight < (1 << 62)
        for _ in range(5):
            root = int(rng.integers(g.n))
            t = build_rooted_tree(g, random_spanning_tree_edges(g, rng), root)
            filt = ProxyFilter(weight_index(g, t), t)
            cross_int, down_int = exhaustive_interest(g, t)
            for e in t.edge_children():
                assert filt.cross_ok_many(e, sorted(cross_int[e])).all()
                assert filt.down_ok_many(e, sorted(down_int[e])).all()


def test_sequential_filter_changes_nothing_near_the_weight_cap(monkeypatch):
    runs = {False: [], True: []}
    for keep_all in (False, True):
        if keep_all:
            for name in ("cross_ok_many", "down_ok_many"):
                monkeypatch.setattr(ProxyFilter, name, lambda self, us, fs: np.ones(len(us), dtype=bool))
        for g in heavy_graphs():
            res, stats = min_cut_pipeline(g, "sequential", rng=3)
            runs[keep_all].append((res.value, res.certificate, res.partition, stats.probes))
    assert runs[False] == runs[True]
