"""Range index: exact rectangle sums, subtree queries, level sampling."""

import numpy as np
import pytest

from twocut.grid import PoPrefixGrid
from twocut.interesting import ProxyFilter, build_weight_classes, sample_cross_candidates, sample_k
from twocut.rangeindex import (
    EdgePointSet,
    SampleRangeIndex,
    WeightRangeIndex,
    subtree_sums,
    tree_degrees,
)
from twocut.graph import (
    WeightedGraph,
    WeightOverflowError,
    build_rooted_tree,
    cut_of_partition,
    load_graph,
    oracle_min_cut,
)
from twocut.packing import min_cut_pipeline

from conftest import make_gstar, random_instance, weight_index
from test_interesting import reference_sample_rect


def sample_index(g, t, seed):
    pts = EdgePointSet(g, t)
    return SampleRangeIndex(pts.xs, pts.ys, np.arange(g.m), seed)


def test_gstar_point_set():
    g, t = make_gstar()
    pts = EdgePointSet(g, t)
    got = {(int(x), int(y), int(w)) for x, y, w in zip(pts.xs, pts.ys, pts.ws)}
    assert got == {(1, 4, 1), (0, 1, 1), (3, 4, 1), (2, 3, 1), (0, 2, 4), (1, 3, 2)}


def test_gstar_rect_weights():
    g, t = make_gstar()
    widx = weight_index(g, t)
    assert widx.rect_weight(0, 1, 2, 3) == 6
    assert widx.rect_weights([0, 0, 2], [1, 4, 2], [2, 0, 3], [4, 4, 3]).tolist() == [7, 10, 1]
    assert widx.rect_weight(4, 4, 0, 0) == 0  # empty rectangle


def test_gstar_subtree_queries():
    g, t = make_gstar()
    # DegSubtree(1), CrossSub(1, 3), CrossNested(2, 1) as subtree_sums rows (u, v, sub)
    got = subtree_sums(weight_index(g, t), t, [1, 1, 1], [1, 3, 2], [False, True, False])
    assert got.tolist() == [7, 6, 4]


def test_rect_weight_matches_linear_scan():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 10_000:
        g, t = random_instance(rng, 4, 14)
        pts = EdgePointSet(g, t)
        widx = WeightRangeIndex(pts.xs, pts.ys, pts.ws)
        n = g.n
        for _ in range(200):
            x1, x2 = sorted(rng.integers(0, n, size=2))
            y1, y2 = sorted(rng.integers(0, n, size=2))
            mask = (pts.xs >= x1) & (pts.xs <= x2) & (pts.ys >= y1) & (pts.ys <= y2)
            assert widx.rect_weight(x1, x2, y1, y2) == int(pts.ws[mask].sum())
            checked += 1


ENGINES = {
    "WeightRangeIndex": lambda n, xs, ys, ws: WeightRangeIndex(xs, ys, ws),
    "PoPrefixGrid": PoPrefixGrid,
}


@pytest.mark.parametrize("engine", ENGINES)
def test_rect_weights_match_brute_force_mask(engine):
    build = ENGINES[engine]
    rng = np.random.default_rng(107)
    for m in (0, 1, 2, 4, 8, 64, 256, 3, 37, 300):
        n = int(rng.integers(1, 40))
        xs = rng.integers(0, n, size=m)
        ys = rng.integers(0, n, size=m)
        ws = rng.integers(0, 1 << 32, size=m, endpoint=True)
        idx = build(n, xs, ys, ws)
        # bounds from -2 to n+1: empty, inverted and out-of-range rectangles included
        x1, x2, y1, y2 = rng.integers(-2, n + 2, size=(4, 400))
        got = idx.rect_weights(x1, x2, y1, y2)
        assert got.dtype == np.int64 and got.shape == (400,)
        for i in range(400):
            mask = (xs >= x1[i]) & (xs <= x2[i]) & (ys >= y1[i]) & (ys <= y2[i])
            assert int(got[i]) == sum(ws[mask].tolist())
        if engine == "WeightRangeIndex":
            assert idx.total == sum(ws.tolist())
        full = idx.rect_weights([-1], [n], [-1], [n])
        assert int(full[0]) == sum(ws.tolist())
    # every subtree degree, through the shared formula and the proxy filter
    rng = np.random.default_rng(105)
    for _ in range(40):
        g, t = random_instance(rng, 2, 20, wmax=1 << 32)
        pts = EdgePointSet(g, t)
        want = [cut_of_partition(g, t.subtree(v)) if v != t.root else 0 for v in range(g.n)]
        idx = build(g.n, pts.xs, pts.ys, pts.ws)
        assert tree_degrees(idx, t).tolist() == want
        assert ProxyFilter(idx, t).deg.tolist() == want


def test_weight_total_reaching_2_62_is_refused():
    g = WeightedGraph(3, [(0, 1, 1 << 61), (1, 2, 1 << 61)])
    t = build_rooted_tree(g, [(0, 1), (1, 2)], root=0)
    with pytest.raises(WeightOverflowError):
        weight_index(g, t)
    with pytest.raises(WeightOverflowError):
        min_cut_pipeline(g, "sequential", rng=1)
    g = WeightedGraph(3, [(0, 1, 1 << 61), (1, 2, (1 << 61) - 1)])
    t = build_rooted_tree(g, [(0, 1), (1, 2)], root=0)
    widx = weight_index(g, t)
    assert widx.rect_weight(0, 2, 0, 2) == (1 << 62) - 1
    assert tree_degrees(widx, t)[2] == (1 << 61) - 1


def test_merged_parallel_edges_near_2_32_stay_exact():
    cap = 1 << 32
    lines = ["p 4 9"]
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        lines += [f"{u} {v} {cap}", f"{u} {v} {cap - 1}"]
    lines.append(f"0 2 {cap}")
    g = load_graph("\n".join(lines))
    assert g.edges[0] == (0, 1, 2 * cap - 1)
    t = build_rooted_tree(g, [(0, 1), (1, 2), (2, 3)], root=0)
    widx = weight_index(g, t)
    assert tree_degrees(widx, t).tolist()[1:] == [cut_of_partition(g, t.subtree(v)) for v in (1, 2, 3)]
    # CrossNested(3, 1) and CrossNested(2, 1)
    assert subtree_sums(widx, t, [1, 1], [3, 2], [False, False]).tolist() == [2 * cap - 1, 3 * cap - 1]
    assert min_cut_pipeline(g, "sequential", rng=3)[0].value == oracle_min_cut(g).value == 4 * cap - 2


def test_deg_subtree_equals_partition_cut():
    rng = np.random.default_rng(103)
    for _ in range(30):
        g, t = random_instance(rng, 2, 12)
        widx = weight_index(g, t)
        for v in range(g.n):
            if v == t.root:
                continue
            assert int(subtree_sums(widx, t, [v], [v], [False])[0]) == cut_of_partition(g, t.subtree(v))


def test_sample_rect_exhausts_small_rectangles():
    g, t = make_gstar()
    sidx = sample_index(g, t, seed=9)
    got = sidx.sample_rect(0, 1, 2, 4, 8)
    assert sorted(int(i) for i in got) == sorted(
        i for i, (x, y) in enumerate(zip(EdgePointSet(g, t).xs, EdgePointSet(g, t).ys))
        if 0 <= x <= 1 and 2 <= y <= 4
    )
    one = sidx.sample_rect(0, 0, 2, 2, 1)
    assert len(one) == 1


def test_sample_rect_determinism_per_seed():
    rng = np.random.default_rng(11)
    g, t = random_instance(rng, 10, 14, extra=3.0)
    pts = EdgePointSet(g, t)
    a = SampleRangeIndex(pts.xs, pts.ys, np.arange(g.m), seed=42)
    b = SampleRangeIndex(pts.xs, pts.ys, np.arange(g.m), seed=42)
    c = SampleRangeIndex(pts.xs, pts.ys, np.arange(g.m), seed=43)
    assert (a.point_level == b.point_level).all()
    ra = a.sample_rect(0, g.n - 1, 0, g.n - 1, 3)
    rb = b.sample_rect(0, g.n - 1, 0, g.n - 1, 3)
    assert sorted(ra) == sorted(rb)
    assert len(a.point_level) == len(c.point_level)


def test_sample_rect_size_band_quick():
    # 512 points, k=8: the result should live in [k, 16k] essentially always.
    m = 512
    xs = np.arange(m, dtype=np.int64)
    ys = xs + m
    ids = np.arange(m, dtype=np.int64)
    bad = 0
    for seed in range(500):
        sidx = SampleRangeIndex(xs, ys, ids, seed=seed)
        out = sidx.sample_rect(0, m, 0, 2 * m, 8)
        if not (8 <= len(out) <= 128):
            bad += 1
    assert bad == 0


def test_sample_rect_rejects_bad_k():
    g, t = make_gstar()
    sidx = sample_index(g, t, seed=2)
    with pytest.raises(ValueError):
        sidx.sample_rect(0, 4, 0, 4, 0)


def test_sample_rects_match_scalar_reference(monkeypatch):
    import twocut.rangeindex as rangeindex

    rng = np.random.default_rng(104)
    for trial in range(60):
        # a few strata with disjoint ids, as the weight classes of one tree
        strata = []
        ids = rng.permutation(4000)
        for j in range(int(rng.integers(0, 4))):
            m = int(rng.integers(0, 300))
            xs = rng.integers(0, 40, size=m)
            ys = xs + rng.integers(1, 40, size=m)
            strata.append(SampleRangeIndex(xs, ys, ids[1000 * j : 1000 * j + m], seed=(trial << 6) ^ j))
        r = 50
        x1 = rng.integers(-2, 40, size=r)
        x2 = x1 + rng.integers(-3, 30, size=r)
        y1 = rng.integers(-2, 80, size=r)
        y2 = y1 + rng.integers(-3, 60, size=r)
        k = int(rng.integers(1, 20))
        if trial % 2:  # a few rows per pass
            cells = sum(ix.m for ix in strata) * int(rng.integers(1, 7))
            monkeypatch.setattr(rangeindex, "SAMPLE_CHUNK_CELLS", max(cells, 1))
        rows, got = rangeindex.sample_rects(strata, x1, x2, y1, y2, k)
        assert (np.diff(rows) >= 0).all()
        for i in range(r):
            want = [reference_sample_rect(ix, x1[i], x2[i], y1[i], y2[i], k).tolist() for ix in strata]
            assert got[rows == i].tolist() == sum(want, [])
            for ix, w in zip(strata, want):
                assert ix.sample_rect(x1[i], x2[i], y1[i], y2[i], k).tolist() == w
        monkeypatch.undo()


@pytest.mark.parametrize("wmax", [10, 1 << 32])
@pytest.mark.parametrize("shape", ["path", "star", "random"])
def test_subtree_boundary_samples_match_scalar_reference(monkeypatch, shape, wmax):
    # the rectangles Step 4 really sends: both boundary rectangles of every subtree in
    # every weight class; a path rooted at one end has the deepest subtrees, so the
    # longest runs, and small chunk caps split the pairs across passes
    import twocut.rangeindex as rangeindex

    rng = np.random.default_rng(105 + wmax % 7)
    n = 40
    tree = {
        "path": [(i, i + 1) for i in range(n - 1)],
        "star": [(0, i) for i in range(1, n)],
        "random": [(i, int(rng.integers(0, i))) for i in range(1, n)],
    }[shape]
    edges = {tuple(sorted(e)): int(rng.integers(1, wmax + 1)) for e in tree}
    while len(edges) < 6 * n:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges[u, v] = int(rng.integers(1, wmax + 1))
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])
    t = build_rooted_tree(g, tree, root=0)
    wc = build_weight_classes(g, t, seed=int(rng.integers(1 << 40)))
    us = np.delete(np.arange(n), t.root)
    k = sample_k(n, multiplier=1)  # small enough that most pairs stop above level 0
    want_e, want_id = [], []
    for right in (False, True):
        for u in us.tolist():
            a, b = int(t.lo[u]), int(t.hi[u])
            rect = (a, b, b + 1, n - 1) if right else (0, a - 1, a, b)
            for sidx in wc.classes.values():
                got = reference_sample_rect(sidx, *rect, k).tolist()
                want_e += [u] * len(got)
                want_id += got
    for cells in (None, 1, 37, 500):
        if cells is not None:
            monkeypatch.setattr(rangeindex, "SAMPLE_CHUNK_CELLS", cells)
        es, eids = sample_cross_candidates(wc, t, us, multiplier=1)
        assert es.tolist() == want_e and eids.tolist() == want_id
