"""Range index: exact rectangle sums, subtree queries, level sampling."""

import numpy as np
import pytest

from twocut.grid import PoPrefixGrid
from twocut.interesting import ProxyFilter
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


def test_sample_rect_matches_scalar_reference():
    # bounds below 0 and past the span, empty and inverted rectangles, 0 to 300 points
    rng = np.random.default_rng(104)
    for trial in range(60):
        m = int(rng.integers(0, 301))
        xs = rng.integers(0, 40, size=m)
        ys = xs + rng.integers(1, 40, size=m)
        sidx = SampleRangeIndex(xs, ys, rng.permutation(4000)[:m], seed=trial)
        r = 50
        x1 = rng.integers(-2, 40, size=r)
        x2 = x1 + rng.integers(-3, 30, size=r)
        y1 = rng.integers(-2, 80, size=r)
        y2 = y1 + rng.integers(-3, 60, size=r)
        k = int(rng.integers(1, 20))
        for rect in zip(x1, x2, y1, y2):
            assert sidx.sample_rect(*rect, k).tolist() == reference_sample_rect(sidx, *rect, k).tolist()


def test_sample_index_rejects_ragged_columns():
    with pytest.raises(ValueError, match="differ in length"):
        SampleRangeIndex([0, 1], [5, 6], [7, 8, 9], seed=1)


def test_weight_index_rejects_ragged_columns():
    with pytest.raises(ValueError, match="differ in length"):
        WeightRangeIndex([0, 1], [2, 3], [1, 2, 3])
