"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS] line (visible with -s or in failure output).
Shipped corpus seeds are fixed constants; budget families are regenerated
deterministically per (size, seed).
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from twocut.cutquery import CutOracle, query_provider
from twocut.graph import (
    classify_pair,
    cut_of_partition,
    oracle_2respect_min,
    oracle_min_cut,
    pair_cut_value,
    reconstruct_partition,
)
from twocut.hld import decompose, top_edges_on_root_path
from twocut.interval import CostMatrixHandle, ProbeLedger, bipartite_interval, interval_self, monge_check
from twocut.packing import PipelineConfig, greedy_pack, min_cut_pipeline
from twocut.rangeindex import SampleRangeIndex, WeightRangeIndex
from twocut.reservoir import reservoir_sample
from twocut.sequential import SequentialProvider
from twocut.streaming import StreamHarness, stream_provider
from twocut.tworespect import min_2respect
from twocut.util import ceil_log2, floor_log2

from conftest import random_connected_graph, random_instance, random_spanning_tree_edges
from test_interesting import exhaustive_interest

CORPUS_SEED = 0x5EED_2C
PAIR_CORPUS_SEED = 0x5EED_7A
BUDGET_SIZES = (64, 128, 256, 512)


def corpus_200():
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for _ in range(200):
        n = int(rng.integers(4, 15))
        out.append(random_connected_graph(rng, n, extra=2.0, wmax=10))
    return out


def pair_corpus_500():
    rng = np.random.default_rng(PAIR_CORPUS_SEED)
    out = []
    for _ in range(500):
        out.append(random_instance(rng, 4, 14))
    return out


def budget_graph(n, seed):
    rng = np.random.default_rng((n << 20) ^ seed ^ 0xB1D6E7)
    return random_connected_graph(rng, n, extra=8.0, wmax=10)


@pytest.fixture(scope="module")
def corpus():
    return corpus_200()


@pytest.fixture(scope="module")
def pair_corpus():
    return pair_corpus_500()


def test_criterion_01_pipeline_exactness_three_modes(corpus):
    started = time.monotonic()
    for i, g in enumerate(corpus):
        want = oracle_min_cut(g).value
        for mode in ("sequential", "cut-query", "streaming"):
            cfg = PipelineConfig(churn=0.5) if mode == "streaming" else None
            res, _ = min_cut_pipeline(g, mode, rng=CORPUS_SEED + i, config=cfg)
            assert res.value == want, f"instance {i} mode {mode}: {res.value} != {want}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"three-mode sweep took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1a: 200 instances x 3 modes match the oracle ({elapsed:.1f}s)")

    failures = 0
    runs = 0
    for batch in range(20):
        for i, g in enumerate(corpus):
            runs += 1
            res, _ = min_cut_pipeline(g, "sequential", rng=(batch << 24) ^ (7919 * i + 13))
            if res.value != oracle_min_cut(g).value:
                failures += 1
    rate = failures / runs
    assert rate < 0.01, f"fresh-seed failure rate {rate:.4f}"
    print(f"[PASS] criterion 1b: fresh-seed failure rate {failures}/{runs}")


def test_criterion_02_two_respect_exactness_three_providers(pair_corpus):
    started = time.monotonic()
    for i, (g, t) in enumerate(pair_corpus):
        want = oracle_2respect_min(g, t).value
        seed = PAIR_CORPUS_SEED + i
        seq = min_2respect(g, t, SequentialProvider(g), rng=seed).value
        qp = query_provider(CutOracle(g), rng=np.random.default_rng(seed))
        qv = min_2respect(g, t, qp, rng=seed).value
        sp = stream_provider(StreamHarness(g, seed=seed, churn=0.5), rng=np.random.default_rng(seed))
        sv = min_2respect(g, t, sp, rng=seed).value
        assert seq == qv == sv == want, f"instance {i}: {seq}/{qv}/{sv} vs {want}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 2: 500 instances x 3 providers equal the pair oracle ({elapsed:.1f}s)")


def test_two_respect_search_ignores_rng(pair_corpus):
    # Step 4 draws nothing at random, so rng moves no value, pair or probe
    for i, (g, t) in enumerate(pair_corpus[:60]):
        runs = set()
        for rng in range(10):
            provider = SequentialProvider(g)
            res = min_2respect(g, t, provider, rng=rng)
            runs.add((res.value, res.certificate, provider.stats.probes))
        assert len(runs) == 1, f"instance {i}: {runs}"


def test_criterion_03_pair_formula_soundness(pair_corpus):
    checked = 0
    for g, t in pair_corpus:
        if g.n > 12:
            continue
        kids = t.edge_children()
        pairs = [classify_pair(t, x, y) for x, y in itertools.combinations(kids, 2)]
        from twocut.graph import TreeEdgePair

        pairs += [TreeEdgePair("single", v) for v in kids]
        for p in pairs:
            assert pair_cut_value(g, t, p) == cut_of_partition(g, reconstruct_partition(t, p))
            checked += 1
    assert checked > 10_000
    print(f"\n[PASS] criterion 3: {checked} pair formulas equal partition cuts exactly")


def _interval_instance(rng, max_points=40, max_intervals=60):
    p = int(rng.integers(2, max_points + 1))
    k = int(rng.integers(1, max_intervals + 1))
    ivals = []
    for _ in range(k):
        s, t = sorted(rng.integers(1, p + 1, size=2))
        ivals.append((int(s), int(t), int(rng.integers(1, 9))))
    return p, ivals


def _cost(ivals, i, j):
    return sum(w for s, t, w in ivals if (s <= i <= t) != (s <= j <= t))


def test_criterion_04_monotone_column_minima():
    rng = np.random.default_rng(0xC4)
    for _ in range(1000):
        p, ivals = _interval_instance(rng)
        half = (p + 1) // 2
        rows = list(range(half, 0, -1))
        cols = list(range(half + 1, p + 1))
        if not cols:
            continue
        matrix = [[_cost(ivals, i, j) for j in cols] for i in rows]
        assert monge_check(matrix)
        handle = CostMatrixHandle(rows, cols, lambda pairs: [_cost(ivals, i, j) for i, j in pairs])
        value, _, _ = bipartite_interval(handle)
        assert value == min(min(r) for r in matrix)
    print("\n[PASS] criterion 4: 1000 interval instances monge-valid, solver = exhaustive min")


def test_criterion_05_probe_budget_to_4096():
    rng = np.random.default_rng(0xC5)
    for p in (2, 3, 5, 9, 17, 33, 64, 128, 256, 512, 1024, 2048, 4096):
        count = min(2 * p, 4000)
        ss = rng.integers(1, p + 1, size=count)
        tt = rng.integers(1, p + 1, size=count)
        ww = rng.integers(1, 9, size=count)
        lo = np.minimum(ss, tt)
        hi = np.maximum(ss, tt)
        widx = WeightRangeIndex(lo, hi, ww)
        lo_l = lo.tolist()
        hi_l = hi.tolist()
        ww_l = ww.tolist()
        cover = [0] * (p + 2)
        for s, t, w in zip(lo_l, hi_l, ww_l):
            cover[s] += w
            cover[t + 1] -= w
        for i in range(1, p + 1):
            cover[i] += cover[i - 1]

        def cost_batch(pairs):
            ij = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            a, b = ij.min(axis=1), ij.max(axis=1)
            both = widx.rect_weights(np.zeros_like(a), a, b, np.full_like(b, p)).tolist()
            return [cover[i] + cover[j] - 2 * w for i, j, w in zip(a.tolist(), b.tolist(), both)]

        ledger = ProbeLedger()
        interval_self(cost_batch, list(range(1, p + 1)), ledger)
        bound = (p + 1) * (ceil_log2(p) + 1) ** 2
        assert ledger.probes <= bound, f"p={p}: {ledger.probes} > {bound}"
    print("\n[PASS] criterion 5: probe counts within (p+1)(ceil(log2 p)+1)^2 up to p=4096")


def test_criterion_06_interest_structure(pair_corpus):
    checked = 0
    for g, t in pair_corpus:
        if g.n > 12:
            continue
        checked += 1
        cross_int, down_int = exhaustive_interest(g, t)
        for e, partners in cross_int.items():
            for f1, f2 in itertools.combinations(partners, 2):
                assert not t.orthogonal(f1, f2)
            for f in partners:
                anc = int(t.parent[f])
                while anc not in (-1, t.root):
                    if t.orthogonal(e, anc):
                        assert anc in partners
                    anc = int(t.parent[anc])
        for e, partners in down_int.items():
            for f1, f2 in itertools.combinations(partners, 2):
                assert not t.orthogonal(f1, f2)
            for f in partners:
                anc = int(t.parent[f])
                while anc != e and anc != -1 and t.is_ancestor(e, anc):
                    assert anc in partners
                    anc = int(t.parent[anc])
    assert checked >= 100
    print(f"\n[PASS] criterion 6: interest single-line + ancestor closure on {checked} instances")


def test_criterion_07_hld_bound():
    rng = np.random.default_rng(0xC7)
    from twocut.graph import WeightedGraph, build_rooted_tree

    for _ in range(1000):
        n = int(rng.integers(2, 513))
        parent = [-1] + [int(rng.integers(0, v)) for v in range(1, n)]
        edges = [(parent[v], v, 1) for v in range(1, n)]
        g = WeightedGraph(n, edges)
        t = build_rooted_tree(g, [(u, v) for u, v, _ in edges], 0)
        d = decompose(t)
        bound = floor_log2(n) + 1
        for v in range(n):
            if not t.children[v]:
                assert len(top_edges_on_root_path(d, v)) <= bound
    print("\n[PASS] criterion 7: root-leaf walks meet <= floor(log2 n)+1 paths on 1000 trees")


def test_criterion_08_packing_respects_small_cuts():
    rng = np.random.default_rng(0xC8)
    hosts = 0
    while hosts < 15:
        n = int(rng.integers(4, 11))
        g = random_connected_graph(rng, n, extra=1.5, wmax=4)
        lam = oracle_min_cut(g).value
        k = math.ceil(3 * lam * math.log(max(g.m, 2)))
        if k > 500:
            continue
        hosts += 1
        packing = greedy_pack(g, k)
        trees = [set(tr) for tr in packing.trees]
        ids = {(u, v): eid for eid, (u, v, _) in enumerate(g.edges)}
        for mask in range(1, 1 << (n - 1)):
            side = {v for v in range(n - 1) if (mask >> v) & 1}
            if cut_of_partition(g, side) > 1.1 * lam:
                continue
            crossing = {eid for (u, v), eid in ids.items() if (u in side) != (v in side)}
            good = sum(1 for tr in trees if len(crossing & tr) <= 2)
            assert good >= math.ceil(k / 3), f"cut {side} respects only {good}/{k}"
    print("\n[PASS] criterion 8: near-minimum cuts 2-respect >= 1/3 of greedy packings")


def test_criterion_09_query_budget_and_scaling():
    medians = {}
    for n in BUDGET_SIZES:
        lg = ceil_log2(n)
        budget = 50 * n * lg**3
        ratios = []
        for seed in range(10):
            g = budget_graph(n, seed)
            _, stats = min_cut_pipeline(g, "cut-query", rng=seed)
            assert stats.queries <= budget, f"n={n} seed={seed}: {stats.queries} > {budget}"
            ratios.append(stats.queries / (n * lg**3))
        medians[n] = statistics.median(ratios)
    line = " ".join(f"{n}:{medians[n]:.3f}" for n in BUDGET_SIZES)
    for a, b in zip(BUDGET_SIZES, BUDGET_SIZES[1:]):
        assert medians[b] <= medians[a] + 1e-9, f"ratio grew {a}->{b}: {line}"
    print(f"\n[PASS] criterion 9: query budgets hold; median ratios non-increasing ({line})")


def test_criterion_10_stream_budgets_and_churn_invariance():
    for n in BUDGET_SIZES:
        lg = ceil_log2(n)
        for seed in range(2):
            g = budget_graph(n, seed)
            res_churn, stats = min_cut_pipeline(
                g, "streaming", rng=seed, config=PipelineConfig(churn=0.5)
            )
            assert stats.passes <= 12 + 6 * lg, f"n={n}: {stats.passes} passes"
            assert stats.tracked_words <= 50 * n * lg**3
            res_plain, _ = min_cut_pipeline(
                g, "streaming", rng=seed, config=PipelineConfig(churn=0.0)
            )
            assert res_churn.value == res_plain.value
    print("\n[PASS] criterion 10: stream pass/word budgets hold; churn leaves values unchanged")


def test_criterion_11_sampler_statistics():
    rng = np.random.default_rng(0xC11)
    npts = 256
    xs = np.arange(npts, dtype=np.int64)
    ys = xs + npts
    ids = np.arange(npts, dtype=np.int64)
    k = 16
    trials = 50_000
    hits = np.zeros(npts, dtype=np.int64)
    for s in range(trials):
        idx = SampleRangeIndex(xs, ys, ids, seed=s)
        got = idx.sample_rect(0, npts, 0, 2 * npts, k)
        hits[np.asarray(got, dtype=np.int64)] += 1
    freq = hits / trials
    spread = float(np.abs(freq - freq.mean()).max())
    assert spread <= 0.03, f"uniformity spread {spread:.4f}"

    big = 600  # > 16k points so the band [k, 16k] is the binding constraint
    bx = np.arange(big, dtype=np.int64)
    by = bx + big
    bid = np.arange(big, dtype=np.int64)
    bad = 0
    for s in range(10_000):
        idx = SampleRangeIndex(bx, by, bid, seed=(s << 1) ^ 0xA5)
        got = idx.sample_rect(0, big, 0, 2 * big, k)
        if not (k <= len(got) <= 16 * k):
            bad += 1
    assert bad / 10_000 < 1e-3, f"{bad} size-band violations"

    gen = np.random.default_rng(0xE5E)
    trials = 100_000
    hold = np.zeros(30)
    for _ in range(trials):
        for item in reservoir_sample(range(30), 3, gen):
            hold[item] += 1
    dev = float(np.abs(hold / trials - 0.1).max())
    assert dev <= 0.01, f"reservoir marginal deviation {dev:.4f}"
    print(
        f"\n[PASS] criterion 11: sampler uniformity {spread:.4f}<=0.03, "
        f"band violations {bad}/10000, reservoir dev {dev:.4f}<=0.01"
    )


def test_criterion_12_provider_equivalence(corpus):
    rng = np.random.default_rng(0xC12)
    for i, g in enumerate(corpus):
        from twocut.graph import build_rooted_tree

        t = build_rooted_tree(g, random_spanning_tree_edges(g, rng), int(rng.integers(0, g.n)))
        seed = 0xC12 + i
        a = min_2respect(g, t, SequentialProvider(g), rng=seed).value
        qp = query_provider(CutOracle(g), rng=np.random.default_rng(seed))
        b = min_2respect(g, t, qp, rng=seed).value
        sp = stream_provider(StreamHarness(g, seed=seed, churn=0.5), rng=np.random.default_rng(seed))
        c = min_2respect(g, t, sp, rng=seed).value
        assert a == b == c, f"instance {i}: {a}/{b}/{c}"
    print("\n[PASS] criterion 12: identical minimum values across the three providers")
