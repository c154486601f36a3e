"""Greedy tree packing, skeleton sampling, and the full min-cut pipeline.

A greedy packing makes each tree a minimum spanning tree under the loads
its predecessors put on the edges (load compared per unit of weight, ties
by edge id). Any cut close to the minimum must 2-respect a constant
fraction of a long enough packing, so solving the 2-respecting problem on
every packed tree and keeping the best answer finds the global minimum cut
with high probability. The skeleton step thins heavy graphs first so the
packing stays logarithmic. Its rate needs a guess within a factor 2 of the
min cut lambda; Matula's approximation brackets lambda within 2.1 on the
host at no query, pass or word, so at most three halvings are packed. A
wrong guess costs work, never correctness, because every candidate value is
evaluated exactly in the input graph.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# build_rooted_tree is perfbench's tracer hook; the pipeline roots all its trees with root_trees
from .graph import (CutResult, DisconnectedError, GraphError, RootedSpanTree, WeightedGraph, build_rooted_tree,
                    reconstruct_partition, root_trees)
from .hld import PathStack
from .provider import run_lockstep
from .proxy import build_proxy_graph, check_eps, first_leaving, peel_forests
from .requests import DegSubtree
from .sequential import SequentialProvider
from .tworespect import SearchSink, step4_rows, two_respect_plan
from .util import DisjointSets, as_seed, ceil_log2, rng_for

MODES = ("sequential", "cut-query", "streaming")

SKELETON_RATE_FACTOR = 12.0  # c1 in p = min(1, c1 ln n / (eps^2 guess))
TREES_FACTOR = 6.0           # c2 in k = ceil(c2 ln n)
SPARSIFY_FACTOR = 4.0        # sparsify in memory when m > factor * n * log2(n)^2
TRACKED_WORDS_FACTOR = 50.0  # c5 in the stream space budget


@dataclass
class PipelineConfig:
    """Run settings: the stream's churn (extra insert/delete pairs per edge,
    streaming mode only) and, when set, a fixed packed-tree count per guess
    in place of ceil(c2 ln n)."""

    churn: float = 0.0
    trees_override: Optional[int] = None


@dataclass
class TreePacking:
    """Greedily packed spanning trees of a host graph.

    trees[i] holds host edge ids; loads[e] counts the trees using e.
    """

    host: WeightedGraph
    trees: list = field(default_factory=list)
    loads: list = field(default_factory=list)


@dataclass
class Skeleton:
    graph: WeightedGraph
    rate: float
    lambda_guess: int


def greedy_pack(host: WeightedGraph, k: int) -> TreePacking:
    """k spanning trees, each an MST under current per-unit-weight loads.

    Each tree is one peel_forests forest, over the host's edges ordered by
    (load / weight, edge id); zero-weight edges absorb nothing and go last.
    """
    if host.n < 2:
        raise GraphError("packing needs at least one edge")
    if not host.is_connected():
        raise GraphError("host must be connected")
    w, loads, trees = host.ew, np.zeros(host.m, dtype=np.int64), []
    heavy = np.flatnonzero(w >= 1 << 53)  # float64(w) rounds: these take Python's exact int / int
    for _ in range(k):
        keys = np.divide(loads, w, out=np.full(host.m, math.inf), where=w > 0)
        keys[heavy] = [a / b for a, b in zip(loads[heavy].tolist(), w[heavy].tolist())]
        order = np.argsort(keys, kind="stable")  # ties by edge id
        u, v = host.eu[order], host.ev[order]
        forest = peel_forests(host.n, lambda sweep, labels, live: first_leaving(u, v, True, labels),
                              lambda forest: None, 1, 1, host.n, [])
        tree = np.sort(order[[i for _, _, i in forest]])
        loads[tree] += 1
        trees.append(tree.tolist())
    return TreePacking(host, trees, loads.tolist())


def approx_min_cut(host: WeightedGraph) -> int:
    """Matula's (2+eps)-approximation at eps = 0.1: lambda <= alpha <= 2.1 lambda.

    Each phase takes the least degree d of the contracted graph (a cut, so
    lambda <= d), runs one maximum-adjacency order and contracts each edge
    whose attachment q (its later end's weight from the scanned set, this
    edge included) has 21 q >= 10 d. As lambda(u, v) >= q (Nagamochi-Ibaraki),
    d <= 2.1 lambda in the phase that first contracts a minimum cut edge; an
    uncontracted minimum cut is the last d. alpha is the least d; zero-weight
    edges are skipped, so positive edges that leave the host disconnected give 0.
    """
    ds, alpha = DisjointSets(host.n), host.total_weight
    while ds.count > 1 and alpha > 0:
        adj = {ds.find(v): defaultdict(int) for v in range(host.n)}
        for u, v, w in host.edges:
            a, b = ds.find(u), ds.find(v)
            if a != b and w:
                adj[a][b] += w
                adj[b][a] += w
        d = min(sum(nb.values()) for nb in adj.values())
        alpha = min(alpha, d)
        reach, heap, scanned = dict.fromkeys(adj, 0), sorted((0, x) for x in adj), set()
        while heap:
            x = heapq.heappop(heap)[1]
            if x not in scanned:
                scanned.add(x)
                for y, w in adj[x].items():
                    if y not in scanned:
                        reach[y] += w
                        heapq.heappush(heap, (-reach[y], y))
                        if 21 * reach[y] >= 10 * d:
                            ds.union(x, y)
    return alpha


def lambda_schedule(host: WeightedGraph, eps):
    """Guesses of lambda to pack; Karger's reduction needs one in [lambda/2, lambda].

    If the least weighted degree saturates the skeleton rate, so does every
    smaller guess, and [that degree] is the one exact packing. Otherwise
    approx_min_cut brackets lambda in [alpha / 2.1, alpha], and alpha,
    alpha // 2, alpha // 4 while 42 g >= 10 alpha (at most three guesses,
    cut after the first saturated one) hold such a guess for every integer
    lambda in the bracket.
    """
    if host.n < 2:
        raise GraphError("no cut to guess on a single vertex")
    top = max(1, host.min_weighted_degree())
    if skeleton_rate(host.n, eps, top) >= 1:
        return [top]
    alpha = approx_min_cut(host)
    out = [max(1, alpha)]
    while 42 * (out[-1] // 2) >= 10 * alpha and skeleton_rate(host.n, eps, out[-1]) < 1:
        out.append(out[-1] // 2)
    return out


def skeleton_rate(n, eps, lambda_guess) -> float:
    return min(1.0, SKELETON_RATE_FACTOR * math.log(max(n, 2)) / (eps * eps * lambda_guess))


def build_skeleton(host: WeightedGraph, eps, lambda_guess, rng) -> Skeleton:
    """Thin the host: per edge a binomial sample of its weight units.

    Disconnected samples retry with a doubled rate; reaching rate 1 returns
    the host itself.
    """
    if lambda_guess < 1:
        raise ValueError("lambda guess must be >= 1")
    p = skeleton_rate(host.n, eps, lambda_guess)
    retries = max(1, ceil_log2(max(2, math.ceil(1.0 / p))) + 1) if p < 1 else 1
    for _ in range(retries):
        if p >= 1:
            return Skeleton(host, 1.0, lambda_guess)
        weights = rng.binomial(host.ew, p)
        keep = weights > 0
        try:
            skel = WeightedGraph(host.n, zip(host.eu[keep].tolist(), host.ev[keep].tolist(), weights[keep].tolist()))
            return Skeleton(skel, p, lambda_guess)
        except GraphError:
            p = min(1.0, 2 * p)
    raise GraphError("skeleton stayed disconnected after rate doubling")


def trees_to_run(host: WeightedGraph, eps, seed, trees_override=None):
    """Packed trees across the guess schedule, deduplicated.

    Each guess packs trees_override trees, or ceil(c2 ln n) when it is None;
    a guess whose skeleton rate saturates packs the host itself. Identical
    trees are solved once; every distinct packed tree is run.
    """
    schedule = lambda_schedule(host, eps)
    k = trees_override
    if k is None:
        k = max(1, math.ceil(TREES_FACTOR * math.log(max(host.n, 2))))
    keys = []
    for j, guess in enumerate(schedule):
        packing = greedy_pack(build_skeleton(host, eps, guess, rng_for(seed, 3, j)).graph, k)
        eids = np.asarray(packing.trees, dtype=np.int64)
        keys.append(np.sort(packing.host.eu[eids] * host.n + packing.host.ev[eids], axis=1))
    keys = np.concatenate(keys)
    first = np.sort(np.unique(keys, axis=0, return_index=True)[1])  # first seen order
    return keys[first], schedule, len(keys)


def _providers_for(g, mode, eps, seed, churn):
    if mode == "sequential":
        provider = SequentialProvider(g)
        threshold = SPARSIFY_FACTOR * g.n * max(1, ceil_log2(max(g.n, 2))) ** 2
        host = build_proxy_graph(g, eps) if g.m > threshold else g
        return provider, host
    if mode == "cut-query":
        from .cutquery import CutOracle, QueryProvider
        oracle = CutOracle(g)
        proxy = build_proxy_graph(oracle, eps)
        return QueryProvider(oracle, proxy), proxy
    if mode == "streaming":
        from .streaming import StreamHarness, StreamProvider
        harness = StreamHarness(g, seed=seed, churn=churn, words_budget=_words_budget(g.n))
        proxy = build_proxy_graph(harness, eps)
        return StreamProvider(harness, proxy), proxy
    raise ValueError(f"unknown mode {mode!r}; pick one of {MODES}")


def _words_budget(n):
    # asymptotic budget; tiny instances are floored because fixed sketch
    # overhead dominates them
    n_eff = max(n, 32)
    lg = max(1, ceil_log2(n_eff))
    return int(TRACKED_WORDS_FACTOR * n_eff * lg**3)


def min_cut_pipeline(g: WeightedGraph, mode="sequential", eps=0.1, rng=None,
                     config: Optional[PipelineConfig] = None):
    """Global minimum cut, with high probability, under the chosen model.

    Returns (CutResult, RunStats). Wrong skeleton guesses only add work:
    every candidate cut value is evaluated exactly in g.
    """
    if g.n < 2:
        raise GraphError("no cut exists on a single vertex")
    g.check_weight_sum()
    check_eps(g.n, eps)
    cfg = config or PipelineConfig()
    if cfg.trees_override is not None and cfg.trees_override < 1:
        raise ValueError(f"the packed tree count must be at least 1, got {cfg.trees_override}")
    if not (math.isfinite(cfg.churn) and cfg.churn >= 0):
        raise ValueError(f"churn must be finite and nonnegative, got {cfg.churn}")
    seed = as_seed(rng)
    started = time.monotonic()

    provider, host = _providers_for(g, mode, eps, seed, cfg.churn)
    if not host.is_connected():
        # sparsifiers keep no zero-weight edge, so they may come out disconnected:
        # the cut of the component of vertex 0, hung below 0, is one DegSubtree
        ds = DisjointSets(g.n)
        for u, v, _ in host.edges:
            ds.union(u, v)
        side = {v for v in range(g.n) if ds.find(v) == ds.find(0)}
        root = min(set(range(g.n)) - side)
        parent = [0 if v in side else root for v in range(g.n)]
        parent[0], parent[root] = root, -1
        if provider.batch_eval([(RootedSpanTree(g.n, root, parent), DegSubtree(0))]) != [0]:
            raise DisconnectedError("sparsifier is not connected")
        provider.stats.wall_ms = int((time.monotonic() - started) * 1000)
        return CutResult(0, None, frozenset(side)), provider.stats
    trees, schedule, packed_total = trees_to_run(host, eps, seed, cfg.trees_override)

    stack = root_trees(g, trees, 0)
    stack.paths = PathStack(stack)  # every tree rooted and decomposed at once
    trees, sink = stack.trees(), SearchSink()
    provider.admit(trees)
    rows = step4_rows(provider, trees)  # Step 4 discovery reads no search value
    run_lockstep(two_respect_plan(trees, sink, rows), provider)  # one search over every tree

    t, stats = trees[sink.tree], provider.stats  # the first tree with the least value
    stats.probes += sink.probes
    stats.trees_packed = packed_total
    stats.lambda_guesses = len(schedule)
    stats.wall_ms = int((time.monotonic() - started) * 1000)
    return CutResult(sink.value, sink.pair, reconstruct_partition(t, sink.pair)), stats
