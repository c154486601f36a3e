"""Greedy tree packing, skeleton sampling, and the full min-cut pipeline.

A greedy packing makes each tree a minimum spanning tree under the loads
its predecessors put on the edges (load compared per unit of weight, ties
by edge id). Any cut close to the minimum must 2-respect a constant
fraction of a long enough packing, so solving the 2-respecting problem on
every packed tree and keeping the best answer finds the global minimum cut
with high probability. The skeleton step thins heavy graphs first so the
packing stays logarithmic; guessed thinning rates that turn out wrong cost
work, never correctness, because every candidate value is evaluated exactly
in the input graph.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import (CutResult, DisconnectedError, GraphError, RootedSpanTree, WeightedGraph, build_rooted_tree,
                    reconstruct_partition)
from .provider import TreeContext, run_lockstep
from .proxy import build_proxy_graph, check_eps, first_leaving, peel_forests
from .requests import DegSubtree
from .sequential import SequentialProvider
from .tworespect import SearchSink, tree_seed, two_respect_plan
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

    def tree_edges(self, i):
        eids = self.trees[i]
        return list(zip(self.host.eu[eids].tolist(), self.host.ev[eids].tolist()))


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


def lambda_schedule(host: WeightedGraph):
    """Halving guesses from the min weighted degree down to its 1/(2n) floor."""
    if host.n < 2:
        raise GraphError("no cut to guess on a single vertex")
    top = host.min_weighted_degree()
    floor = max(1, top // (2 * host.n))
    out = []
    guess = max(1, top)
    while True:
        out.append(guess)
        if guess <= floor:
            break
        guess = max(floor, guess // 2)
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

    Each guess packs trees_override trees, or ceil(c2 ln n) when it is None.
    Guesses whose skeleton rate saturates at 1 share one exact packing, and
    identical trees are solved once; every distinct packed tree is run.
    """
    schedule = lambda_schedule(host)
    k = trees_override
    if k is None:
        k = max(1, math.ceil(TREES_FACTOR * math.log(max(host.n, 2))))
    unique = []
    seen = set()
    packed_total = 0
    exact_done = False
    for j, guess in enumerate(schedule):
        p = skeleton_rate(host.n, eps, guess)
        if p >= 1:
            if exact_done:
                continue
            exact_done = True
            skel = Skeleton(host, 1.0, guess)
        else:
            skel = build_skeleton(host, eps, guess, rng_for(seed, 3, j))
        packing = greedy_pack(skel.graph, k)
        packed_total += k
        for i in range(k):
            edges = tuple(sorted(packing.tree_edges(i)))
            if edges not in seen:
                seen.add(edges)
                unique.append(edges)
    return unique, schedule, packed_total


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
        if provider.batch_eval([(TreeContext(RootedSpanTree(g.n, root, parent)), DegSubtree(0))]) != [0]:
            raise DisconnectedError("sparsifier is not connected")
        provider.stats.wall_ms = int((time.monotonic() - started) * 1000)
        return CutResult(0, None, frozenset(side)), provider.stats
    trees, schedule, packed_total = trees_to_run(host, eps, seed, cfg.trees_override)

    tasks = []
    sinks = []
    ctxs = []
    for ti, edges in enumerate(trees):
        t = build_rooted_tree(g, edges, root=0)
        ctx = TreeContext(t)
        sink = SearchSink()
        tasks.append(two_respect_plan(ctx, provider, tree_seed(seed, ti), sink))
        sinks.append(sink)
        ctxs.append(ctx)
    run_lockstep(tasks, provider)

    sink, ctx = min(zip(sinks, ctxs), key=lambda sink_ctx: sink_ctx[0].value)  # the first least value
    stats = provider.stats
    stats.probes += sum(s.probes for s in sinks)
    stats.trees_packed = packed_total
    stats.lambda_guesses = len(schedule)
    stats.wall_ms = int((time.monotonic() - started) * 1000)
    return CutResult(sink.value, sink.pair, reconstruct_partition(ctx.tree, sink.pair)), stats
