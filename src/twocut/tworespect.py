"""Minimum 2-respecting cut: the five-step search over a cost provider.

Step 1 reads every single-edge cut in one batch. Step 2 decomposes the tree
into heavy paths. Step 3 runs the pair solver inside each path. Step 4
samples subtree boundaries to discover cross-/down-interesting partner
paths and verifies them exactly (through a sparsifier 1/3-filter first when
the provider carries one). Step 5 solves a bipartite instance per verified
path pair over the marked edges. The minimum over everything probed is the
answer, with high probability equal to the true 2-respecting minimum.

The search is a generator yielding (context, request) batches. Each yield is
one synchronous round: under the stream provider one pass, under the query
provider one batch of counted cuts. Probes of all active solvers at one
recursion depth travel in the same round, and a pipeline may interleave the
rounds of many trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import (
    SINGLE,
    CutResult,
    GraphError,
    TreeEdgePair,
    WeightedGraph,
    classify_pair,
    pair_tie_key,
    reconstruct_partition,
)
from .hld import decompose
from .interesting import (
    CROSS,
    DOWN,
    DEFAULT_SAMPLE_MULTIPLIER,
    PairAccumulator,
    ProxyFilter,
    build_weight_classes,
    candidate_tops,
    sample_cross_candidates,
)
from .interval import BipartiteSolver, ProbeLedger, self_pair_solvers
from .provider import TreeContext, run_lockstep
from .requests import CrossNested, CrossSub, DegSubtree, PairCut
from .util import as_seed, rng_for


class BestTracker:
    """Monotone minimum register with the deterministic pair tie rule."""

    def __init__(self, tree):
        self.tree = tree
        self.key = None
        self.value = None
        self.pair = None

    def offer(self, value, pair: TreeEdgePair):
        key = (value,) + pair_tie_key(self.tree, pair)
        if self.key is None or key < self.key:
            self.key = key
            self.value = value
            self.pair = pair


@dataclass
class SearchSink:
    """Filled in when a tree's search completes."""

    value: Optional[int] = None
    pair: Optional[TreeEdgePair] = None
    probes: int = 0

    def complete(self, best: BestTracker, ledger: ProbeLedger):
        self.value = best.value
        self.pair = best.pair
        self.probes = ledger.probes


def _drive_solvers(ctx: TreeContext, solvers, best: BestTracker):
    """Advance bipartite solvers in lockstep; one yielded batch per depth.

    Every probe is itself a genuine 2-respecting cut value, so the tracker
    sees each one as it streams through.
    """
    t = ctx.tree
    live = list(solvers)
    while live:
        batch = []
        spans = []
        for s in live:
            pairs = [classify_pair(t, a, b) for a, b in s.requests()]
            spans.append((s, pairs))
            batch.extend((ctx, PairCut(p)) for p in pairs)
        values = yield batch
        pos = 0
        survivors = []
        for s, pairs in spans:
            vals = values[pos : pos + len(pairs)]
            pos += len(pairs)
            for p, v in zip(pairs, vals):
                best.offer(v, p)
            s.advance(vals)
            if not s.done():
                survivors.append(s)
        live = survivors


def interest_checks(d, sample_graph: WeightedGraph, proxy, seed, multiplier=DEFAULT_SAMPLE_MULTIPLIER):
    """Step 4 discovery for every tree edge of d's tree in one batch.

    Returns (cross, down) int64 arrays of (e, f) rows left for exact
    verification: CrossSub(e, f) and CrossNested(f, e) respectively.
    """
    t = d.tree
    wc = build_weight_classes(sample_graph, t, seed)
    es, eids = sample_cross_candidates(wc, t, np.delete(np.arange(t.n), t.root), multiplier)
    cross, down = candidate_tops(d, es, eids, sample_graph)
    if proxy is not None:
        filt = ProxyFilter(proxy, t)
        cross = cross[filt.cross_ok_many(cross[:, 0], cross[:, 1])]
        down = down[filt.down_ok_many(down[:, 0], down[:, 1])]
    return cross, down


def two_respect_plan(ctx: TreeContext, sample_graph: WeightedGraph, proxy, seed, sink: SearchSink):
    """The five-step search for one tree, as a lockstep generator.

    sample_graph backs candidate sampling (the sparsifier when values are
    expensive, the graph itself in-memory); proxy, when not None, activates
    the local 1/3 pre-filter before exact verification.
    """
    t = ctx.tree
    best = BestTracker(t)
    ledger = ProbeLedger()
    kids = t.edge_children()

    singles = yield [(ctx, DegSubtree(v)) for v in kids]
    deg = dict(zip(kids, singles))
    for v, val in deg.items():
        best.offer(val, TreeEdgePair(SINGLE, v))

    if len(kids) >= 2:
        d = decompose(t)

        path_solvers = []
        for path in d.paths:
            if len(path) >= 2:
                path_solvers.extend(self_pair_solvers(path, ledger))
        if path_solvers:
            yield from _drive_solvers(ctx, path_solvers, best)

        cross, down = interest_checks(d, sample_graph, proxy, seed)
        (ce, cf), (de, df) = cross.T.tolist(), down.T.tolist()
        reqs = [(ctx, CrossSub(e, f)) for e, f in zip(ce, cf)]
        reqs += [(ctx, CrossNested(f, e)) for e, f in zip(de, df)]
        values = yield reqs

        acc = PairAccumulator(d)
        path_of = d._path_of
        for e, f, v in zip(ce, cf, values[: len(ce)]):
            if 2 * v > deg[e]:
                acc.accumulate(path_of[e], path_of[f], e, CROSS)
        for e, f, v in zip(de, df, values[len(ce) :]):
            if 2 * v > deg[e]:
                acc.accumulate(path_of[e], path_of[f], e, DOWN)

        pair_solvers = []
        for p, marks_p, q, marks_q, kind in acc.drain():
            if kind == CROSS:
                if marks_p and marks_q:
                    pair_solvers.append(BipartiteSolver(marks_p, marks_q, ledger))
            else:
                top = marks_p[0]
                cols = [f for f in d.paths[q] if t._lo[top] <= t._lo[f] and t._hi[f] <= t._hi[top]]
                if cols:
                    pair_solvers.append(BipartiteSolver(list(reversed(marks_p)), cols, ledger))
        if pair_solvers:
            yield from _drive_solvers(ctx, pair_solvers, best)

    sink.complete(best, ledger)


def sampling_source(provider, g: WeightedGraph):
    """(sample_graph, proxy): discovery runs on the sparsifier when the
    provider carries one, directly on the graph otherwise."""
    proxy = provider.proxy_graph()
    if proxy is not None:
        return proxy, proxy
    return g, None


def min_2respect(g: WeightedGraph, t, provider, rng=None) -> CutResult:
    """Exact minimum 2-respecting cut of (g, t) through the given provider,
    with high probability; all returned values are exact in g."""
    if g.n < 2:
        raise GraphError("no tree edge exists on a single vertex")
    ctx = TreeContext(t)
    sample_graph, proxy = sampling_source(provider, g)
    seed = as_seed(rng)
    wc_seed = int(rng_for(seed, 7, 0).integers(1 << 62))  # the pipeline's stream for tree 0
    sink = SearchSink()
    task = two_respect_plan(ctx, sample_graph, proxy, wc_seed, sink)
    run_lockstep([task], provider)
    provider.stats.probes += sink.probes
    pair = sink.pair
    return CutResult(sink.value, pair, reconstruct_partition(t, pair))
