"""Minimum 2-respecting cut: the five-step search over a cost provider.

Step 1 reads every single-edge cut in one batch. Step 2 decomposes the tree
into heavy paths. Step 3 runs the pair solver inside each path. Step 4
samples subtree boundaries of the provider's proxy graph to discover
cross-/down-interesting partner paths, screens them with the proxy's
1/3-filter and verifies the survivors exactly, in every model. Step 5
solves a bipartite instance per verified path pair over the marked edges;
the verified rows stay int64 arrays from the Step 4 values to
interesting.pair_solver_inputs, which hands back each instance's row and
column lists. The minimum over everything probed is the answer, with high
probability equal to the true 2-respecting minimum.

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
from .interesting import ProxyFilter, build_weight_classes, candidate_tops, pair_solver_inputs, sample_cross_candidates
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


def interest_checks(d, proxy: WeightedGraph, idx, seed):
    """Step 4 discovery for every tree edge of d's tree in one batch.

    Samples on proxy and 1/3-filters on idx, a rect_weights index over it
    under d's tree. Returns (cross, down) int64 arrays of (e, f) rows left
    for exact verification: CrossSub(e, f) and CrossNested(f, e).
    """
    t = d.tree
    wc = build_weight_classes(proxy, t, seed)
    es, eids = sample_cross_candidates(wc, t, np.delete(np.arange(t.n), t.root))
    cross, down = candidate_tops(d, es, eids, proxy)
    filt = ProxyFilter(idx, t)
    cross = cross[filt.cross_ok_many(cross[:, 0], cross[:, 1])]
    down = down[filt.down_ok_many(down[:, 0], down[:, 1])]
    return cross, down


def two_respect_plan(ctx: TreeContext, provider, seed, sink: SearchSink):
    """The five-step search for one tree, as a lockstep generator.

    Step 4 samples on provider.proxy and 1/3-filters on provider.proxy_index(ctx).
    """
    t = ctx.tree
    best = BestTracker(t)
    ledger = ProbeLedger()
    kids = t.edge_children()

    singles = yield [(ctx, DegSubtree(v)) for v in kids]
    deg = np.zeros(t.n, dtype=np.int64)
    deg[kids] = singles
    for v, val in zip(kids, singles):
        best.offer(val, TreeEdgePair(SINGLE, v))

    if len(kids) >= 2:
        d = decompose(t)

        path_solvers = []
        for path in d.paths:
            if len(path) >= 2:
                path_solvers.extend(self_pair_solvers(path, ledger))
        if path_solvers:
            yield from _drive_solvers(ctx, path_solvers, best)

        cross, down = interest_checks(d, provider.proxy, provider.proxy_index(ctx), seed)
        (ce, cf), (de, df) = cross.T.tolist(), down.T.tolist()
        reqs = [(ctx, CrossSub(e, f)) for e, f in zip(ce, cf)]
        reqs += [(ctx, CrossNested(f, e)) for e, f in zip(de, df)]
        values = yield reqs

        # 2 v > deg exactly, without doubling v in int64
        ok = np.asarray(values, dtype=np.int64) > deg[np.concatenate((cross[:, 0], down[:, 0]))] // 2
        pair_solvers = [BipartiteSolver(rows, cols, ledger) for rows, cols in pair_solver_inputs(d, cross, down, ok)]
        if pair_solvers:
            yield from _drive_solvers(ctx, pair_solvers, best)

    sink.complete(best, ledger)


def min_2respect(g: WeightedGraph, t, provider, rng=None) -> CutResult:
    """Exact minimum 2-respecting cut of (g, t) through the given provider,
    with high probability; all returned values are exact in g."""
    if g.n < 2:
        raise GraphError("no tree edge exists on a single vertex")
    ctx = TreeContext(t)
    seed = as_seed(rng)
    wc_seed = int(rng_for(seed, 7, 0).integers(1 << 62))  # the pipeline's stream for tree 0
    sink = SearchSink()
    task = two_respect_plan(ctx, provider, wc_seed, sink)
    run_lockstep([task], provider)
    provider.stats.probes += sink.probes
    pair = sink.pair
    return CutResult(sink.value, pair, reconstruct_partition(t, pair))
