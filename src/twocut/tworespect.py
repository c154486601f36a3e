"""Minimum 2-respecting cut: the five-step search over a cost provider.

Step 1 reads every single-edge cut in one batch. Step 2 decomposes the tree
into heavy paths. Step 3 runs one pair solver over the split halves of every
path. Step 4 samples subtree boundaries of the provider's proxy graph to
discover cross-/down-interesting partner paths, screens them with the proxy's
1/3-filter and verifies the survivors exactly, in every model. Step 5
runs one pair solver over a bipartite instance per verified path pair;
the verified rows stay int64 arrays from the Step 4 values to
interesting.pair_solver_inputs, which hands back each instance's row and
column lists. The minimum over everything probed is the answer, with high
probability equal to the true 2-respecting minimum.

The search is a generator yielding (context, request) batches. Each yield is
one synchronous round: under the stream provider one pass, under the query
provider one batch of counted cuts. The probes of every instance at one
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
from .interval import BipartiteSolver, ProbeLedger, self_pair_instances
from .provider import TreeContext, run_lockstep
from .requests import CrossNested, CrossSub, DegSubtree, PairCut
from .util import as_seed, rng_for


@dataclass
class SearchSink:
    """The least probe of a tree's search, with the deterministic pair tie
    rule, and its probe count once the search completes."""

    value: Optional[int] = None
    pair: Optional[TreeEdgePair] = None
    probes: int = 0

    def offer(self, tree, values, pairs):
        """Fold in one round: its least value, and among those pairs the least pair_tie_key;
        (value,) + pair_tie_key is a total order, so probe by probe gives the same."""
        v = min(values)
        p = min((p for p, x in zip(pairs, values) if x == v), key=lambda p: pair_tie_key(tree, p))
        if self.value is None or (v, pair_tie_key(tree, p)) < (self.value, pair_tie_key(tree, self.pair)):
            self.value, self.pair = v, p


def _drive_solvers(ctx: TreeContext, solver: BipartiteSolver, sink: SearchSink):
    """Run the solver's frontier; one yielded batch per depth.

    Every probe is itself a genuine 2-respecting cut value, so the sink
    sees each round as it streams through.
    """
    t = ctx.tree
    while not solver.done():
        pairs = [classify_pair(t, a, b) for a, b in solver.requests()]
        values = yield [(ctx, PairCut(p)) for p in pairs]
        sink.offer(t, values, pairs)
        solver.advance(values)


def interest_checks(d, proxy: WeightedGraph, idx, seed, deg=None):
    """Step 4 discovery for every tree edge of d's tree in one batch.

    Samples on proxy and 1/3-filters on idx, a rect_weights index over it
    under d's tree, with deg the proxy's subtree degrees when known (see
    ProxyFilter). Returns (cross, down) int64 arrays of (e, f) rows left
    for exact verification: CrossSub(e, f) and CrossNested(f, e).
    """
    t = d.tree
    classes = build_weight_classes(proxy, t, seed)
    es, eids = sample_cross_candidates(classes, t, np.delete(np.arange(t.n), t.root))
    cross, down = candidate_tops(d, es, eids, proxy)
    filt = ProxyFilter(idx, t, deg)
    cross = cross[filt.cross_ok_many(cross[:, 0], cross[:, 1])]
    down = down[filt.down_ok_many(down[:, 0], down[:, 1])]
    return cross, down


def tree_seed(seed, ti) -> int:
    """Step 4's sampling seed for tree ti of a pipeline run from `seed`."""
    return int(rng_for(seed, 7, ti).integers(1 << 62))


def two_respect_plan(ctx: TreeContext, provider, seed, sink: SearchSink):
    """The five-step search for one tree, as a lockstep generator.

    Step 4 samples on provider.proxy and 1/3-filters on provider.proxy_index(ctx),
    reusing provider.proxy_degrees(ctx).
    """
    t = ctx.tree
    ledger = ProbeLedger()
    kids = t.edge_children()

    singles = yield [(ctx, DegSubtree(v)) for v in kids]
    deg = np.zeros(t.n, dtype=np.int64)
    deg[kids] = singles
    sink.offer(t, singles, [TreeEdgePair(SINGLE, v) for v in kids])

    if len(kids) >= 2:
        d = decompose(t)

        path_instances = [inst for path in d.paths for inst in self_pair_instances(path)]
        if path_instances:
            yield from _drive_solvers(ctx, BipartiteSolver(path_instances, ledger), sink)

        cross, down = interest_checks(d, provider.proxy, provider.proxy_index(ctx), seed,
                                      provider.proxy_degrees(ctx))
        (ce, cf), (de, df) = cross.T.tolist(), down.T.tolist()
        reqs = [(ctx, CrossSub(e, f)) for e, f in zip(ce, cf)]
        reqs += [(ctx, CrossNested(f, e)) for e, f in zip(de, df)]
        values = yield reqs

        # 2 v > deg exactly, without doubling v in int64
        ok = np.asarray(values, dtype=np.int64) > deg[np.concatenate((cross[:, 0], down[:, 0]))] // 2
        pair_instances = pair_solver_inputs(d, cross, down, ok)
        if pair_instances:
            yield from _drive_solvers(ctx, BipartiteSolver(pair_instances, ledger), sink)

    sink.probes = ledger.probes


def min_2respect(g: WeightedGraph, t, provider, rng=None) -> CutResult:
    """Exact minimum 2-respecting cut of (g, t) through the given provider,
    with high probability; all returned values are exact in g."""
    if g.n < 2:
        raise GraphError("no tree edge exists on a single vertex")
    ctx = TreeContext(t)
    seed = as_seed(rng)
    sink = SearchSink()
    task = two_respect_plan(ctx, provider, tree_seed(seed, 0), sink)  # the pipeline's tree 0
    run_lockstep([task], provider)
    provider.stats.probes += sink.probes
    pair = sink.pair
    return CutResult(sink.value, pair, reconstruct_partition(t, pair))
