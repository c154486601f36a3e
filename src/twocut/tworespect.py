"""Minimum 2-respecting cut: the five-step search over a cost provider.

Step 2 decomposes the tree into heavy paths, before Step 1 reads every
single-edge cut in one batch. Step 3 runs one pair solver over the split
halves of every path. Step 4 walks the root lines of each subtree's tertile
witnesses on the provider's proxy to discover cross-/down-interesting partner
paths and screens them with the proxy's 1/3-filter, once per group of trees
(Step4Batch); each tree's survivors are verified exactly, in every model.
Step 5 runs one pair solver over a bipartite instance per verified path pair;
the verified rows stay int64 arrays from the Step 4 values to
interesting.pair_solver_inputs, which hands back each instance's row and
column lists. The minimum over everything probed is the answer.
No step samples: it is the true 2-respecting minimum whenever the 1/3
filter keeps every true partner, always on the graph itself and on a
sparsifier within 1 +- eps of it.

The search is a generator yielding (tree, request) batches. Each yield is
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
    RootedSpanTree,
    TreeEdgePair,
    WeightedGraph,
    classify_pair,
    pair_tie_key,
    reconstruct_partition,
)
from .hld import decompose
from .interesting import ProxyFilter, candidate_tops, pair_solver_inputs, tertile_witnesses
from .interval import BipartiteSolver, self_pair_instances
from .provider import run_lockstep
from .requests import CrossNested, CrossSub, DegSubtree, PairCut

# perfbench's tracer patches these two names, which nothing calls;
# ROADMAP item 2 deletes this line along with the patching
build_weight_classes = sample_cross_candidates = None


@dataclass
class SearchSink:
    """The least probe of a tree's search, with the deterministic pair tie
    rule, and its probe count so far."""

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


def _drive_solvers(t: RootedSpanTree, solver: BipartiteSolver, sink: SearchSink):
    """Run the solver's frontier; one yielded batch per depth.

    Every probe is itself a genuine 2-respecting cut value, so the sink
    sees each round as it streams through and counts its probes.
    """
    while not solver.done():
        pairs = [classify_pair(t, a, b) for a, b in solver.requests()]
        values = yield [(t, PairCut(p)) for p in pairs]
        sink.offer(t, values, pairs)
        sink.probes += len(values)
        solver.advance(values)


def interest_checks(d, filt: ProxyFilter):
    """Step 4 discovery for every tree edge of the trees d stacks, in one batch.

    Walks the root lines of each edge's tertile witnesses and 1/3-filters the
    met segment tops with filt, a ProxyFilter under the same trees. Returns
    (cross, down) int64 arrays of the (e, f) rows the filter keeps, sorted by
    e, for exact verification as CrossSub(e, f) and CrossNested(f, e).
    """
    cross, down = candidate_tops(d, *tertile_witnesses(d, filt))
    cross = cross[filt.cross_ok_many(cross[:, 0], cross[:, 1])]
    down = down[filt.down_ok_many(down[:, 0], down[:, 1])]
    return cross, down


GROUP_EDGES = 1024  # tree edges per Step 4 group, bounding its stacked temporaries (~1.2 KB per edge)


class Step4Batch:
    """Step 4 discovery for the trees of one run, one interest_checks pass per group.

    Trees register their decomposition before Step 1. The first to reach Step 4
    discovers the rows of its group, itself and up to max(1, GROUP_EDGES // n) - 1
    waiting trees of its provider.filter_key and PathStack, gathered from it. The run
    owns the batch, not the provider: a cycle between them would hold a finished run's grids.
    """

    def __init__(self):
        self._waiting, self._rows = {}, {}  # tree -> decomposition; tree -> (cross, down) until taken

    def register(self, t: RootedSpanTree, d):
        self._waiting[t] = d

    def rows(self, t: RootedSpanTree, provider):
        if t not in self._rows:
            key, stack = provider.filter_key(t), self._waiting[t].stack
            peers = [s for s, d in self._waiting.items()
                     if key is not None and s is not t and d.stack is stack and provider.filter_key(s) == key]
            group = [t] + peers[: max(1, GROUP_EDGES // t.n) - 1]
            rows = stack.gather([self._waiting.pop(s).row for s in group])
            cross, down = interest_checks(rows, provider.proxy_filter(*group))
            base = np.arange(len(group) + 1) * t.n  # tree i's rows have e in [base[i], base[i + 1])
            cut, nest = np.searchsorted(cross[:, 0], base), np.searchsorted(down[:, 0], base)
            for i, s in enumerate(group):
                self._rows[s] = cross[cut[i] : cut[i + 1]] - base[i], down[nest[i] : nest[i + 1]] - base[i]
        return self._rows.pop(t)


def two_respect_plan(t: RootedSpanTree, provider, sink: SearchSink, step4: Step4Batch):
    """The five-step search for one tree, as a lockstep generator; the tree's
    decomposition is registered with step4, which Step 4 takes its rows from."""
    kids = t.edge_children()
    if len(kids) >= 2:
        step4.register(t, d := decompose(t))

    singles = yield [(t, DegSubtree(v)) for v in kids]
    deg = np.zeros(t.n, dtype=np.int64)
    deg[kids] = singles
    sink.offer(t, singles, [TreeEdgePair(SINGLE, v) for v in kids])

    if len(kids) >= 2:
        path_instances = [inst for path in d.paths for inst in self_pair_instances(path)]
        if path_instances:
            yield from _drive_solvers(t, BipartiteSolver(path_instances), sink)

        cross, down = step4.rows(t, provider)
        (ce, cf), (de, df) = cross.T.tolist(), down.T.tolist()
        reqs = [(t, CrossSub(e, f)) for e, f in zip(ce, cf)]
        reqs += [(t, CrossNested(f, e)) for e, f in zip(de, df)]
        values = yield reqs

        # 2 v > deg exactly, without doubling v in int64
        ok = np.asarray(values, dtype=np.int64) > deg[np.concatenate((cross[:, 0], down[:, 0]))] // 2
        pair_instances = pair_solver_inputs(d, cross, down, ok)
        if pair_instances:
            yield from _drive_solvers(t, BipartiteSolver(pair_instances), sink)


def min_2respect(g: WeightedGraph, t, provider, rng=None) -> CutResult:
    """Exact minimum 2-respecting cut of (g, t) through the given provider;
    all returned values are exact in g. The search draws nothing at random,
    so rng changes nothing."""
    if g.n < 2:
        raise GraphError("no tree edge exists on a single vertex")
    sink = SearchSink()
    run_lockstep([two_respect_plan(t, provider, sink, Step4Batch())], provider)
    provider.stats.probes += sink.probes
    pair = sink.pair
    return CutResult(sink.value, pair, reconstruct_partition(t, pair))
