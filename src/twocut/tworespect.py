"""Minimum 2-respecting cut: the five-step search over a cost provider.

Step 2 decomposes the tree into heavy paths and Step 1 reads every
single-edge cut in one batch. Step 3 runs one pair solver over the split
halves of every path. Step 4 walks the root lines of each subtree's tertile
witnesses on the provider's proxy to discover cross-/down-interesting
partner paths and screens them with the proxy's 1/3-filter. That discovery
reads no search value, only the proxy and the subtree degrees the provider
computed when it admitted the trees, so step4_rows runs it for all trees
before the search, once per group of trees; in the search each tree's
survivors are verified exactly, in every model.
Step 5 runs one pair solver over a bipartite instance per verified path pair.
The minimum over everything probed is the answer.
No step samples: it is the true 2-respecting minimum whenever the 1/3
filter keeps every true partner, always on the graph itself and on a
sparsifier within 1 +- eps of it.

The search is a generator yielding one requests.RequestTable per batch.
Each yield is one synchronous round: under the stream provider one pass,
under the query provider one batch of counted cuts. The probes of every
instance at one recursion depth travel in the same round, and a pipeline
may interleave the rounds of many trees. Probes stay int64 arrays; a round
makes no object but the sink's new TreeEdgePair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import (CutResult, GraphError, RootedSpanTree, TreeEdgePair, WeightedGraph, classify_pairs,
                    reconstruct_partition)
from .hld import decompose
from .interesting import ProxyFilter, candidate_tops, pair_solver_inputs, tertile_witnesses
from .interval import BipartiteSolver, self_pair_instances
from .provider import run_lockstep
from .requests import CROSS_NESTED, CROSS_SUB, DEG, NESTED_CUT, ORTHOGONAL_CUT, SINGLE_CUT, RequestTable, pair_of

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
    key: tuple = ()  # (value, kind, po a, po b) of the least probe

    def offer(self, t, values, kind, a, b):
        """Fold in one round of pair-cut rows (arrays of kind codes, a and b): its least
        (value, kind, po a, po b), by one lexsort of its least-value rows. Kind codes follow
        pair_tie_key's rank: a total order, so probe by probe gives the same."""
        v = np.min(values)
        if self.value is not None and v > self.value:
            return
        i = np.flatnonzero(np.asarray(values) == v)
        i = i[np.lexsort((t.po[b[i]], t.po[a[i]], kind[i]))[0]]
        key = (int(v), int(kind[i]), int(t.po[a[i]]), int(t.po[b[i]]))
        if self.value is None or key < self.key:
            self.value, self.pair, self.key = key[0], pair_of(key[1], int(a[i]), int(b[i])), key


def _drive_solvers(t: RootedSpanTree, solver: BipartiteSolver, sink: SearchSink):
    """Run the solver's frontier; one yielded table per depth.

    Every probe is itself a genuine 2-respecting cut value, so the sink
    sees each round as it streams through and counts its probes.
    """
    while not solver.done():
        orth, a, b = classify_pairs(t, *solver.requests().T)
        kind = np.where(orth, ORTHOGONAL_CUT, NESTED_CUT)
        values = yield RequestTable.of(t, kind, a, b)
        sink.offer(t, values, kind, a, b)
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


def step4_rows(provider, trees):
    """Step 4 discovery for admitted trees, before their search: each tree's
    (cross, down) rows of interest_checks, shifted back to its own vertex ids.

    One pass serves each run of up to max(1, GROUP_EDGES // n) trees in the
    given order that share a provider.filter_key and a PathStack, gathered
    from it; a tree whose filter_key is None is a group of its own.
    """
    groups, room = [], max(1, GROUP_EDGES // provider.n)
    for t in trees:
        d = decompose(t)
        key = (provider.filter_key(t), d.stack)
        if key[0] is None or not groups or groups[-1][0] != key or len(groups[-1][1]) == room:
            groups.append((key, []))
        groups[-1][1].append(d)
    out = []
    for _, ds in groups:
        cross, down = interest_checks(ds[0].stack.gather([d.row for d in ds]),
                                      provider.proxy_filter(*(d.tree for d in ds)))
        base = np.arange(len(ds) + 1) * provider.n  # tree i's rows have e in [base[i], base[i + 1])
        cut, nest = np.searchsorted(cross[:, 0], base), np.searchsorted(down[:, 0], base)
        out += [(cross[cut[i] : cut[i + 1]] - base[i], down[nest[i] : nest[i + 1]] - base[i]) for i in range(len(ds))]
    return out


def two_respect_plan(t: RootedSpanTree, sink: SearchSink, rows):
    """The five-step search for one tree, as a lockstep generator of
    RequestTables; rows are the tree's Step 4 (cross, down) rows from step4_rows."""
    kids = np.flatnonzero(t.parent >= 0)
    singles = yield RequestTable.of(t, DEG, kids, kids)
    deg = np.zeros(t.n, dtype=np.int64)
    deg[kids] = singles
    sink.offer(t, singles, np.full(len(kids), SINGLE_CUT), kids, kids)

    if len(kids) >= 2:
        d = decompose(t)
        path_instances = self_pair_instances(d.flat, d.start)
        if len(path_instances):
            yield from _drive_solvers(t, BipartiteSolver(path_instances), sink)

        # CrossSub(e, f) and CrossNested(f, e) are both the row (e, f)
        cross, down = rows
        e, f = np.concatenate((cross, down)).T
        values = yield RequestTable.of(t, np.repeat([CROSS_SUB, CROSS_NESTED], [len(cross), len(down)]), e, f)

        ok = values > deg[e] // 2  # 2 v > deg exactly, without doubling v in int64
        pair_instances = pair_solver_inputs(d, cross, down, ok) if ok.any() else ()
        if len(pair_instances):
            yield from _drive_solvers(t, BipartiteSolver(pair_instances), sink)


def min_2respect(g: WeightedGraph, t, provider, rng=None) -> CutResult:
    """Exact minimum 2-respecting cut of (g, t) through the given provider;
    all returned values are exact in g. The search draws nothing at random,
    so rng changes nothing."""
    if g.n < 2:
        raise GraphError("no tree edge exists on a single vertex")
    sink = SearchSink()
    provider.admit([t])
    run_lockstep([two_respect_plan(t, sink, *step4_rows(provider, [t]))], provider)
    provider.stats.probes += sink.probes
    pair = sink.pair
    return CutResult(sink.value, pair, reconstruct_partition(t, pair))
