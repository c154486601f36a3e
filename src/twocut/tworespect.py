"""Minimum 2-respecting cut: the five-step search over a cost provider.

Step 2 decomposes the tree into heavy paths and Step 1 reads every
single-edge cut. Step 3 pairs the split halves of every path. Step 4 walks
the root lines of each subtree's tertile witnesses on the provider's proxy
to discover cross-/down-interesting partner paths and screens them with the
proxy's 1/3-filter; that reads no search value, only the proxy and the
subtree degrees the provider computed when it admitted the trees, so
step4_rows runs it for all trees before the search, once per group of
trees, and each tree's search verifies its survivors exactly, in every
model. Step 5 pairs the paths of every verified row. The minimum over
everything probed is the answer. No step samples: it is the true
2-respecting minimum whenever the 1/3 filter keeps every true partner,
always on the graph itself and on a sparsifier within 1 +- eps of it.

The search is a generator yielding one requests.RequestTable per round:
under the stream provider one pass, under the query provider one batch of
counted cuts. Round 1 reads Step 1's degrees and Step 4's exact checks,
which need nothing else; then one solver holds the Step 3 instances, which
read no earlier value, and the Step 5 instances back to back, each depth's
probes in one round. So a tree takes 1 + max(d3, d5) rounds, d3 and d5
being the recursion depths of Steps 3 and 5, and a pipeline interleaves the
rounds of many trees. Probes stay int64 arrays; a round makes no object but
the sink's new TreeEdgePair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import (CutResult, GraphError, RootedSpanTree, TreeEdgePair, WeightedGraph, classify_pairs,
                    reconstruct_partition)
from .hld import decompose
from .interesting import ProxyFilter, candidate_tops, pair_solver_inputs, tertile_witnesses
from .interval import BipartiteSolver, Instances, self_pair_instances
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
    """Drive the tree's one solver, a yielded table per depth; every probe is a
    genuine 2-respecting cut value, so the sink takes each round and counts it."""
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
    """The five-step search for one tree, as a lockstep generator of RequestTables:
    round 1 holds Step 1's DegSubtree rows, then the tree's Step 4 (cross, down)
    rows from step4_rows; then one solver runs the Step 3 and Step 5 instances."""
    kids = np.flatnonzero(t.parent >= 0)
    # CrossSub(e, f) and CrossNested(f, e) are both the row (e, f)
    cross, down = rows
    e, f = np.concatenate((cross, down)).T
    kind = np.repeat([DEG, CROSS_SUB, CROSS_NESTED], [len(kids), len(cross), len(down)])
    values = yield RequestTable.of(t, kind, np.concatenate((kids, e)), np.concatenate((kids, f)))
    singles = values[: len(kids)]
    deg = np.zeros(t.n, dtype=np.int64)
    deg[kids] = singles
    sink.offer(t, singles, np.full(len(kids), SINGLE_CUT), kids, kids)

    ok = values[len(kids) :] > deg[e] // 2  # 2 v > deg exactly, without doubling v in int64
    d = decompose(t)
    instances = Instances.join((self_pair_instances(d.flat, d.start), pair_solver_inputs(d, cross, down, ok)))
    if len(instances):
        yield from _drive_solvers(t, BipartiteSolver(instances), sink)


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
