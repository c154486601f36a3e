"""Minimum 2-respecting cut: the five-step search over a cost provider.

Step 2 decomposes the tree into heavy paths and Step 1 reads every
single-edge cut. Step 3 pairs the split halves of every path. Step 4 walks
the root lines of each subtree's tertile witnesses on the provider's proxy
to discover cross-/down-interesting partner paths and screens them with the
proxy's 1/3-filter; that reads no search value, only the proxy and the
subtree degrees the provider computed when it admitted the trees, so
step4_rows runs it for all trees before the search, once per group of
trees, and the search verifies its survivors exactly, in every model. Step
5 pairs the paths of every verified row. The minimum over everything probed
is the answer. No step samples: it is the true 2-respecting minimum
whenever the 1/3 filter keeps every true partner, always on the graph
itself and on a sparsifier within 1 +- eps of it.

Karger's reduction solves every packed tree and keeps the least cut, so one
search serves all trees of a run at once, on their stacked vertex ids
(vertex v of trees[i] is i * n + v, as in PathStack.gather). The search is
a generator yielding one requests.RequestTable per round: under the stream
provider one pass, under the query provider one batch of counted cuts.
Round 1 reads every tree's Step 1 degrees and Step 4 exact checks, which
need nothing else; then one solver holds every tree's Step 3 instances,
which read no earlier value, and Step 5 instances back to back, each
depth's probes in one round. So a run takes 1 + max(d3, d5) rounds, d3 and
d5 being the deepest recursion of Steps 3 and 5 over its trees. Probes stay
int64 arrays; a round makes no object but the sink's new TreeEdgePair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import CutResult, GraphError, TreeEdgePair, WeightedGraph, classify_pairs, reconstruct_partition
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
    """The least probe of a search over stacked trees (vertex v of tree i is
    i * n + v): the first tree with the least value, then that tree's
    deterministic pair tie rule; and the probe count so far."""

    value: Optional[int] = None
    pair: Optional[TreeEdgePair] = None
    tree: int = 0  # the least probe's tree
    probes: int = 0
    key: tuple = ()  # (value, tree, kind, po a, po b) of the least probe

    def offer(self, t, values, kind, a, b):
        """Fold in one round of pair-cut rows (arrays of kind codes and stacked a and b;
        t holds n and the stacked po, or is one tree): its least (value, tree, kind, po a,
        po b), by one lexsort of its least-value rows. Kind codes follow pair_tie_key's
        rank: a total order, so probe by probe gives the same."""
        v = np.min(values)
        if self.value is not None and v > self.value:
            return
        i = np.flatnonzero(np.asarray(values) == v)
        i = i[np.lexsort((t.po[b[i]], t.po[a[i]], kind[i], a[i] // t.n))[0]]
        key = (int(v), int(a[i] // t.n), int(kind[i]), int(t.po[a[i]]), int(t.po[b[i]]))
        if self.value is None or key < self.key:
            self.value, self.tree, self.key = key[0], key[1], key
            self.pair = pair_of(key[2], int(a[i] % t.n), int(b[i] % t.n))


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
    """Step 4 discovery for admitted trees, before their search: the (cross,
    down) rows of interest_checks over the trees stacked as in the search,
    vertex v of trees[i] being i * n + v.

    One pass serves each run of up to max(1, GROUP_EDGES // n) trees in the
    given order that share a provider.filter_key and a PathStack, gathered
    from it; a tree whose filter_key is None is a group of its own.
    """
    groups, room = [], max(1, GROUP_EDGES // provider.n)
    for i, t in enumerate(trees):
        d = decompose(t)
        key = (provider.filter_key(t), d.stack)
        if key[0] is None or not groups or groups[-1][0] != key or len(groups[-1][2]) == room:
            groups.append((key, i * provider.n, []))  # a group's first tree sets its rows' shift
        groups[-1][2].append(d)
    rows = [[x + shift for x in interest_checks(ds[0].stack.gather([d.row for d in ds]),
                                                provider.proxy_filter(*(d.tree for d in ds)))]
            for _, shift, ds in groups]  # a filter's grid lives for its own group only
    return tuple(np.concatenate(x) for x in zip(*rows))


def two_respect_plan(trees, sink: SearchSink, rows):
    """The five-step search of trees of one TreeStack, as a lockstep generator
    of RequestTables, vertex v of trees[i] being i * n + v: round 1 holds every
    tree's Step 1 DegSubtree rows, then the (cross, down) rows of step4_rows;
    then one solver runs every tree's Step 3 and Step 5 instances."""
    d = decompose(trees[0]).stack.gather([t.row for t in trees], exits=False)
    kids = np.flatnonzero(d.pos >= 0)
    # CrossSub(e, f) and CrossNested(f, e) are both the row (e, f)
    cross, down = rows
    e, f = np.concatenate((cross, down)).T
    kind = np.repeat([DEG, CROSS_SUB, CROSS_NESTED], [len(kids), len(cross), len(down)])
    values = yield RequestTable.of(trees, kind, np.concatenate((kids, e)), np.concatenate((kids, f)))
    deg = np.zeros(len(d.pos), dtype=np.int64)
    deg[kids] = values[: len(kids)]
    sink.offer(d.tree, deg[kids], np.full(len(kids), SINGLE_CUT), kids, kids)

    ok = values[len(kids) :] > deg[e] // 2  # 2 v > deg exactly, without doubling v in int64
    instances = Instances.join((self_pair_instances(d.flat, d.start), pair_solver_inputs(d, cross, down, ok)))
    if not len(instances):  # BipartiteSolver takes at least one instance
        return
    solver = BipartiteSolver(instances)
    while not solver.done():  # every probe is a genuine 2-respecting cut value
        orth, a, b = classify_pairs(d.tree, *solver.requests().T)
        kind = np.where(orth, ORTHOGONAL_CUT, NESTED_CUT)
        values = yield RequestTable.of(trees, kind, a, b)
        sink.offer(d.tree, values, kind, a, b)
        sink.probes += len(values)
        solver.advance(values)


def min_2respect(g: WeightedGraph, t, provider, rng=None) -> CutResult:
    """Exact minimum 2-respecting cut of (g, t) through the given provider;
    all returned values are exact in g. The search draws nothing at random,
    so rng changes nothing."""
    if g.n < 2:
        raise GraphError("no tree edge exists on a single vertex")
    sink = SearchSink()
    provider.admit([t])
    run_lockstep(two_respect_plan([t], sink, step4_rows(provider, [t])), provider)
    provider.stats.probes += sink.probes
    pair = sink.pair
    return CutResult(sink.value, pair, reconstruct_partition(t, pair))
