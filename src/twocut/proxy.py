"""Cut-approximating proxy graphs built by repeated forest peeling.

Per weight class [2^i, 2^(i+1)) the builder peels maximal spanning forests
(each forest crosses every cut the class crosses) and keeps the union at
original weights. Enough forests per class make every proxy cut close
enough to the real one for the strict-third interest filter; at desk scale
the peeling usually exhausts the graph and the proxy is exact.

Every forest is grown by Boruvka sweeps in `peel_forests`, the one sweep
loop all three sources share; each source passes its own boundary-edge
recovery and forest subtraction. An in-memory graph is peeled class by
class from its known edges (`first_leaving`, which also grows the packed
trees of packing.py). A counted cut-query oracle and a dynamic stream hide
their edges: the oracle recovers a component's boundary edge by interval
bisection (cutquery.py), the stream from linear sketches of one weight
class (streaming.py). This module owns the sweep loop, the known-edge
recovery, the direct route and the budgets.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .graph import GraphError, WeightedGraph
from .util import DisjointSets, ceil_log2

PROXY_BUDGET_FACTOR = 4.0  # c3 in the proxy edge budget
FOREST_FACTOR = 1.0        # c4 in forests per weight class


class ResourceBudgetError(GraphError):
    """A proxy outgrew its edge budget, or a stream its tracked-word budget."""


def forests_per_class(n, eps) -> int:
    return max(1, math.ceil(FOREST_FACTOR * math.log(max(n, 2)) / (eps * eps)))


def proxy_edge_budget(n, eps) -> int:
    lg = max(1, ceil_log2(max(n, 2)))
    return max(1, math.ceil(PROXY_BUDGET_FACTOR * n * lg * lg / (eps * eps)))


def check_eps(n, eps):
    """ValueError unless eps lies in (0, 1/10] and the eps^-2 budgets of an
    n-vertex graph come out finite: a tiny eps underflows eps * eps to 0,
    or overflows the budget past any float."""
    with contextlib.suppress(ZeroDivisionError, OverflowError):
        if 0 < eps <= 0.1 and forests_per_class(n, eps) and proxy_edge_budget(n, eps):
            return
    raise ValueError(f"eps must lie in (0, 1/10] and keep eps^-2 budgets finite, got {eps}")


def peel_forests(n, recover, subtract, rounds, patience, budget, kept):
    """Peel up to `rounds` spanning forests by Boruvka sweeps, appending to `kept`.

    Each sweep labels the k components 0..k-1 in order of their first
    vertex, as one int64 array over the vertices, and asks
    recover(sweep, labels, live) for one (u, v, ...) or None per label (a
    sequence or a lazy iterator). The unions apply in label order, on
    disjoint sets over the k labels; a component some union already touched
    this sweep (live(label) is False) is skipped: its edge was found for a
    smaller vertex set, and the merged component is asked again next sweep.
    A forest ends after `patience` sweeps in a row add no edge; it is then
    passed to subtract(forest) and appended to `kept`. Peeling stops at
    the first empty forest; ResourceBudgetError once `kept` holds more
    than `budget` edges.
    """
    for _ in range(rounds):
        labels, k = np.arange(n), n
        forest = []
        sweep = idle = 0
        while k > 1 and idle < patience:
            ds = DisjointSets(k)

            def live(c):
                return ds.size[ds.find(c)] == 1

            grown = len(forest)
            for c, got in enumerate(recover(sweep, labels, live)):
                if got is not None and live(c) and ds.union(int(labels[got[0]]), int(labels[got[1]])):
                    forest.append(got)
            ids = {}  # merged set -> next label, in order of its least label, so of its first vertex
            labels = np.array([ids.setdefault(ds.find(c), len(ids)) for c in range(k)])[labels]
            k = len(ids)
            sweep += 1
            idle = 0 if len(forest) > grown else idle + 1
        if not forest:
            break
        subtract(forest)
        kept.extend(forest)
        if len(kept) > budget:
            raise ResourceBudgetError(f"proxy exceeded {budget} edges")
    return kept


def first_leaving(u, v, alive, labels):
    """recover() over known edges (u[i], v[i]), most preferred first: for each
    component of `labels`, its first edge leaving it with alive[i] (a mask, or
    True), as (u, v, i), or None."""
    lu, lv = labels[u], labels[v]
    pos = np.flatnonzero(alive & (lu != lv))
    first = np.full(int(labels.max()) + 1, len(u))
    np.minimum.at(first, lu[pos], pos)
    np.minimum.at(first, lv[pos], pos)
    return [None if i == len(u) else (int(u[i]), int(v[i]), i) for i in first.tolist()]


def build_proxy_direct(g: WeightedGraph, eps) -> WeightedGraph:
    rounds = forests_per_class(g.n, eps)
    budget = proxy_edge_budget(g.n, eps)
    kept, taken = [], np.zeros(g.m, dtype=bool)
    for eids in g.weight_classes.values():  # a zero weight is in no class: no forest needs it
        u, v, alive = g.eu[eids], g.ev[eids], np.ones(len(eids), dtype=bool)
        peel_forests(g.n, lambda sweep, labels, live: first_leaving(u, v, alive, labels),
                     lambda forest: alive.put([i for _, _, i in forest], False), rounds, 1, budget, kept)
        taken[eids[~alive]] = True  # every kept forest was subtracted
    return WeightedGraph(g.n, zip(g.eu[taken].tolist(), g.ev[taken].tolist(), g.ew[taken].tolist()),
                         require_connected=False)


def build_proxy_graph(source, eps) -> WeightedGraph:
    """Dispatch on the source kind: graph, cut oracle, or stream harness."""
    check_eps(source.n, eps)
    if isinstance(source, WeightedGraph):
        return build_proxy_direct(source, eps)
    from .cutquery import CutOracle, build_proxy_via_oracle
    if isinstance(source, CutOracle):
        return build_proxy_via_oracle(source, eps)
    from .streaming import StreamHarness, build_proxy_via_stream
    if isinstance(source, StreamHarness):
        return build_proxy_via_stream(source, eps)
    raise TypeError(f"cannot build a proxy from {source!r}")
