"""Cut-approximating proxy graphs built by repeated forest peeling.

Per weight class [2^i, 2^(i+1)) the builder peels maximal spanning forests
(each forest crosses every cut the class crosses) and keeps the union at
original weights. Enough forests per class make every proxy cut close
enough to the real one for the strict-third interest filter; at desk scale
the peeling usually exhausts the graph and the proxy is exact.

Three sources are supported. An in-memory graph is peeled directly, class
by class. A counted cut-query oracle and a dynamic stream hide their edges,
so their forests are grown by Boruvka sweeps in `peel_forests`, the one
sweep loop both share: the oracle recovers a component's boundary edge by
interval bisection (cutquery.py), the stream from linear sketches of one
weight class (streaming.py), and each subtracts a finished forest its own
way. This module owns the direct route, the sweep loop and the budgets.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import GraphError, WeightedGraph
from .util import DisjointSets, bit_lengths, ceil_log2

PROXY_BUDGET_FACTOR = 4.0  # c3 in the proxy edge budget
FOREST_FACTOR = 1.0        # c4 in forests per weight class


class ResourceBudgetError(GraphError):
    """A proxy outgrew its edge budget, or a stream its tracked-word budget."""


def forests_per_class(n, eps) -> int:
    return max(1, math.ceil(FOREST_FACTOR * math.log(max(n, 2)) / (eps * eps)))


def proxy_edge_budget(n, eps) -> int:
    lg = max(1, ceil_log2(max(n, 2)))
    return max(1, math.ceil(PROXY_BUDGET_FACTOR * n * lg * lg / (eps * eps)))


def peel_class_forests(n, class_edges, rounds):
    """Edge ids of up to `rounds` maximal spanning forests of one class.

    class_edges: (eid, u, v) triples; peeling stops early once exhausted.
    """
    remaining = list(class_edges)
    kept = []
    for _ in range(rounds):
        if not remaining:
            break
        ds = DisjointSets(n)
        forest = []
        rest = []
        for eid, u, v in remaining:
            if ds.union(u, v):
                forest.append(eid)
            else:
                rest.append((eid, u, v))
        kept.extend(forest)
        remaining = rest
    return kept


def peel_forests(n, recover, subtract, rounds, patience, budget, kept):
    """Peel up to `rounds` spanning forests by Boruvka sweeps, appending to `kept`.

    Each sweep labels the components in order of their first vertex and
    asks recover(sweep, labels, live) for one (u, v, w) or None per label
    (a sequence or a lazy iterator). The unions apply in label order; a
    component merged earlier in the same sweep (its root or size moved, so
    live(label) is False) is skipped: its edge was found for a smaller
    vertex set, and the merged component is asked again next sweep.
    A forest ends after `patience` sweeps in a row add no edge; it is then
    passed to subtract(forest) and appended to `kept`. Peeling stops at
    the first empty forest; ResourceBudgetError once `kept` holds more
    than `budget` edges.
    """
    for _ in range(rounds):
        ds = DisjointSets(n)
        forest = []
        sweep = idle = 0
        while ds.count > 1 and idle < patience:
            label = {}  # component root -> label, in order of first vertex
            labels = [label.setdefault(ds.find(v), len(label)) for v in range(n)]
            roots = list(label)
            sizes = np.bincount(labels).tolist()

            def live(c):
                return ds.find(roots[c]) == roots[c] and ds.size[roots[c]] == sizes[c]

            grown = len(forest)
            for c, got in enumerate(recover(sweep, labels, live)):
                if got is not None and live(c) and ds.union(got[0], got[1]):
                    forest.append(got)
            sweep += 1
            idle = 0 if len(forest) > grown else idle + 1
        if not forest:
            break
        subtract(forest)
        kept.extend(forest)
        if len(kept) > budget:
            raise ResourceBudgetError(f"proxy exceeded {budget} edges")
    return kept


def build_proxy_direct(g: WeightedGraph, eps) -> WeightedGraph:
    rounds = forests_per_class(g.n, eps)
    cls = bit_lengths(g.ew) - 1  # -1 for a zero weight, which no forest needs
    kept = []
    for c in np.unique(cls[cls >= 0]).tolist():
        eids = np.flatnonzero(cls == c)
        kept.extend(peel_class_forests(g.n, zip(eids.tolist(), g.eu[eids].tolist(), g.ev[eids].tolist()), rounds))
    if len(kept) > proxy_edge_budget(g.n, eps):
        raise ResourceBudgetError(f"proxy would keep {len(kept)} edges")
    edges = [g.edges[eid] for eid in sorted(kept)]
    return WeightedGraph(g.n, edges)


def build_proxy_graph(source, eps) -> WeightedGraph:
    """Dispatch on the source kind: graph, cut oracle, or stream harness."""
    if not (0 < eps <= 0.1):
        raise ValueError("eps must lie in (0, 1/10]")
    if isinstance(source, WeightedGraph):
        return build_proxy_direct(source, eps)
    from .cutquery import CutOracle, build_proxy_via_oracle
    if isinstance(source, CutOracle):
        return build_proxy_via_oracle(source, eps)
    from .streaming import StreamHarness, build_proxy_via_stream
    if isinstance(source, StreamHarness):
        return build_proxy_via_stream(source, eps)
    raise TypeError(f"cannot build a proxy from {source!r}")
