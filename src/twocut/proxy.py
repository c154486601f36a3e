"""Cut-approximating proxy graphs built by repeated forest peeling.

Per weight class [2^i, 2^(i+1)) the builder peels maximal spanning forests
(each forest crosses every cut the class crosses) and keeps the union at
original weights. Enough forests per class make every proxy cut close
enough to the real one for the strict-third interest filter; at desk scale
the peeling usually exhausts the graph and the proxy is exact.

Three sources are supported: an in-memory graph (direct peeling), a counted
cut-query oracle (edges recovered by interval bisection, already-peeled
weight subtracted locally), and a dynamic stream (per-class linear sketches
with recovered edges subtracted between peels). The oracle and stream
recovery loops live in their model modules; this module owns the direct
route and the shared envelope.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import GraphError, WeightedGraph
from .util import DisjointSets, bit_lengths, ceil_log2


class ResourceBudgetError(GraphError):
    """The proxy outgrew its configured edge budget."""


def forests_per_class(n, eps, c4=1.0) -> int:
    return max(1, math.ceil(c4 * math.log(max(n, 2)) / (eps * eps)))


def proxy_edge_budget(n, eps, c3=4.0) -> int:
    lg = max(1, ceil_log2(max(n, 2)))
    return max(1, math.ceil(c3 * n * lg * lg / (eps * eps)))


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


def build_proxy_direct(g: WeightedGraph, eps, c4=1.0, c3=4.0) -> WeightedGraph:
    rounds = forests_per_class(g.n, eps, c4)
    cls = bit_lengths(g.ew) - 1  # -1 for a zero weight, which no forest needs
    kept = []
    for c in np.unique(cls[cls >= 0]).tolist():
        eids = np.flatnonzero(cls == c)
        kept.extend(peel_class_forests(g.n, zip(eids.tolist(), g.eu[eids].tolist(), g.ev[eids].tolist()), rounds))
    if len(kept) > proxy_edge_budget(g.n, eps, c3):
        raise ResourceBudgetError(f"proxy would keep {len(kept)} edges")
    edges = [g.edges[eid] for eid in sorted(kept)]
    return WeightedGraph(g.n, edges)


def build_proxy_graph(source, eps, rng=None, c4=1.0, c3=4.0) -> WeightedGraph:
    """Dispatch on the source kind: graph, cut oracle, or stream harness."""
    if not (0 < eps <= 0.1):
        raise ValueError("eps must lie in (0, 1/10]")
    if isinstance(source, WeightedGraph):
        return build_proxy_direct(source, eps, c4, c3)
    from .cutquery import CutOracle, build_proxy_via_oracle
    if isinstance(source, CutOracle):
        return build_proxy_via_oracle(source, eps, rng, c4, c3)
    from .streaming import StreamHarness, build_proxy_via_stream
    if isinstance(source, StreamHarness):
        return build_proxy_via_stream(source, eps, rng, c4, c3)
    raise TypeError(f"cannot build a proxy from {source!r}")
