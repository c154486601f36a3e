"""Workloads of the twocut benchmark and their seeded instances.

Every instance is a random connected graph from a copy of the test suite's
generator (`tests/conftest.py::random_connected_graph`, same draws in the
same order), serialised to the edge-list text the `mincut` CLI reads. Only
that text reaches the program.
"""

from __future__ import annotations

import numpy as np

EPS = 0.1
HEAVY = 1 << 32  # the loader's weight cap

# An instance spec is (mode, n, extra, wmax, churn). One round of a workload
# solves each of its instances once; `tiny` is the smoke-test version.
WORKLOADS = {
    "seq-light": {
        "why": "sequential mode, light sparse graphs: one exact packing, no proxy, "
               "grid or sketch, so the range-index layer dominates",
        "instances": [("sequential", 128, 8, 10, 0.0)] * 2,
        "tiny": [("sequential", 24, 4, 10, 0.0)],
    },
    "query-heavy": {
        "why": "cut-query mode, weights up to 2^32: the lambda-guess sweep and Step 4 "
               "discovery dominate and the range index is bypassed",
        "instances": [("cut-query", 48, 8, HEAVY, 0.0)] * 2,
        "tiny": [("cut-query", 20, 4, HEAVY, 0.0)],
    },
    "stream-dense-churn": {
        "why": "streaming mode with churn 0.5, one dense and one sparse graph: per-pass "
               "grid builds, n^2 memory and the sketch proxy under deletes",
        "instances": [("streaming", 128, 24, 10, 0.5), ("streaming", 256, 8, 10, 0.5)],
        "tiny": [("streaming", 16, 6, 10, 0.5), ("streaming", 24, 3, 10, 0.5)],
    },
}


def random_connected_graph(rng, n, extra=2.0, wmax=10):
    """Random spanning tree plus ~extra*n additional edges, weights 1..wmax.

    Returns {(u, v): w} with u < v, in insertion order.
    """
    edges = {}
    perm = rng.permutation(n)
    for i in range(1, n):
        u = int(perm[i])
        v = int(perm[rng.integers(0, i)])
        key = (min(u, v), max(u, v))
        edges[key] = int(rng.integers(1, wmax + 1))
    want = min(int(extra * n), n * (n - 1) // 2) if n > 1 else 0
    tries = 0
    while len(edges) < want and tries < 50 * n:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        tries += 1
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = int(rng.integers(1, wmax + 1))
    return edges


def edge_list_text(n, edges) -> str:
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"{u} {v} {w}" for (u, v), w in edges.items())
    return "\n".join(lines) + "\n"


def instance_seed(seed, j) -> int:
    """Generator and pipeline seed of the workload's j-th instance."""
    return 1000 * (seed % (1 << 31)) + j


def instances(workload, seed, tiny=False):
    """The workload's instances for `seed`: dicts with the text and solve settings."""
    out = []
    for j, (mode, n, extra, wmax, churn) in enumerate(WORKLOADS[workload]["tiny" if tiny else "instances"]):
        s = instance_seed(seed, j)
        edges = random_connected_graph(np.random.default_rng(s), n, extra, wmax)
        out.append({
            "label": f"{mode} n={n} m={len(edges)} wmax={wmax} churn={churn}",
            "mode": mode,
            "churn": churn,
            "seed": s,
            "text": edge_list_text(n, edges),
        })
    return out
