"""Min cut through a counted cut-query oracle.

The graph hides behind one operation: the weight crossing a bipartition.
Crossings between two sets cost at most 3 queries; sides asked before are
free. Recovering one boundary edge costs O(log n) by bisection, and the
whole pipeline stays well under the n log^3 n budget because the search
prices each candidate cut at one query, and the pipeline's sparsifier and
search never pay twice for one side or its complement.
"""

import numpy as np

from twocut.cutquery import CutOracle, oracle_cross_weight, recover_crossing_edge
from twocut.graph import oracle_min_cut
from twocut.packing import min_cut_pipeline
from twocut.util import ceil_log2

rng = np.random.default_rng(42)
n = 96
edges = {}
perm = rng.permutation(n)
for i in range(1, n):
    u, v = int(perm[i]), int(perm[rng.integers(0, i)])
    edges[(min(u, v), max(u, v))] = int(rng.integers(1, 11))
while len(edges) < 8 * n:
    u, v = sorted(rng.integers(0, n, size=2))
    if u != v:
        edges.setdefault((int(u), int(v)), int(rng.integers(1, 11)))
from twocut.graph import WeightedGraph

g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])

oracle = CutOracle(g)
print("one cut query:", oracle.cut({0, 1, 2}), f"({oracle.query_count} queries so far)")
print("a crossing, 3 queries:", oracle_cross_weight(oracle, {0, 1}, {2, 3}),
      f"({oracle.query_count} total)")
before = oracle.query_count
edge = recover_crossing_edge(oracle, set(range(10)))
print(f"recovered boundary edge {edge} in {oracle.query_count - before} queries "
      f"(budget {6 * ceil_log2(n)})")

res, stats = min_cut_pipeline(g, "cut-query", rng=7)
budget = 50 * n * ceil_log2(n) ** 3
print(f"\npipeline: min cut {res.value} (oracle check: {oracle_min_cut(g).value})")
print(f"queries {stats.queries} of budget {budget} "
      f"({100 * stats.queries / budget:.1f}%), {stats.trees_packed} trees packed")
