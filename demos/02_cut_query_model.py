"""Min cut through a counted cut-query oracle.

The graph hides behind one operation: the weight crossing a bipartition.
The crossing of two disjoint sets costs at most 3 queries,
(cut(A) + cut(B) - cut(A + B)) / 2; sides asked before are free. The
sparsifier recovers boundary edges by bisection, and the whole pipeline
stays well under the n log^3 n budget because the search prices each
candidate cut at one query, and the pipeline's sparsifier and search never
pay twice for one side or its complement.
"""

import numpy as np

from twocut.cutquery import CutOracle
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
a, b = set(range(8)), set(range(8, 16))
crossing = (oracle.cut(a) + oracle.cut(b) - oracle.cut(a | b)) // 2
print(f"the crossing of vertices 0..7 and 8..15, 3 queries: {crossing} ({oracle.query_count} total)")

res, stats = min_cut_pipeline(g, "cut-query", rng=7)
budget = 50 * n * ceil_log2(n) ** 3
print(f"\npipeline: min cut {res.value} (oracle check: {oracle_min_cut(g).value})")
print(f"queries {stats.queries} of budget {budget} "
      f"({100 * stats.queries / budget:.1f}%), {stats.trees_packed} trees packed")
