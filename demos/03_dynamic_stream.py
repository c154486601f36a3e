"""Min cut over a dynamic edge stream in a bounded number of passes.

The stream interleaves inserts and deletes (churn); linear sketches absorb
it in one pass and yield a spanning-forest sparsifier, per-pass counters
answer every cut value the search asks for, and the lockstep scheduler
packs all solver probes of one recursion depth into a single pass.
"""

import numpy as np

from twocut.graph import WeightedGraph, oracle_min_cut
from twocut.packing import PipelineConfig, min_cut_pipeline
from twocut.streaming import StreamHarness, build_proxy_via_stream
from twocut.util import ceil_log2

rng = np.random.default_rng(3)
n = 96
edges = {}
perm = rng.permutation(n)
for i in range(1, n):
    u, v = int(perm[i]), int(perm[rng.integers(0, i)])
    edges[(min(u, v), max(u, v))] = int(rng.integers(1, 11))
while len(edges) < 6 * n:
    u, v = sorted(rng.integers(0, n, size=2))
    if u != v:
        edges.setdefault((int(u), int(v)), int(rng.integers(1, 11)))
g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])

harness = StreamHarness(g, seed=11, churn=0.5)
print(f"stream: {len(harness)} updates over {g.m} edges (churn pairs cancel)")

proxy = build_proxy_via_stream(harness, eps=0.1)
print(f"sketch pass -> sparsifier with {proxy.m} edges "
      f"({harness.pass_count} pass, {harness.tracked_words} words registered)")

for churn in (0.0, 0.5):
    res, stats = min_cut_pipeline(g, "streaming", rng=11, config=PipelineConfig(churn=churn))
    print(f"churn {churn}: value {res.value}, {stats.passes} passes "
          f"(budget {12 + 6 * ceil_log2(n)}), {stats.tracked_words} tracked words")
print("reference oracle:", oracle_min_cut(g).value)
