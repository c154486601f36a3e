"""The in-memory cost backend: rectangle sums and level sampling.

Edges become points on the post-order plane, so subtree degrees and
crossings are one or two rectangle sums. The sampling index keeps halving
subsets of the points; reporting a rectangle at the right level returns a
small uniform sample, the source paper's route to interesting pairs (the
pipeline finds them from deterministic tertile witnesses instead).
"""

import numpy as np

from twocut.graph import WeightedGraph, build_rooted_tree, cut_of_partition
from twocut.rangeindex import EdgePointSet, SampleRangeIndex, WeightRangeIndex, subtree_sums
from twocut.reservoir import reservoir_sample

EDGES = [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (2, 4, 4), (1, 3, 2)]
g = WeightedGraph(5, EDGES)
t = build_rooted_tree(g, [(0, 1), (1, 2), (0, 3), (3, 4)], root=0)

pts = EdgePointSet(g, t)
widx = WeightRangeIndex(pts.xs, pts.ys, pts.ws)
print("edge points:", sorted(zip(pts.xs.tolist(), pts.ys.tolist(), pts.ws.tolist())))
print("rect [0,1]x[2,3]:", widx.rect_weight(0, 1, 2, 3))
# request rows (u, v, sub): the degree of 1's subtree, then the crossing of subtrees 1 and 3
deg1, cross13 = subtree_sums(widx, t, [1, 1], [1, 3], [False, True]).tolist()
print("deg(subtree of 1):", deg1, "== cut:", cut_of_partition(g, t.subtree(1)))
print("crossing of subtrees 1,3:", cross13)

m = 400
xs = np.arange(m)
ys = xs + m
ids = np.arange(m)
hits = np.zeros(m)
trials = 3000
for s in range(trials):
    idx = SampleRangeIndex(xs, ys, ids, seed=s)
    got = idx.sample_rect(0, m, 0, 2 * m, 16)
    hits[np.asarray(got)] += 1
print(f"\nlevel sampling over {m} points, k=16, {trials} rebuilds: "
      f"per-point inclusion {hits.mean() / trials:.3f} +- {hits.std() / trials:.3f}")

rng = np.random.default_rng(0)
kept = reservoir_sample(range(100), 5, rng)
print("reservoir of 5 from a 100-item stream:", kept)
