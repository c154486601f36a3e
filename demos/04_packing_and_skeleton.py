"""Greedy tree packing and skeleton thinning, the reduction around the search.

Any cut close to the minimum must 2-respect a constant fraction of a greedy
packing, so solving the 2-respecting problem per packed tree finds the
global minimum. Heavy graphs are thinned first: a binomial skeleton scales
the min cut down so a logarithmic packing suffices, at a rate set by a
guess of the min cut that Matula's approximation brackets.
"""

import numpy as np

from twocut.graph import WeightedGraph, oracle_min_cut
from twocut.packing import approx_min_cut, build_skeleton, greedy_pack, lambda_schedule

tri = WeightedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
packing = greedy_pack(tri, 3)
print("triangle, 3 trees:", packing.trees, "loads:", packing.loads)

rng = np.random.default_rng(1)
n = 24
edges = {}
perm = rng.permutation(n)
for i in range(1, n):
    u, v = int(perm[i]), int(perm[rng.integers(0, i)])
    edges[(min(u, v), max(u, v))] = int(rng.integers(1, 6))
while len(edges) < 3 * n:
    u, v = sorted(rng.integers(0, n, size=2))
    if u != v:
        edges.setdefault((int(u), int(v)), int(rng.integers(1, 6)))
g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])

lam = oracle_min_cut(g).value
packing = greedy_pack(g, 40)
crossing = lambda side, tree: sum(
    1 for eid in tree if (g.edges[eid][0] in side) != (g.edges[eid][1] in side)
)
side = oracle_min_cut(g).partition
good = sum(1 for tr in packing.trees if crossing(side, tr) <= 2)
print(f"\nmin cut {lam}; the optimal side 2-respects {good}/40 packed trees")
print("guess schedule:", lambda_schedule(g, eps=0.1),
      "(the least degree already saturates the skeleton rate: one exact packing)")

heavy = WeightedGraph(12, [(i, (i + 1) % 12, 1 << 20) for i in range(12)])
sk = build_skeleton(heavy, eps=0.1, lambda_guess=2 << 20, rng=np.random.default_rng(0))
print(f"\nheavy ring: skeleton rate {sk.rate:.2e}, "
      f"total weight {heavy.total_weight} -> {sk.graph.total_weight}, "
      f"skeleton min cut {oracle_min_cut(sk.graph).value}")
print(f"heavy ring: min cut {oracle_min_cut(heavy).value}, Matula bound {approx_min_cut(heavy)} "
      f"(within 2.1x above it), guesses packed {lambda_schedule(heavy, eps=0.1)}")
