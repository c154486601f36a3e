"""Walk through the 2-respecting search on a 5-vertex worked example.

The graph has a spanning tree whose post-order numbering turns subtrees
into contiguous index ranges; every 1- or 2-edge tree cut's value is a
short formula over subtree degrees and crossings, and the search finds the
minimum while probing only a sliver of the pair matrix.
"""

from twocut.graph import (
    TreeEdgePair,
    WeightedGraph,
    build_rooted_tree,
    cut_of_partition,
    oracle_2respect_min,
    pair_cut_value,
    reconstruct_partition,
)
from twocut.sequential import SequentialProvider
from twocut.tworespect import min_2respect

EDGES = [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (2, 4, 4), (1, 3, 2)]
TREE = [(0, 1), (1, 2), (0, 3), (3, 4)]

g = WeightedGraph(5, EDGES)
t = build_rooted_tree(g, TREE, root=0)

print("post-order:", {v: int(t.po[v]) for v in range(5)})
print("subtree ranges:", {v: (int(t.lo[v]), int(t.hi[v])) for v in range(5)})

for pair in (
    TreeEdgePair("single", 2),
    TreeEdgePair("orthogonal", 1, 3),
    TreeEdgePair("nested", 1, 2),
):
    value = pair_cut_value(g, t, pair)
    side = sorted(reconstruct_partition(t, pair))
    print(f"{pair.kind:>10} pair {pair.edges()}: value {value}, side {side}, "
          f"check {cut_of_partition(g, side)}")

provider = SequentialProvider(g)
res = min_2respect(g, t, provider, rng=7)
print("\nsearch minimum:", res.value, "certificate:", res.certificate)
print("probes spent:", provider.stats.probes, "(full pair matrix would be",
      (g.n - 1) * (g.n - 2) // 2 + g.n - 1, "entries)")
print("oracle agrees:", oracle_2respect_min(g, t).value == res.value)
