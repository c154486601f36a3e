"""Cut-value request vocabulary shared by every cost backend.

A request names a quantity defined by one spanning tree's subtree ranges:

- DegSubtree(v): total weight leaving v's subtree.
- CrossSub(u, v): weight between the disjoint subtrees of u and v.
- CrossNested(v, u): weight between v's subtree and everything outside u's
  subtree, for v inside u's subtree.
- PairCut(pair): value of the cut crossing exactly the pair's tree edges.

These objects are what the search yields and what a caller of
CostProvider.batch_eval passes in; the provider decodes each one once into
a row of its int64 request table (provider.py), and every backend answers
the rows from the same rectangle-sum formula, metering them as its model
prices them: nothing in memory, counted cut queries, or stream passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import TreeEdgePair


@dataclass(frozen=True)
class DegSubtree:
    v: int


@dataclass(frozen=True)
class CrossSub:
    u: int
    v: int


@dataclass(frozen=True)
class CrossNested:
    v: int
    u: int


@dataclass(frozen=True)
class PairCut:
    pair: TreeEdgePair

