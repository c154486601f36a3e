"""Cut-value request vocabulary shared by every cost backend.

A request names a quantity defined by one spanning tree's subtree ranges:

- DegSubtree(v): total weight leaving v's subtree.
- CrossSub(u, v): weight between the disjoint subtrees of u and v.
- CrossNested(v, u): weight between v's subtree and everything outside u's
  subtree, for v inside u's subtree.
- PairCut(pair): value of the cut crossing exactly the pair's tree edges.

The search yields its batches as RequestTables of int64 rows (tree, kind, a,
b), the form every provider evaluates (provider.py), built without request
objects. A table still reads as a sequence of (tree, request) items, built
when read; RequestTable.from_items encodes a plain list of items.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graph import NESTED, ORTHOGONAL, SINGLE, TreeEdgePair


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


# The kind column of a request row (tree, kind, a, b): DegSubtree(a), CrossSub(a, b),
# CrossNested(b, a), and the single, orthogonal and nested pair cuts (nested: a is the
# upper edge) in pair_tie_key's kind order. One-vertex kinds repeat a in b.
DEG, CROSS_SUB, CROSS_NESTED, SINGLE_CUT, ORTHOGONAL_CUT, NESTED_CUT = range(6)
PAIR_KINDS = (SINGLE, ORTHOGONAL, NESTED)  # kinds SINGLE_CUT, ORTHOGONAL_CUT, NESTED_CUT


def pair_of(kind, a, b) -> TreeEdgePair:
    """The TreeEdgePair of one pair-cut row."""
    return TreeEdgePair(PAIR_KINDS[kind - SINGLE_CUT], a, None if kind == SINGLE_CUT else b)


def _row(req):
    if isinstance(req, CrossSub):
        return CROSS_SUB, req.u, req.v
    if isinstance(req, PairCut):
        p = req.pair
        return SINGLE_CUT + PAIR_KINDS.index(p.kind), p.a, p.a if p.b is None else p.b
    if isinstance(req, DegSubtree):
        return DEG, req.v, req.v
    if isinstance(req, CrossNested):
        return CROSS_NESTED, req.u, req.v
    raise TypeError(f"unknown request {req!r}")


class RequestTable(Sequence):
    """(tree, request) items as int64 `rows` (tree, kind, a, b), tree indexing
    the list `trees`; reading an item builds its request object."""

    def __init__(self, trees, rows):
        self.trees, self.rows = list(trees), rows

    @classmethod
    def of(cls, t, kind, a, b):
        """One tree's requests from kind codes (or one code) and a, b arrays."""
        rows = np.zeros((len(a), 4), dtype=np.int64)
        rows[:, 1], rows[:, 2], rows[:, 3] = kind, a, b
        return cls([t], rows)

    @classmethod
    def from_items(cls, items):
        """The table of (tree, request) items; TypeError on an unknown request."""
        trees = {}
        rows = [(trees.setdefault(t, len(trees)), *_row(req)) for t, req in items]
        return cls(trees, np.array(rows, dtype=np.int64).reshape(-1, 4))

    @classmethod
    def join(cls, tables):
        """The tables' items back to back."""
        shift = np.cumsum([0] + [len(t.trees) for t in tables]).tolist()
        rows = np.concatenate([t.rows + [s, 0, 0, 0] for t, s in zip(tables, shift)])
        return cls([x for t in tables for x in t.trees], rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        tree, kind, a, b = self.rows[i].tolist()
        if kind >= SINGLE_CUT:
            req = PairCut(pair_of(kind, a, b))
        else:
            req = DegSubtree(a) if kind == DEG else CrossSub(a, b) if kind == CROSS_SUB else CrossNested(b, a)
        return self.trees[tree], req
