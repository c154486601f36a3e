"""In-memory cost provider backed by the 2-d range indexes.

Each spanning tree gets its own edge-point set and weight index (post-order
changes with the tree). On a tree's first use all its subtree degrees come
from one batched rectangle-sum call, since Step 1 needs them all anyway and
the later steps keep re-reading them; after that each round's crossings of
that tree are answered by one more such call.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graph import SINGLE, ORTHOGONAL, WeightedGraph
from .provider import CostProvider, TreeContext
from .rangeindex import EdgePointSet, WeightRangeIndex, subtree_sums
from .requests import CrossNested, CrossSub, DegSubtree, PairCut


def _row(req):
    """(degree a, degree b, crossing u, crossing v, CrossSub?, crossing coefficient).

    The value is deg[a] + deg[b] + coefficient * crossing, where index -1 of
    the degree array reads 0 and coefficient 0 means no crossing.
    """
    if isinstance(req, DegSubtree):
        return req.v, -1, req.v, req.v, False, 0
    if isinstance(req, CrossSub):
        return -1, -1, req.u, req.v, True, 1
    if isinstance(req, CrossNested):
        return -1, -1, req.u, req.v, False, 1
    if isinstance(req, PairCut):
        p = req.pair
        if p.kind == SINGLE:
            return p.a, -1, p.a, p.a, False, 0
        return p.a, p.b, p.a, p.b, p.kind == ORTHOGONAL, -2
    raise TypeError(f"unknown request {req!r}")


class SequentialProvider(CostProvider):
    def __init__(self, g: WeightedGraph):
        super().__init__()
        self.g = g
        self._trees = {}

    def _tree(self, ctx: TreeContext):
        """Weight index and subtree degrees (plus a trailing 0) of one tree."""
        got = self._trees.get(ctx.uid)
        if got is None:
            pts = EdgePointSet(self.g, ctx.tree)
            widx = WeightRangeIndex(pts.xs, pts.ys, pts.ws)
            v = np.arange(ctx.n)
            deg = subtree_sums(widx, ctx.tree, v, v, np.zeros(ctx.n, dtype=bool))
            got = self._trees[ctx.uid] = (widx, np.append(deg, 0))
        return got

    def _eval_unique(self, items):
        ctxs = {ctx.uid: ctx for ctx, _ in items}
        flat = itertools.chain.from_iterable((ctx.uid,) + _row(req) for ctx, req in items)
        rows = np.fromiter(flat, dtype=np.int64, count=7 * len(items)).reshape(-1, 7)
        out = np.empty(len(items), dtype=np.int64)
        for uid, ctx in ctxs.items():
            pos = np.flatnonzero(rows[:, 0] == uid)
            _, da, db, u, v, sub, coef = rows[pos].T
            widx, deg = self._tree(ctx)
            value = deg[da] + deg[db]
            cross = np.flatnonzero(coef)
            value[cross] += coef[cross] * subtree_sums(widx, ctx.tree, u[cross], v[cross], sub[cross])
            out[pos] = value
        return out.tolist()
