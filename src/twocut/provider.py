"""The cost-provider contract and the lockstep round scheduler.

A provider answers batches of cut-value requests (see requests.py) with
exact values in the underlying graph; what differs between providers is the
resource being spent: nothing (in-memory indexes), counted oracle queries,
or stream passes. Search code is written against this contract only, which
is what makes the three execution models interchangeable.

All providers turn requests into values the same way: each request becomes
one row of columns (`_row`), a row is subtree degrees plus at most one
crossing, and per tree and batch one rangeindex.subtree_sums call over a
rectangle-sum index answers every crossing. The providers hand over
different indexes (a merge-sort tree over the graph, or a dense prefix grid
over the oracle's hidden edges or the stream's net updates) and meter
differently; the formula is shared.

Requests are paired with the TreeContext they refer to, so one provider can
serve many spanning trees in the same run and a scheduler can merge their
rounds: all solver instances advance one recursion depth per provider batch,
and under the stream model one batch is exactly one pass.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .graph import SINGLE, ORTHOGONAL, RootedSpanTree
from .rangeindex import subtree_sums, tree_degrees
from .requests import CrossNested, CrossSub, DegSubtree, PairCut, request_key


@dataclass
class RunStats:
    """Resource ledgers; fields a model never touches stay zero."""

    probes: int = 0
    queries: int = 0
    passes: int = 0
    tracked_words: int = 0
    wall_ms: int = 0
    trees_packed: int = 0
    lambda_guesses: int = 0

    def to_json(self, value, seed) -> str:
        payload = {
            "value": value,
            "queries": self.queries,
            "passes": self.passes,
            "tracked_words": self.tracked_words,
            "probes": self.probes,
            "wall_ms": self.wall_ms,
            "seed": seed,
        }
        return json.dumps(payload)


_ctx_ids = itertools.count()


class TreeContext:
    """One rooted spanning tree viewed by providers: a uid to key caches by."""

    def __init__(self, tree: RootedSpanTree):
        self.uid = next(_ctx_ids)
        self.tree = tree


def _row(req):
    """(degree a, degree b, crossing u, crossing v, CrossSub?, crossing coefficient).

    The value is deg[a] + deg[b] + coefficient * crossing, where index -1 of
    the degree array reads 0 and coefficient 0 means no crossing; the
    crossing is the subtree_sums row (u, v, CrossSub?).
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


def tree_rows(items):
    """The _row columns of (ctx, request) items, grouped by tree in first-seen
    order: a list of (ctx, positions in items, (da, db, u, v, sub, coef))."""
    ctxs = {ctx.uid: ctx for ctx, _ in items}
    flat = itertools.chain.from_iterable((ctx.uid,) + _row(req) for ctx, req in items)
    rows = np.fromiter(flat, dtype=np.int64, count=7 * len(items)).reshape(-1, 7)
    groups = []
    for uid, ctx in ctxs.items():
        pos = np.flatnonzero(rows[:, 0] == uid)
        groups.append((ctx, pos, tuple(rows[pos, 1:].T)))
    return groups


class CostProvider:
    """Base: batch dedup, caching of subtree degrees across rounds, and the
    one evaluation every provider shares.

    A provider differs from the others only in the rectangle-sum index it
    hands over for each tree (`_indexes`) and in what its `_eval_unique`
    meters before calling `_values`.
    """

    def __init__(self):
        self.stats = RunStats()
        self._deg_cache = {}
        self._trees = {}

    def batch_eval(self, items):
        """items: list of (TreeContext, request); returns aligned exact values."""
        keys = [request_key(ctx.uid, req) for ctx, req in items]
        todo = {}
        for key, (ctx, req) in zip(keys, items):
            if key in self._deg_cache or key in todo:
                continue
            todo[key] = (ctx, req)
        answers = {}
        if todo:
            fresh = self._eval_unique(list(todo.values()))
            for key, value in zip(todo.keys(), fresh):
                answers[key] = value
                if key[1] == 0:  # DegSubtree: cheap to keep, reused constantly
                    self._deg_cache[key] = value
        return [self._deg_cache.get(k, answers.get(k)) for k in keys]

    def _eval_unique(self, items):
        """Meter the distinct uncached requests, then return self._values(tree_rows(items))."""
        raise NotImplementedError

    def _indexes(self, ctxs):
        """One rect_weights index over the (min po, max po) edge points of
        each tree in ctxs; called once per batch with the trees not seen yet."""
        raise NotImplementedError

    def _values(self, groups):
        """Exact values of tree_rows groups, in item order.

        A tree's first batch computes all its subtree degrees at once, since
        Step 1 needs them all anyway and the later steps keep re-reading
        them; after that each batch costs one subtree_sums call per tree.
        """
        new = [ctx for ctx, _, _ in groups if ctx.uid not in self._trees]
        for ctx, idx in zip(new, self._indexes(new)):
            self._trees[ctx.uid] = (idx, np.append(tree_degrees(idx, ctx.tree), 0))
        out = np.empty(sum(len(pos) for _, pos, _ in groups), dtype=np.int64)
        for ctx, pos, (da, db, u, v, sub, coef) in groups:
            idx, deg = self._trees[ctx.uid]
            value = deg[da] + deg[db]
            cross = np.flatnonzero(coef)
            if len(cross):  # degree-only batches (Step 1) skip the rectangle call
                value[cross] += coef[cross] * subtree_sums(idx, ctx.tree, u[cross], v[cross], sub[cross])
            out[pos] = value
        return out.tolist()

    def proxy_graph(self):
        """Sparsifier handle for candidate filtering; None when values are
        already cheap enough to check exactly."""
        return None


def run_lockstep(tasks, provider: CostProvider):
    """Drive request-yielding generators in rounds, one batch per round.

    Each task yields a list of (ctx, request) items and receives the aligned
    values; tasks that finish early simply drop out of later rounds.
    """
    live = []
    for task in tasks:
        try:
            live.append((task, task.send(None)))
        except StopIteration:
            pass
    rounds = 0
    while live:
        batch = []
        for _, reqs in live:
            batch.extend(reqs)
        values = provider.batch_eval(batch) if batch else []
        rounds += 1
        pos = 0
        advanced = []
        for task, reqs in live:
            chunk = values[pos : pos + len(reqs)]
            pos += len(reqs)
            try:
                advanced.append((task, task.send(chunk)))
            except StopIteration:
                pass
        live = advanced
    return rounds
