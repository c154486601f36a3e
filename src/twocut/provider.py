"""The cost-provider contract and the lockstep round scheduler.

A provider answers batches of cut-value requests (see requests.py) with
exact values in the underlying graph; what differs between providers is the
resource being spent: nothing (in-memory indexes), counted oracle queries,
or stream passes. Search code is written against this contract only, which
is what makes the three execution models interchangeable.

All providers turn requests into values the same way. `batch_eval` decodes
each request once into an int64 row (tree slot, kind, a, b); this module
holds the only dispatch over request types. Rows are deduplicated with one
sorted packed key, and a row's value is subtree degrees plus at most one
crossing, read through small per-kind lookup arrays; per tree and batch one
rangeindex.subtree_sums call over a rectangle-sum index answers every
crossing. Every provider hands its hidden (u, v, w) edges (the graph in
memory, the oracle's graph, the stream's updates) to the constructor, which
nets them once; each new tree's dense prefix grid is built from the net
edges, here and nowhere else. In memory a larger graph's trees get a
merge-sort tree instead. Every `_eval_unique` meters before it reads values;
the formula is shared.

Each provider also carries `proxy`, the graph Step 4 samples on (its own
graph in memory, else the sparsifier), and `proxy_index` for the 1/3 filter:
the tree's own index when the proxy nets to the same edges as the hidden
ones, else a grid over the proxy.

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

from .graph import NESTED, ORTHOGONAL, SINGLE, RootedSpanTree
from .grid import PoPrefixGrid
from .rangeindex import edge_points, subtree_sums, tree_degrees
from .requests import CrossNested, CrossSub, DegSubtree, PairCut


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


# The kind column of a decoded request row (slot, kind, a, b): subtree degree,
# crossing of disjoint subtrees (a <= b), crossing of subtree b with the
# outside of its ancestor a, and the single, orthogonal and nested pair cuts
# (nested: a is the upper edge). One-vertex kinds repeat a in b.
DEG, CROSS_SUB, CROSS_NESTED, SINGLE_CUT, ORTHOGONAL_CUT, NESTED_CUT = range(6)
_PAIR_KINDS = {SINGLE: SINGLE_CUT, ORTHOGONAL: ORTHOGONAL_CUT, NESTED: NESTED_CUT}
# per kind, value = A_DEG deg[a] + B_DEG deg[b] + CROSS_COEF crossing, where
# crossing is the subtree_sums row (u = a, v = b, sub = IS_SUB)
A_DEG = np.array([1, 0, 0, 1, 1, 1])
B_DEG = np.array([0, 0, 0, 0, 1, 1])
CROSS_COEF = np.array([0, 1, 1, 0, -2, -2])
IS_SUB = np.array([False, True, False, False, True, False])


class CostProvider:
    """Base: batch dedup, the charged-degree mask, and the one evaluation
    every provider shares.

    A provider differs from the others only in its proxy, in its hidden
    edges and in what its `_eval_unique` meters before calling `_values`.
    Every tree it serves spans the same n vertices and gets a slot on first
    sight, which is its row in three (slots, n) tables: subtree sizes (the
    cut-query model prices sides by them), subtree degrees, and which
    DegSubtree requests were already charged (answered again for free).
    """

    def __init__(self, n, proxy, hidden):
        self.stats = RunStats()
        self.n = n
        self.proxy = proxy
        self._hidden = _net_edges(n, *hidden)  # (u, v, w) updates, netted
        self._proxy_is_own = proxy is not None and all(
            map(np.array_equal, self._hidden, _net_edges(n, proxy.eu, proxy.ev, proxy.ew)))
        self._slots = {}  # TreeContext uid -> slot
        self._trees = []
        self._index = []
        self._size = np.zeros((0, n), dtype=np.int64)
        self._deg = np.zeros((0, n), dtype=np.int64)
        self._charged = np.zeros((0, n), dtype=bool)

    def _rows(self, items):
        """(slot, kind, a, b) of each (ctx, request): the one request decoder."""
        last = slot = None
        for ctx, req in items:
            if ctx is not last:
                if ctx.uid not in self._slots:
                    if ctx.tree.n != self.n:
                        raise ValueError(f"a tree on {ctx.tree.n} vertices, the provider's graph has {self.n}")
                    self._slots[ctx.uid] = len(self._trees)
                    self._trees.append(ctx.tree)
                last, slot = ctx, self._slots[ctx.uid]
            if isinstance(req, CrossSub):
                yield (slot, CROSS_SUB, req.u, req.v) if req.u <= req.v else (slot, CROSS_SUB, req.v, req.u)
            elif isinstance(req, PairCut):
                p = req.pair
                yield slot, _PAIR_KINDS[p.kind], p.a, p.a if p.b is None else p.b
            elif isinstance(req, DegSubtree):
                yield slot, DEG, req.v, req.v
            elif isinstance(req, CrossNested):
                yield slot, CROSS_NESTED, req.u, req.v
            else:
                raise TypeError(f"unknown request {req!r}")

    def batch_eval(self, items):
        """items: list of (TreeContext, request); returns aligned exact values.

        The batch is decoded into one row table and deduplicated by sorting
        one packed key; the distinct rows come out grouped by tree. Rows
        other than already-charged DegSubtrees go to `_eval_unique` in one
        call, so each is metered once.
        """
        if not items:
            return []
        flat = itertools.chain.from_iterable(self._rows(items))
        rows = np.fromiter(flat, dtype=np.int64, count=4 * len(items)).reshape(-1, 4)
        new = self._trees[len(self._index):]
        if new:
            self._index += [None] * len(new)
            self._size = np.vstack([self._size] + [t.size for t in new])
            self._deg = np.vstack((self._deg, np.zeros((len(new), self.n), dtype=np.int64)))
            self._charged = np.vstack((self._charged, np.zeros((len(new), self.n), dtype=bool)))
        n = self.n
        keys = rows @ np.array([len(A_DEG) * n * n, n * n, n, 1])
        order = np.argsort(keys)
        first = _run_starts(keys[order])
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(first) - 1
        unique = rows[order[first]]
        slot, kind, a, _ = unique.T
        deg = kind == DEG
        values = self._deg[slot, a]
        fresh = ~(deg & self._charged[slot, a])
        if fresh.any():
            values[fresh] = self._eval_unique(unique[fresh])
            self._charged[slot[deg], a[deg]] = True
        return values[inverse].tolist()

    def _eval_unique(self, rows):
        """Meter the distinct uncached request rows, then return self._values(rows)."""
        raise NotImplementedError

    def proxy_index(self, ctx):
        """Step 4's unmetered rect_weights index over the proxy under ctx's tree."""
        if self._proxy_is_own:
            return self._index[self._slots[ctx.uid]]  # built by the tree's first batch (Step 1)
        h = self.proxy
        return self._grid(ctx.tree.po, h.eu, h.ev, h.ew)

    def _grid(self, po, u, v, w):
        """The (u, v, w) edge columns as a PoPrefixGrid under the post-order po."""
        return PoPrefixGrid(self.n, *edge_points(po, u, v), w)

    def _indexes(self, trees):
        """One rect_weights index over the (min po, max po) edge points of
        each tree not seen yet: here a grid over the netted hidden edges."""
        return [self._grid(t.po, *self._hidden) for t in trees]

    def _values(self, rows):
        """Exact values of request rows grouped by tree, as an int64 array.

        A tree's first batch computes all its subtree degrees at once, since
        Step 1 needs them all anyway and the later steps keep re-reading
        them; after that each batch costs one subtree_sums call per tree
        with crossings.
        """
        slot, kind, a, b = rows.T
        starts = np.flatnonzero(_run_starts(slot))
        slots = slot[starts].tolist()
        new = [s for s in slots if self._index[s] is None]
        for s, idx in zip(new, self._indexes([self._trees[s] for s in new])):
            self._index[s] = idx
            self._deg[s] = tree_degrees(idx, self._trees[s])
        value = A_DEG[kind] * self._deg[slot, a] + B_DEG[kind] * self._deg[slot, b]
        coef = CROSS_COEF[kind]
        for s, lo, hi in zip(slots, starts.tolist(), starts[1:].tolist() + [len(slot)]):
            r = lo + np.flatnonzero(coef[lo:hi])
            if len(r):  # degree-only batches (Step 1) make no rectangle call
                value[r] += coef[r] * subtree_sums(self._index[s], self._trees[s], a[r], b[r], IS_SUB[kind[r]])
        return value


def _net_edges(n, eu, ev, ew):
    """(u, v, w) int64 columns of the vertex pairs whose weights do not cancel, u < v, in key order."""
    keys, inverse = np.unique(np.minimum(eu, ev) * n + np.maximum(eu, ev), return_inverse=True)
    net = np.zeros(len(keys), dtype=np.int64)
    np.add.at(net, inverse, ew)
    return (*np.divmod(keys[net != 0], n), net[net != 0])


def _run_starts(sorted_keys):
    """True where a run of equal keys begins (at least one key)."""
    return np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))


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
