"""The cost-provider contract and the lockstep round scheduler.

A provider answers batches of cut-value requests (see requests.py) with
exact values in the underlying graph, spending nothing (in-memory indexes),
counted oracle queries or stream passes; search code is written against this
contract only, so the three execution models are interchangeable.

All providers turn requests into values the same way. `batch_eval` takes a
requests.RequestTable, the form the search yields, or a list of (tree,
request) items, which `_rows` encodes into one, and reads its columns as
int64 rows (tree slot, kind, a, b) with no per-request work. Rows are
deduplicated with one sorted packed key, and a row's value is subtree
degrees plus at most one crossing, read through small per-kind lookup
arrays. Every provider hands its hidden (u, v, w) edges (the graph in
memory, the oracle's graph, the stream's updates) to the constructor, which
nets them once. `admit` is the one place a tree gets its slot, tables, index
and subtree degrees, and a provider's own per-tree tables: the pipeline
admits all its packed trees before the search, and `batch_eval` admits the
trees first seen in a batch. The grids of the trees admitted together are
built from the net edges into one grid.GridBlock, here and nowhere else; one
rangeindex.subtree_sums call per block gives those trees all their subtree
degrees, and one per block and batch answers every crossing, each split
every CROSSING_ROWS rows. In memory a larger graph's trees get a merge-sort
tree each instead, read one call per tree and batch. Every `_eval_unique`
meters before it reads values; the formula is shared.

Each provider also carries `proxy`, the graph Step 4 finds partners on (its
own graph in memory, else the sparsifier), and `proxy_filter(*trees)`, Step
4's 1/3 filter on it: on the admitted trees' own indexes and degrees, one
filter for the trees of one `filter_key` (GridBlock), when the proxy nets to
the hidden edges, else on a grid over it, one tree at a time.

Requests are paired with the RootedSpanTree they refer to, which is also
the key of the tree's slot, so one provider serves many spanning trees in one
run and run_lockstep joins their rounds' tables into one batch, each tree's
first round (Step 1's degrees and Step 4's checks) or one depth of its solver:
under the stream model one batch is exactly one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .graph import RootedSpanTree
from .grid import GridBlock, PoPrefixGrid
from .interesting import ProxyFilter
from .rangeindex import WeightRangeIndex, edge_points, subtree_sums
from .requests import CROSS_SUB, DEG, RequestTable


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
            "trees_packed": self.trees_packed,
            "lambda_guesses": self.lambda_guesses,
            "wall_ms": self.wall_ms,
            "seed": seed,
        }
        return json.dumps(payload)


# per request kind (requests.py), value = A_DEG deg[a] + B_DEG deg[b] +
# CROSS_COEF crossing, where crossing is the subtree_sums row (u = a, v = b,
# sub = IS_SUB)
A_DEG = np.array([1, 0, 0, 1, 1, 1])
B_DEG = np.array([0, 0, 0, 0, 1, 1])
CROSS_COEF = np.array([0, 1, 1, 0, -2, -2])
IS_SUB = np.array([False, True, False, False, True, False])
# rows per subtree_sums call in CostProvider._crossings, so that its
# temporaries (about 160 bytes a row) stay bounded on any batch
CROSSING_ROWS = 4096


class CostProvider:
    """Base: batch dedup, the charged-degree mask, and the one evaluation
    every provider shares.

    A provider differs from the others only in its proxy, in its hidden
    edges, in what its `_eval_unique` meters before calling `_values`, and
    in `_dense`: whether its trees get block grids (else merge-sort trees).
    Every tree it serves spans the same n vertices and gets a slot when
    admitted, which is its row in the (slots, n) tables: subtree sizes (the
    cut-query model checks its sides by them), post-order ranges lo and hi,
    subtree degrees, and which DegSubtree requests were already charged
    (answered again for free); and its GridBlock and table offset there.
    """

    _dense = True

    def __init__(self, n, proxy, hidden):
        self.stats = RunStats()
        self.n = n
        self.proxy = proxy
        self._hidden = _net_edges(n, *hidden)  # (u, v, w) updates, netted
        self._proxy_is_own = proxy is not None and all(
            map(np.array_equal, self._hidden, _net_edges(n, proxy.eu, proxy.ev, proxy.ew)))
        self._slots = {}  # RootedSpanTree -> slot
        self._trees = []
        self._index = []
        self._blocks = []  # GridBlocks, one per admit that brought new trees
        self._size, self._lo, self._hi, self._deg = (np.zeros((0, n), dtype=np.int64) for _ in range(4))
        self._charged = np.zeros((0, n), dtype=bool)
        self._block = np.zeros(0, dtype=np.int64)
        self._at = np.zeros(0, dtype=np.int64)

    def _rows(self, items):
        """(slot, kind, a, b) int64 rows of a RequestTable or of a list of (tree,
        request) items, with a <= b in CrossSub rows (a mirror is the same row)."""
        table = items if isinstance(items, RequestTable) else RequestTable.from_items(items)
        slots = np.array([self._slot(t) for t in table.trees], dtype=np.int64)
        rows = np.column_stack((slots[table.rows[:, 0]], table.rows[:, 1:]))
        swap = (rows[:, 1] == CROSS_SUB) & (rows[:, 2] > rows[:, 3])
        rows[swap, 2:] = rows[swap, 3:1:-1]
        return rows

    def batch_eval(self, items):
        """Aligned exact values, as a list, of a RequestTable or a list of (tree,
        request) items. The batch admits its new trees together; its rows are
        deduplicated by sorting one packed key, coming out grouped by tree, and
        all but already-charged DegSubtrees go to `_eval_unique` in one call."""
        if not len(items):
            return []
        rows = self._rows(items)
        self.admit()
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

    def admit(self, trees=()):
        """Slot the unseen trees, then give every slotted tree that lacks them its
        rows of the (slots, n) tables, its index over the net hidden edges and
        all its subtree degrees: Step 1 reads those, Step 4 filters on them and
        the later steps keep re-reading them. The grids of the trees indexed by
        one call share one GridBlock. Unmetered; a second call adds nothing."""
        for t in trees:
            self._slot(t)
        new, n, (u, v, w) = self._trees[len(self._index):], self.n, self._hidden
        if not new:
            return
        k, slots = len(new), np.arange(len(self._index), len(self._trees))
        self._size = np.vstack([self._size] + [t.size for t in new])
        self._lo = np.vstack([self._lo] + [t.lo for t in new])
        self._hi = np.vstack([self._hi] + [t.hi for t in new])
        self._charged = np.vstack((self._charged, np.zeros((k, n), dtype=bool)))
        points = [(*edge_points(t.po, u, v), w) for t in new]
        if self._dense:
            self._blocks.append(GridBlock(n, points))
        self._index += self._blocks[-1].grids if self._dense else [WeightRangeIndex(*p) for p in points]
        self._block = np.append(self._block, np.full(k, len(self._blocks) - 1 if self._dense else -1))
        self._at = np.append(self._at, np.arange(k) * (n + 1) ** 2)  # read on a GridBlock only
        x = np.tile(np.arange(n), k)
        deg = self._crossings(np.repeat(slots, n), x, x, np.zeros(len(x), dtype=bool))
        self._deg = np.vstack((self._deg, deg.reshape(k, n)))

    def _slot(self, t: RootedSpanTree):
        """t's slot, appending t to the slotted trees on first sight."""
        if t not in self._slots:
            if t.n != self.n:
                raise ValueError(f"a tree on {t.n} vertices, the provider's graph has {self.n}")
            self._slots[t] = len(self._trees)
            self._trees.append(t)
        return self._slots[t]

    def proxy_filter(self, *trees: RootedSpanTree):
        """Step 4's unmetered ProxyFilter over the proxy under admitted trees: for
        several trees, which must share one filter_key, their GridBlock at each
        tree's table offset and their subtree degrees, stacked as in
        PathStack.gather; for one tree, the same on its own index when the proxy
        nets to the hidden edges, else a grid over the proxy."""
        if len(trees) > 1:
            keys = {self.filter_key(t) for t in trees}
            if None in keys or len(keys) > 1:
                raise ValueError("trees filtered together must share one GridBlock of a proxy that nets to the graph")
            s = [self._slots[t] for t in trees]
            flat = SimpleNamespace(n=self.n, lo=self._lo[s].ravel(), hi=self._hi[s].ravel())
            at = np.repeat(self._at[s], self.n)
            return ProxyFilter(self._blocks[self._block[s[0]]], flat, self._deg[s].ravel(), at)
        (t,) = trees
        if self._proxy_is_own:
            return ProxyFilter(self._index[self._slots[t]], t, self._deg[self._slots[t]])
        h = self.proxy
        return ProxyFilter(PoPrefixGrid(self.n, *edge_points(t.po, h.eu, h.ev), h.ew), t)

    def filter_key(self, tree):
        """The GridBlock whose trees share one proxy_filter call; None for a tree filtered alone."""
        s = self._slots.get(tree)
        return int(self._block[s]) if self._proxy_is_own and s is not None and self._block[s] >= 0 else None

    def _crossings(self, slot, u, v, sub):
        """subtree_sums of rows (slot, u, v, sub) sorted by slot: one call per
        run of rows on one GridBlock, reading the lo/hi tables of all slots
        at flat index slot * n + vertex, or per merge-sort tree, and one more
        per CROSSING_ROWS rows of a longer run."""
        out = np.empty(len(slot), dtype=np.int64)
        group = self._block[slot] if self._dense else slot
        starts = np.flatnonzero(_run_starts(group)).tolist()
        flat = SimpleNamespace(n=self.n, lo=self._lo.reshape(-1), hi=self._hi.reshape(-1))
        for start, end in zip(starts, starts[1:] + [len(slot)]):
            g = int(group[start])
            for lo in range(start, end, CROSSING_ROWS):
                hi = min(lo + CROSSING_ROWS, end)
                s = slot[lo:hi]
                if self._dense:
                    out[lo:hi] = subtree_sums(self._blocks[g], flat, s * self.n + u[lo:hi], s * self.n + v[lo:hi],
                                              sub[lo:hi], self._at[s])
                else:
                    out[lo:hi] = subtree_sums(self._index[g], self._trees[g], u[lo:hi], v[lo:hi], sub[lo:hi])
        return out

    def _values(self, rows):
        """Exact values of request rows grouped by admitted tree, as an int64
        array: every crossing is read in one _crossings call (none in Step 1,
        which reads degrees only)."""
        slot, kind, a, b = rows.T
        value = A_DEG[kind] * self._deg[slot, a] + B_DEG[kind] * self._deg[slot, b]
        r = np.flatnonzero(CROSS_COEF[kind])
        if len(r):
            value[r] += CROSS_COEF[kind[r]] * self._crossings(slot[r], a[r], b[r], IS_SUB[kind[r]])
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

    Each task yields a RequestTable, or a list of (tree, request) items, and
    receives the aligned values as an int64 array; the round's tables are
    joined into one batch. Tasks that finish early drop out of later rounds.
    """
    sends, rounds = [(task, None) for task in tasks], 0
    while True:
        live = []
        for task, values in sends:
            try:
                live.append((task, task.send(values)))
            except StopIteration:
                pass
        if not live:
            return rounds
        tables = [r if isinstance(r, RequestTable) else RequestTable.from_items(r) for _, r in live]
        batch = RequestTable.join(tables)
        values = np.array(provider.batch_eval(batch) if len(batch) else [], dtype=np.int64)
        rounds += 1
        sends = zip([task for task, _ in live], np.split(values, np.cumsum([len(t) for t in tables])[:-1]))
