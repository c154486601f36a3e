"""Minimum search over cost matrices with monotone column minima.

The bipartite solver probes the middle column of its submatrix, finds the
first and last rows attaining the column minimum, and recurses left of the
column with the prefix rows and right of it with the suffix rows. Row order
matters: the first row must be the item nearest the split between the two
sides, which is the orientation that makes column minima monotone.

The whole-path search splits the point list in halves, recursively, and
solves one bipartite instance across each split; every unordered pair is
covered exactly once, at the level where the two items first separate.

One solver holds many instances, back to back in flat arrays (Instances, which join
concatenates: a tree's Step 3 and Step 5 instances share one solver), on one frontier
of (rl, rh, cl, ch) int64 columns, and hands out their probes one recursion depth per
batch: np.repeat expands nodes, segment minima and argmins spawn children.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class ProbeLedger:
    """Monotone counter of matrix entries materialized."""

    probes: int = 0


@dataclass
class CostMatrixHandle:
    """Lazy matrix access: rows x cols of probe keys plus a batch evaluator.

    Only probed entries are ever materialized. `evaluator` receives an array
    of (row_item, col_item) rows and returns their values in order.
    """

    rows: Sequence
    cols: Sequence
    evaluator: Callable[[np.ndarray], list]
    ledger: ProbeLedger = field(default_factory=ProbeLedger)


def runs(first, count, step=1):
    """first[i] + step * j for j < count[i], run after run, as one array."""
    at = np.repeat(first - step * (np.cumsum(count) - count), count)  # first - step * (the run's start)
    return at + step * np.arange(len(at))


class Instances(Sequence):
    """Bipartite (rows, cols) instances back to back: instance i's rows are
    rows[row_at[i]:row_at[i + 1]], its columns cols[col_at[i]:col_at[i + 1]].
    Indexing gives one instance as (rows, cols) lists."""

    def __init__(self, rows, row_count, cols, col_count):
        self.rows, self.cols = rows, cols
        self.row_at, self.col_at = (np.concatenate(([0], np.cumsum(c, dtype=np.int64))) for c in (row_count, col_count))

    @classmethod
    def of(cls, pairs):
        """From (rows, cols) pairs of item sequences."""
        rows, cols = ([np.asarray(x) for x in side] for side in zip(*pairs or [([], [])]))
        return cls(np.concatenate(rows), [len(x) for x in rows], np.concatenate(cols), [len(x) for x in cols])

    @classmethod
    def join(cls, parts):
        """The instances of several Instances back to back."""
        return cls(np.concatenate([p.rows for p in parts]), np.concatenate([np.diff(p.row_at) for p in parts]),
                   np.concatenate([p.cols for p in parts]), np.concatenate([np.diff(p.col_at) for p in parts]))

    def __len__(self):
        return len(self.row_at) - 1

    def __getitem__(self, i):
        i = range(len(self))[i]  # IndexError past the end
        (r0, r1), (c0, c1) = self.row_at[i : i + 2], self.col_at[i : i + 2]
        return self.rows[r0:r1].tolist(), self.cols[c0:c1].tolist()


class BipartiteSolver:
    """Divide and conquer over (rows, cols) instances, a list of pairs or an
    Instances, on one frontier; probes are pulled per depth via requests()."""

    def __init__(self, instances, ledger=None):
        self.instances = instances if isinstance(instances, Instances) else Instances.of(instances)
        at = (self.instances.row_at, self.instances.col_at)
        self._frontier = np.array([y for x in at for y in (x[:-1], x[1:] - 1)])  # rl, rh, cl, ch
        if not len(self.instances) or (self._frontier[1::2] < self._frontier[::2]).any():
            raise ValueError("no instance, or an empty row or column list")
        self.ledger = ledger if ledger is not None else ProbeLedger()
        self._pending = None
        self.best = (math.inf,)  # (value, row, col) of the least probe, by flat index, once probed

    def done(self) -> bool:
        return not self._frontier.shape[1]

    def requests(self):
        """(row_item, col_item) probes for every frontier node at this depth, as an array."""
        rl, rh, cl, ch = self._frontier
        whole_row = rl == rh  # a one-row node probes its row, any other its middle column
        count = np.where(whole_row, ch - cl + 1, rh - rl + 1)
        start = np.cumsum(count) - count
        node = np.repeat(np.arange(len(count)), count)
        j = np.arange(len(node)) - start[node]  # a probe's place in its node
        r = rl[node] + j * ~whole_row[node]
        c = np.where(whole_row, cl, cl + (ch - cl) // 2)[node] + j * whole_row[node]
        self._pending = start, node, j, r, c
        self.ledger.probes += len(r)
        return np.array((self.instances.rows[r], self.instances.cols[c])).swapaxes(0, 1)

    def advance(self, values):
        """Consume values for the last requests() batch and spawn children."""
        start, node, j, r, c = self._pending
        v = np.asarray(values)
        low = np.minimum.reduceat(v, start)
        at_min = v == low[node]
        first = np.minimum.reduceat(np.where(at_min, j, len(v)), start)
        last = np.maximum.reduceat(np.where(at_min, j, -1), start)
        i = int(np.argmin(v))  # probes come in (row, col) order, so the first least one is the least
        self.best = min(self.best, (v[i].item(), int(r[i]), int(c[i])))
        rl, rh, cl, ch = self._frontier
        mid = cl + (ch - cl) // 2
        inner = (rl != rh) & (cl != ch)
        kids = np.array(((rl, rl + first, cl, mid - 1), (rl + last, rh, mid + 1, ch)))  # left, right child
        keep = np.array((inner & (cl < mid), inner & (mid < ch)))
        self._frontier = kids.transpose(1, 2, 0)[:, keep.T]  # each node's left child, then its right

    def result(self):
        """(value, row_item, col_item) of the least probe, the first instance winning ties."""
        value, r, c = self.best
        return value, self.instances.rows[r].tolist(), self.instances.cols[c].tolist()


def bipartite_interval(handle: CostMatrixHandle):
    """Global minimum of the handle's matrix: (value, row_item, col_item)."""
    solver = BipartiteSolver([(handle.rows, handle.cols)], handle.ledger)
    while not solver.done():
        solver.advance(handle.evaluator(solver.requests()))
    return solver.result()


def self_pair_instances(items, starts=(0,)):
    """Bipartite instances whose union covers all pairs inside each run of
    `items` (one run from each entry of starts to the next), as Instances.

    Each run is split in halves, recursively; per split, the rows are the
    first half reversed (nearest the split first) and the columns the second
    half in order. The instances of a run follow its splits depth first,
    second halves first, and runs follow each other.
    """
    items, lo = np.asarray(items), np.asarray(starts, dtype=np.int64)
    hi = np.concatenate((lo[1:], [len(items)]))
    splits = []
    while len(lo):
        keep = hi - lo >= 2
        lo, hi = lo[keep], hi[keep]
        mid = (lo + hi + 1) // 2
        splits.append((lo, hi))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    lo, hi = (np.concatenate(x) for x in zip(*splits))
    order = np.lexsort((lo, -hi, np.searchsorted(starts, lo, side="right")))
    lo, hi = lo[order], hi[order]
    mid = (lo + hi + 1) // 2
    return Instances(items[runs(mid - 1, mid - lo, -1)], mid - lo, items[runs(mid, hi - mid)], hi - mid)


def interval_self(evaluator, path_items, ledger=None):
    """Minimum cost over all unordered pairs of `path_items`.

    `path_items` must be listed along the path; `evaluator` is the batch
    entry oracle. Returns (value, (item_i, item_j)).
    """
    if len(path_items) < 2:
        raise ValueError("need at least two items")
    solver = BipartiteSolver(self_pair_instances(list(path_items)), ledger)
    while not solver.done():
        solver.advance(evaluator(solver.requests()))
    value, a, b = solver.result()
    return value, (a, b)


def monge_check(matrix) -> bool:
    """True iff every column-difference vector M[i][j] - M[i][j+1] is
    non-decreasing in i (the property the solver's recursion relies on)."""
    m = np.asarray(matrix)
    return not len(m) or bool((np.diff(m[:, :-1] - m[:, 1:], axis=0) >= 0).all())
