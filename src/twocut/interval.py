"""Minimum search over cost matrices with monotone column minima.

The bipartite solver probes the middle column of its submatrix, finds the
first and last rows attaining the column minimum, and recurses left of the
column with the prefix rows and right of it with the suffix rows. Row order
matters: the first row must be the item nearest the split between the two
sides, which is the orientation that makes column minima monotone.

The whole-path search splits the point list in halves, recursively, and
solves one bipartite instance across each split; every unordered pair is
covered exactly once, at the level where the two items first separate.

One solver holds many instances on a single frontier of (instance, rl, rh,
cl, ch) nodes and exposes the probes of all of them one recursion depth at
a time, so each depth is one batch. That is what keeps the stream
implementation at one pass per depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass
class ProbeLedger:
    """Monotone counter of matrix entries materialized."""

    probes: int = 0


@dataclass
class CostMatrixHandle:
    """Lazy matrix access: rows x cols of probe keys plus a batch evaluator.

    Only probed entries are ever materialized. `evaluator` receives a list of
    (row_item, col_item) pairs and returns their values in order.
    """

    rows: Sequence
    cols: Sequence
    evaluator: Callable[[list], list]
    ledger: ProbeLedger = field(default_factory=ProbeLedger)


class BipartiteSolver:
    """Divide and conquer over (rows, cols) instances on one frontier of
    (instance, rl, rh, cl, ch) nodes; probes are pulled per depth via requests()."""

    def __init__(self, instances, ledger=None):
        self.instances = [(list(rows), list(cols)) for rows, cols in instances]
        if not self.instances or not all(rows and cols for rows, cols in self.instances):
            raise ValueError("no instance, or an empty row or column list")
        self.ledger = ledger if ledger is not None else ProbeLedger()
        self._frontier = [(i, 0, len(rows) - 1, 0, len(cols) - 1) for i, (rows, cols) in enumerate(self.instances)]
        self._pending = None
        self.best = (math.inf,)  # (value, instance, row_index, col_index) once probed

    def done(self) -> bool:
        return not self._frontier

    def requests(self):
        """(row_item, col_item) probes for every frontier node at this depth."""
        self._pending = []
        out = []
        for node in self._frontier:
            i, rl, rh, cl, ch = node
            if rl == rh:
                cells = [(rl, c) for c in range(cl, ch + 1)]
            elif cl == ch:
                cells = [(r, cl) for r in range(rl, rh + 1)]
            else:
                mid = cl + (ch - cl) // 2
                cells = [(r, mid) for r in range(rl, rh + 1)]
            self._pending.append((node, cells))
            rows, cols = self.instances[i]
            out.extend((rows[r], cols[c]) for r, c in cells)
        self.ledger.probes += len(out)
        return out

    def advance(self, values):
        """Consume values for the last requests() batch and spawn children."""
        it = iter(values)
        frontier = []
        for node, cells in self._pending:
            vals = [next(it) for _ in cells]
            i, rl, rh, cl, ch = node
            if rl == rh or cl == ch:
                self.best = min([self.best] + [(v, i, r, c) for (r, c), v in zip(cells, vals)])
                continue
            mid = cl + (ch - cl) // 2
            vmin = min(vals)
            first = vals.index(vmin)
            last = len(vals) - 1 - vals[::-1].index(vmin)
            i_s, i_t = rl + first, rl + last
            self.best = min(self.best, (vmin, i, i_s, mid))
            if cl <= mid - 1:
                frontier.append((i, rl, i_s, cl, mid - 1))
            if mid + 1 <= ch:
                frontier.append((i, i_t, rh, mid + 1, ch))
        self._pending = None
        self._frontier = frontier

    def result(self):
        """(value, row_item, col_item) of the least probe, the first instance winning ties."""
        value, i, r, c = self.best
        rows, cols = self.instances[i]
        return value, rows[r], cols[c]


def bipartite_interval(handle: CostMatrixHandle):
    """Global minimum of the handle's matrix: (value, row_item, col_item)."""
    solver = BipartiteSolver([(handle.rows, handle.cols)], handle.ledger)
    while not solver.done():
        solver.advance(handle.evaluator(solver.requests()))
    return solver.result()


def split_pairs(items):
    """(first half, second half) splits covering every unordered pair once."""
    out = []
    stack = [(0, len(items))]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        half = (hi - lo + 1) // 2
        out.append((items[lo : lo + half], items[lo + half : hi]))
        stack.append((lo, lo + half))
        stack.append((lo + half, hi))
    return out


def self_pair_instances(items):
    """Bipartite instances whose union covers all pairs in `items`.

    Rows are the first half reversed (nearest the split first); columns are
    the second half in order.
    """
    return [(a[::-1], b) for a, b in split_pairs(items)]


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
    rows = len(matrix)
    if rows == 0:
        return True
    cols = len(matrix[0])
    for j in range(cols - 1):
        prev = None
        for i in range(rows):
            d = matrix[i][j] - matrix[i][j + 1]
            if prev is not None and d < prev:
                return False
            prev = d
    return True
