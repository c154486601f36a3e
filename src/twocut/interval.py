"""Minimum search over cost matrices with monotone column minima.

The bipartite solver probes the middle column of its submatrix, finds the
first and last rows attaining the column minimum, and recurses left of the
column with the prefix rows and right of it with the suffix rows. Row order
matters: the first row must be the item nearest the split between the two
sides, which is the orientation that makes column minima monotone.

The whole-path search splits the point list in halves, solves the bipartite
problem across the split, and recurses into each half; every unordered pair
is covered exactly once, at the level where the two items first separate.

Solvers expose their probes one recursion depth at a time, so a scheduler
can merge the frontiers of many instances into one batch per round. That is
what keeps the stream implementation at one pass per depth.
"""

from __future__ import annotations

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
    """One divide-and-conquer run; probes are pulled per depth via requests()."""

    def __init__(self, rows, cols, ledger=None):
        if not rows or not cols:
            raise ValueError("empty row or column list")
        self.rows = list(rows)
        self.cols = list(cols)
        self.ledger = ledger if ledger is not None else ProbeLedger()
        self._frontier = [(0, len(self.rows) - 1, 0, len(self.cols) - 1)]
        self._pending = None
        self.best = None  # (value, row_index, col_index)

    def done(self) -> bool:
        return not self._frontier

    def requests(self):
        """(row_item, col_item) probes for every frontier node at this depth."""
        self._pending = []
        out = []
        for node in self._frontier:
            rl, rh, cl, ch = node
            if rl == rh:
                cells = [(rl, c) for c in range(cl, ch + 1)]
            elif cl == ch:
                cells = [(r, cl) for r in range(rl, rh + 1)]
            else:
                mid = cl + (ch - cl) // 2
                cells = [(r, mid) for r in range(rl, rh + 1)]
            self._pending.append((node, cells))
            out.extend(cells)
        self.ledger.probes += len(out)
        return [(self.rows[r], self.cols[c]) for r, c in out]

    def advance(self, values):
        """Consume values for the last requests() batch and spawn children."""
        it = iter(values)
        frontier = []
        for node, cells in self._pending:
            vals = [next(it) for _ in cells]
            rl, rh, cl, ch = node
            if rl == rh or cl == ch:
                for (r, c), v in zip(cells, vals):
                    self._record(v, r, c)
                continue
            mid = cl + (ch - cl) // 2
            vmin = min(vals)
            first = vals.index(vmin)
            last = len(vals) - 1 - vals[::-1].index(vmin)
            i_s, i_t = rl + first, rl + last
            self._record(vmin, i_s, mid)
            if cl <= mid - 1:
                frontier.append((rl, i_s, cl, mid - 1))
            if mid + 1 <= ch:
                frontier.append((i_t, rh, mid + 1, ch))
        self._pending = None
        self._frontier = frontier

    def _record(self, value, r, c):
        cand = (value, r, c)
        if self.best is None or cand < self.best:
            self.best = cand

    def result(self):
        value, r, c = self.best
        return value, self.rows[r], self.cols[c]


def bipartite_interval(handle: CostMatrixHandle):
    """Global minimum of the handle's matrix: (value, row_item, col_item)."""
    solver = BipartiteSolver(handle.rows, handle.cols, handle.ledger)
    while not solver.done():
        probes = solver.requests()
        solver.advance(handle.evaluator(probes))
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


def self_pair_solvers(items, ledger):
    """Independent bipartite solvers whose union covers all pairs in `items`.

    Rows are the first half reversed (nearest the split first); columns are
    the second half in order. The solvers share one ledger but are mutually
    independent, so a scheduler may run them in lockstep.
    """
    return [BipartiteSolver(list(reversed(a)), list(b), ledger) for a, b in split_pairs(items)]


def interval_self(evaluator, path_items, ledger=None):
    """Minimum cost over all unordered pairs of `path_items`.

    `path_items` must be listed along the path; `evaluator` is the batch
    entry oracle. Returns (value, (item_i, item_j)).
    """
    if len(path_items) < 2:
        raise ValueError("need at least two items")
    ledger = ledger if ledger is not None else ProbeLedger()
    solvers = self_pair_solvers(list(path_items), ledger)
    best = None
    for s in solvers:
        while not s.done():
            s.advance(evaluator(s.requests()))
        cand = s.result()
        if best is None or cand[0] < best[0]:
            best = cand
    return best[0], (best[1], best[2])


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
