"""Scalar reference for the search's per-probe work, one request object at a time.

These are the loops the library used before its probes became int64 tables
(interval.BipartiteSolver on array frontiers, graph.classify_pairs,
tworespect.SearchSink on one lexsort per round). Tests pin the array forms
against them probe for probe.
"""

import math

from twocut.graph import NESTED, ORTHOGONAL, TreeEdgePair, pair_tie_key


class ReferenceSolver:
    """The loop BipartiteSolver: (instance, rl, rh, cl, ch) tuples, one Python
    list of cells per frontier node."""

    def __init__(self, instances):
        self.instances = [(list(rows), list(cols)) for rows, cols in instances]
        if not self.instances or not all(rows and cols for rows, cols in self.instances):
            raise ValueError("no instance, or an empty row or column list")
        self.probes = 0
        self._frontier = [(i, 0, len(rows) - 1, 0, len(cols) - 1) for i, (rows, cols) in enumerate(self.instances)]
        self._pending = None
        self.best = (math.inf,)  # (value, instance, row_index, col_index) once probed

    def done(self):
        return not self._frontier

    def requests(self):
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
        self.probes += len(out)
        return out

    def advance(self, values):
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
        value, i, r, c = self.best
        rows, cols = self.instances[i]
        return value, rows[r], cols[c]


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


def reference_self_pair_instances(items):
    """Rows the first half reversed (nearest the split first), columns the second half."""
    return [(a[::-1], b) for a, b in split_pairs(items)]


def reference_classify_pair(t, x, y):
    """classify_pair by scalar range tests."""
    if x == y:
        raise ValueError("a pair needs two distinct edges")
    if t.orthogonal(x, y):
        if t.po[x] > t.po[y]:
            x, y = y, x
        return TreeEdgePair(ORTHOGONAL, x, y)
    if t.is_ancestor(x, y):
        return TreeEdgePair(NESTED, x, y)
    return TreeEdgePair(NESTED, y, x)


class ReferenceSink:
    """The per-probe SearchSink.offer: the least value, then the least pair_tie_key."""

    def __init__(self):
        self.value = self.pair = None

    def offer(self, tree, values, pairs):
        v = min(values)
        p = min((p for p, x in zip(pairs, values) if x == v), key=lambda p: pair_tie_key(tree, p))
        if self.value is None or (v, pair_tie_key(tree, p)) < (self.value, pair_tie_key(tree, self.pair)):
            self.value, self.pair = v, p
