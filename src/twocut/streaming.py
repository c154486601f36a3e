"""Dynamic-stream execution: passes over a churned edge stream.

The harness turns a graph into a seeded sequence of weighted edge inserts
and deletes whose net effect is exactly the graph (churn adds cancelling
insert/delete pairs). Algorithms see the stream only through registered
trackers: per-pass counters (one per cut-value request, each a linear
functional of the updates) and linear sketch cells filled in one pass.
Passes and registered words are metered; values are exact because every
tracker is linear and the stream's net multiset is the graph. A pass
aggregates the stream into one net PoPrefixGrid per tree it touches first;
StreamProvider keeps it and answers that tree's counters through the
providers' shared subtree formula, one pass per batch as before.

The sketch bank is the vectorized form of the L0 cells in sketch.py: per
weight class and vertex it keeps a few independent copies of level-sampled
one-sparse recovery cells over the signed edge-incidence vector. Summing
rows over a component exposes one boundary edge, which drives the
Boruvka-style spanning-forest peeling behind the stream sparsifier;
recovered forests are subtracted (linearity) and peeling repeats until the
class is exhausted.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph
from .grid import PoPrefixGrid
from .provider import CostProvider, tree_rows
from .proxy import ResourceBudgetError, forests_per_class, proxy_edge_budget, weight_class
from .rangeindex import edge_points
from .util import DisjointSets, ceil_log2, rng_for

_FP1 = 1048573
_FP2 = 1048583
_G1 = 5
_G2 = 7


class StreamHarness:
    """Seeded dynamic edge stream over a hidden source graph."""

    def __init__(self, g: WeightedGraph, seed=0, churn=0.0):
        if churn < 0:
            raise ValueError("churn must be nonnegative")
        self.n = g.n
        self.seed = seed
        self.churn = churn
        rng = rng_for(seed, 11)
        m = g.m
        ops = [(eid, 1) for eid in range(m)]
        extra = int(churn * m)
        for eid in rng.integers(0, m, size=extra) if m else []:
            ops.append((int(eid), 1))
            ops.append((int(eid), -1))
        order = rng.permutation(len(ops))
        seq = [ops[i] for i in order]
        # reassign signs per edge so no prefix deletes more than was inserted
        by_edge = {}
        for pos, (eid, _) in enumerate(seq):
            by_edge.setdefault(eid, []).append(pos)
        for eid, positions in by_edge.items():
            for i, pos in enumerate(sorted(positions)):
                seq[pos] = (eid, 1 if i % 2 == 0 else -1)
        self.updates = [(g.edges[eid][0], g.edges[eid][1], g.edges[eid][2], op) for eid, op in seq]
        self.uu = np.asarray([u for u, _, _, _ in self.updates], dtype=np.int64)
        self.vv = np.asarray([v for _, v, _, _ in self.updates], dtype=np.int64)
        self.wdelta = np.asarray([w * op for _, _, w, op in self.updates], dtype=np.int64)
        self.pass_count = 0
        self.tracked_words = 0

    def __len__(self):
        return len(self.updates)

    def register_words(self, count):
        self.tracked_words += int(count)

    def run_pass(self, orders):
        """One pass: the net weight grid of the stream under each post-order.

        Each counter is a linear functional of the updates, so one pass may
        aggregate the stream into a per-tree net grid that answers any of
        that tree's counters; inserts and deletes cancel inside the
        aggregation exactly as they would in the individual counters.
        """
        self.pass_count += 1
        return [PoPrefixGrid(self.n, *edge_points(po, self.uu, self.vv), self.wdelta) for po in orders]

    def fill_bank(self, bank: "SketchBank"):
        """One pass filling every cell of the sketch bank."""
        self.pass_count += 1
        bank.absorb(self.uu, self.vv, self.wdelta)


def write_stream(harness: StreamHarness, fh):
    """Debug dump: one '+ u v w' or '- u v w' line per update."""
    for u, v, w, op in harness.updates:
        fh.write(f"{'+' if op > 0 else '-'} {u} {v} {w}\n")


def read_stream(text):
    """Parse the dump format back into (u, v, w, op) tuples."""
    out = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        sign, u, v, w = ln.split()
        if sign not in "+-":
            raise ValueError(f"bad stream line {ln!r}")
        out.append((int(u), int(v), int(w), 1 if sign == "+" else -1))
    return out


def _mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


class SketchBank:
    """Level-sampled one-sparse cells per (weight class, vertex, copy).

    Cell arrays have shape (n, copies, reps, levels) per class; the payload
    per cell is (weight sum, index-weighted sum, two modular fingerprints),
    4 words, giving linear update / merge / subtract by plain addition.
    """

    def __init__(self, n, classes, seed, copies, reps=2):
        self.n = n
        self.space = n * n
        self.levels = max(2, int(self.space).bit_length())
        self.copies = copies
        self.reps = reps
        self.seed = seed
        self.classes = sorted(classes)
        shape = (n, copies, reps, self.levels)
        self.cells = {
            c: {name: np.zeros(shape, dtype=np.int64) for name in ("w", "wx", "f1", "f2")}
            for c in self.classes
        }
        self._fp_cache = {}

    @property
    def word_count(self):
        return 4 * len(self.classes) * self.n * self.copies * self.reps * self.levels

    def _levels_for(self, eids, copy, rep):
        """Top level per edge id: trailing one-bits of a per-(copy, rep) hash."""
        salt = np.uint64(
            (self.seed * 0x9E3779B97F4A7C15 + copy * 0x100000001B3 + rep * 2654435761) % (1 << 64)
        )
        with np.errstate(over="ignore"):
            h = _mix64(eids.astype(np.uint64) + salt)
        top = np.zeros(len(eids), dtype=np.int64)
        alive = np.ones(len(eids), dtype=bool)
        for _ in range(self.levels - 1):
            bit = (h & np.uint64(1)).astype(bool)
            alive &= bit
            if not alive.any():
                break
            top += alive
            h >>= np.uint64(1)
        return top

    def _fp(self, eid: int):
        got = self._fp_cache.get(eid)
        if got is None:
            got = (pow(_G1, eid % (_FP1 - 1) + 1, _FP1), pow(_G2, eid % (_FP2 - 1) + 1, _FP2))
            self._fp_cache[eid] = got
        return got

    def absorb(self, uu, vv, wdelta):
        """Scatter a batch of signed updates into every matching cell."""
        w_abs = np.abs(wdelta)
        cls = np.asarray([weight_class(int(w)) for w in w_abs], dtype=np.int64)
        eids = uu * self.n + vv
        fp1 = np.asarray([self._fp(int(e))[0] for e in eids], dtype=np.int64)
        fp2 = np.asarray([self._fp(int(e))[1] for e in eids], dtype=np.int64)
        for c in self.classes:
            sel = cls == c
            if not sel.any():
                continue
            e_sel = eids[sel]
            u_sel = uu[sel]
            v_sel = vv[sel]
            d_sel = wdelta[sel]
            f1_sel = (d_sel % _FP1) * fp1[sel]
            f2_sel = (d_sel % _FP2) * fp2[sel]
            arr = self.cells[c]
            for copy in range(self.copies):
                for rep in range(self.reps):
                    top = self._levels_for(e_sel, copy, rep)
                    for lvl in range(self.levels):
                        live = top >= lvl
                        if not live.any():
                            break
                        for vertex, sign in ((u_sel, 1), (v_sel, -1)):
                            vx = vertex[live]
                            np.add.at(arr["w"], (vx, copy, rep, lvl), sign * d_sel[live])
                            np.add.at(arr["wx"], (vx, copy, rep, lvl), sign * d_sel[live] * e_sel[live])
                            np.add.at(arr["f1"], (vx, copy, rep, lvl), sign * f1_sel[live])
                            np.add.at(arr["f2"], (vx, copy, rep, lvl), sign * f2_sel[live])

    def subtract_edges(self, cls, edges):
        """Remove known (u, v, w) edges from one class (linearity)."""
        if not edges:
            return
        assert all(weight_class(w) == cls for _, _, w in edges)
        uu = np.asarray([u for u, _, _ in edges], dtype=np.int64)
        vv = np.asarray([v for _, v, _ in edges], dtype=np.int64)
        ww = np.asarray([-w for _, _, w in edges], dtype=np.int64)
        self.absorb(uu, vv, ww)

    def recover(self, cls, copy, members):
        """One boundary edge of the vertex set `members` in class `cls`.

        Sums member rows (sketch merge), then scans cells sparsest level
        first for a verified one-sparse survivor. Returns (u, v, w) or None.
        """
        arr = self.cells[cls]
        rows = np.asarray(members, dtype=np.int64)
        w = arr["w"][rows, copy].sum(axis=0)
        wx = arr["wx"][rows, copy].sum(axis=0)
        f1 = arr["f1"][rows, copy].sum(axis=0)
        f2 = arr["f2"][rows, copy].sum(axis=0)
        inside = set(int(v) for v in members)
        for lvl in range(self.levels - 1, -1, -1):
            for rep in range(self.reps):
                ws = int(w[rep, lvl])
                if ws == 0:
                    continue
                rest = int(wx[rep, lvl])
                q, r = divmod(rest, ws)
                if r or not (0 <= q < self.space):
                    continue
                eid = q
                g1, g2 = self._fp(eid)
                sign = 1 if ws > 0 else -1
                if (f1[rep, lvl] - ws % _FP1 * g1) % _FP1 or (f2[rep, lvl] - ws % _FP2 * g2) % _FP2:
                    continue
                u, v = divmod(eid, self.n)
                if not (0 <= u < v < self.n):
                    continue
                if (u in inside) == (v in inside):
                    continue
                # u-side rows carry +w, v-side -w: the sum's sign must match
                if sign != (1 if u in inside else -1):
                    continue
                top = int(self._levels_for(np.asarray([eid]), copy, rep)[0])
                if top < lvl:
                    continue
                return (u, v, abs(ws))
        return None


def build_proxy_via_stream(harness: StreamHarness, eps, rng, c4=1.0, c3=4.0) -> WeightedGraph:
    """Sparsifier from one sketch pass plus local per-class forest peeling."""
    n = harness.n
    observed = sorted({weight_class(int(abs(w))) for w in harness.wdelta if w != 0})
    copies = ceil_log2(max(n, 2)) + 2
    bank = SketchBank(n, observed, seed=harness.seed ^ 0x5EED, copies=copies)
    harness.register_words(bank.word_count)
    harness.fill_bank(bank)
    budget = proxy_edge_budget(n, eps, c3)
    cap = forests_per_class(n, eps, c4)
    kept = []
    for cls in observed:
        for _ in range(cap):
            ds = DisjointSets(n)
            forest = []
            streak = 0
            sweep = 0
            while ds.count > 1 and streak < copies:
                copy = sweep % copies
                sweep += 1
                groups = {}
                for v in range(n):
                    groups.setdefault(ds.find(v), []).append(v)
                progress = False
                for root, members in groups.items():
                    if ds.find(root) != root or ds.size[root] != len(members) or len(members) == n:
                        continue
                    got = bank.recover(cls, copy, members)
                    if got is None:
                        continue
                    u, v, w = got
                    if ds.union(u, v):
                        forest.append((u, v, w))
                        progress = True
                streak = 0 if progress else streak + 1
            if not forest:
                break
            bank.subtract_edges(cls, forest)
            kept.extend(forest)
            if len(kept) > budget:
                raise ResourceBudgetError(f"stream proxy exceeded {budget} edges")
    return WeightedGraph(n, kept, require_connected=True)


class StreamProvider(CostProvider):
    """One registered counter per request; one pass per batch."""

    def __init__(self, harness: StreamHarness, proxy: WeightedGraph, words_budget=None):
        super().__init__()
        self.harness = harness
        self._proxy = proxy
        self.words_budget = words_budget
        self.stats.passes = harness.pass_count
        self.stats.tracked_words = harness.tracked_words

    def proxy_graph(self):
        return self._proxy

    def _indexes(self, ctxs):
        return self.harness.run_pass([ctx.tree.po for ctx in ctxs])

    def _eval_unique(self, items):
        self.harness.register_words(len(items))
        if self.words_budget is not None and self.harness.tracked_words > self.words_budget:
            raise ResourceBudgetError(f"tracked words exceeded {self.words_budget}")
        out = self._values(tree_rows(items))  # the batch's one pass
        self.stats.passes = self.harness.pass_count
        self.stats.tracked_words = self.harness.tracked_words
        return out


def stream_provider(harness: StreamHarness, eps=0.1, rng=None, c4=1.0, c3=4.0,
                    words_budget=None) -> StreamProvider:
    """Provider over a dynamic stream, sparsifier filled in a single pass."""
    proxy = build_proxy_via_stream(harness, eps, rng, c4, c3)
    return StreamProvider(harness, proxy, words_budget)
