"""Dynamic-stream execution: passes over a churned edge stream.

The harness turns a graph into a seeded sequence of weighted edge inserts
and deletes whose net effect is exactly the graph (churn adds cancelling
insert/delete pairs). Algorithms see the stream only through registered
trackers: per-pass counters (one per cut-value request, each a linear
functional of the updates) and linear sketch cells filled in one pass.
Passes and registered words are metered, and the word budget is checked
as words are registered; values are exact because every tracker is linear
and the stream's net multiset is the graph. The harness only holds and
meters the stream: StreamProvider registers a word per request and runs one
pass per evaluated batch, then reads the counters off CostProvider's grid
over the stream's net edges, one per tree, equal to what the pass would sum.

The sketch bank holds the linear L0 sketches (Ahn-Guha-McGregor): per
weight class and vertex, a few independent copies of level-sampled
one-sparse recovery cells over the signed edge-incidence vector. Summing
rows over a component cancels its inner edges and exposes one boundary
edge; one recover call does so for every component of a Boruvka sweep.
The stream sparsifier runs proxy.peel_forests once per weight class with
that call as its edge source: each finished forest is subtracted from the
cells (linearity) and peeling repeats until the class is exhausted.

Linearity also says which components a sweep need not sum. A component's
cell is the sum of the net payloads of the vertex pairs that cross it, so a
component that no pair with a nonzero net payload crosses has all-zero cells
and recovers nothing under any copy. StreamResidual keeps those net payloads
per class and pair, fed the bank's own updates, and each sweep sums only the
components it marks; every forest's closing idle sweeps then read no cell.
The residual is the simulator's view of the stream, like the provider's
grid: it registers no words and adds no pass, and the recovered edges are
those of summing every component.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .graph import WeightedGraph
from .provider import CostProvider
from .proxy import ResourceBudgetError, build_proxy_graph, forests_per_class, peel_forests, proxy_edge_budget
from .util import bit_lengths, ceil_log2, rng_for

# fingerprint moduli and their roots, one row per fingerprint
_PRIMES = np.array([[1048573], [1048583]])
_ROOTS = np.array([[5], [7]])


def _powers(base, count):
    """Per modulus row: base ** k mod p for k < count (a power of two), and base ** count mod p."""
    table = np.ones((len(_PRIMES), 1), dtype=np.int64)
    while table.shape[1] < count:
        table = np.concatenate((table, table * base % _PRIMES), axis=1)
        base = base * base % _PRIMES
    return table, base


# root ** (x mod 1024) and root ** (1024 (x >> 10)), exponents x < p < 2 ** 21
_LOW, _STEP = _powers(_ROOTS, 1 << 10)
_HIGH, _ = _powers(_STEP, 1 << 11)


class StreamHarness:
    """Seeded dynamic edge stream over a hidden source graph."""

    def __init__(self, g: WeightedGraph, seed=0, churn=0.0, words_budget=None):
        if not (math.isfinite(churn) and churn >= 0):
            raise ValueError(f"churn must be finite and nonnegative, got {churn}")
        g.check_weight_sum()
        self.n = g.n
        self.seed = seed
        self.words_budget = words_budget
        rng = rng_for(seed, 11)
        # every edge once, plus an insert/delete pair per churned draw, shuffled
        eids = np.arange(g.m)
        if g.m:
            eids = np.concatenate((eids, np.repeat(rng.integers(0, g.m, size=int(churn * g.m)), 2)))
        eids = eids[rng.permutation(len(eids))]
        # an edge's updates alternate insert, delete, ... in stream order, so no
        # prefix deletes more than was inserted and an odd count nets one insert
        by_edge = np.argsort(eids, kind="stable")
        rank = np.arange(len(eids)) - np.searchsorted(eids[by_edge], eids[by_edge])
        op = np.empty(len(eids), dtype=np.int64)
        op[by_edge] = 1 - 2 * (rank % 2)
        self.uu, self.vv, self.wdelta = g.eu[eids], g.ev[eids], g.ew[eids] * op
        self.pass_count = 0
        self.tracked_words = 0

    def __len__(self):
        return len(self.uu)

    def register_words(self, count):
        """Meter `count` more tracked words; refuse them past the budget."""
        self.tracked_words += int(count)
        if self.words_budget is not None and self.tracked_words > self.words_budget:
            raise ResourceBudgetError(f"tracked words exceeded {self.words_budget}")

    def run_pass(self):
        """Meter one pass over the stream for the counters registered before it.

        Each counter is a linear functional of the updates, and inserts and
        deletes cancel inside it, so what a pass would read is a sum over the
        stream's net edges: the provider reads it from its grid over them.
        """
        self.pass_count += 1

    def fill_bank(self, bank: "SketchBank"):
        """One pass filling every cell of the sketch bank.

        The bank's words are registered first, so a bank over the budget is
        refused before its cells are allocated.
        """
        self.register_words(bank.word_count)
        self.pass_count += 1
        bank.absorb(self.uu, self.vv, self.wdelta)


def _mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _fingerprints(eids: np.ndarray) -> np.ndarray:
    """root ** (eid mod (p - 1) + 1) mod p: one row per modulus, one column per edge id."""
    exp = eids % (_PRIMES - 1) + 1
    rows = np.arange(len(_PRIMES))[:, None]
    return _LOW[rows, exp & 1023] * _HIGH[rows, exp >> 10] % _PRIMES  # products stay below 2**40


CELL_FIELDS = ("w", "x", "f1", "f2")


def _payload(n, uu, vv, wdelta):
    """How a sketch cell files signed updates: the weight class of |delta|,
    the pair id u * n + v, and the (4, updates) cell payload, one row per
    CELL_FIELDS entry: delta, sign(delta) * id, and fmod(delta, p) times the
    id's fingerprint root ** (id mod (p - 1) + 1) mod p for each modulus."""
    cls = bit_lengths(np.abs(wdelta)) - 1
    eids = uu * n + vv
    f1, f2 = np.fmod(wdelta, _PRIMES) * _fingerprints(eids)
    return cls, eids, np.stack((wdelta, np.sign(wdelta) * eids, f1, f2))


class SketchBank:
    """Level-sampled one-sparse cells per (weight class, vertex, copy).

    Cell arrays have shape (n, copies, reps, levels) per class. A cell is 4
    int64 words: the signed weight sum w, the signed index sum x (each update
    adds +-1 times its edge id, so |x| <= updates * n**2 and no weight
    enters it) and two modular fingerprints, each update adding its signed
    weight residue times a power of its edge id. Update, merge and subtract
    are plain addition, so a delete cancels its insert word for word; a cell
    left with one edge has x = +-eid with the sign of w. The cells are
    allocated on first use, so `word_count` can be charged first.
    """

    def __init__(self, n, classes, seed, copies, reps=2):
        self.n = n
        self.space = n * n
        self.levels = max(2, int(self.space).bit_length())
        self.copies = copies
        self.reps = reps
        self.classes = sorted(classes)
        # one level-hash salt per (copy, rep), at position copy * reps + rep
        self.salts = np.array(
            [(seed * 0x9E3779B97F4A7C15 + copy * 0x100000001B3 + rep * 2654435761) % (1 << 64)
             for copy in range(copies) for rep in range(reps)], dtype=np.uint64)

    @property
    def word_count(self):
        return 4 * len(self.classes) * self.n * self.copies * self.reps * self.levels

    @cached_property
    def cells(self):
        shape = (self.n, self.copies, self.reps, self.levels)
        return {c: {name: np.zeros(shape, dtype=np.int64) for name in CELL_FIELDS} for c in self.classes}

    def _tops(self, eids, salts):
        """Top level of each edge id under each salt (broadcast): trailing
        one-bits of its hash, at most levels - 1."""
        with np.errstate(over="ignore"):
            h = _mix64(eids.astype(np.uint64) + salts)
        h &= ~np.uint64(1 << (self.levels - 1))  # caps the count, and h + 1 cannot wrap
        low = ~h & (h + np.uint64(1))  # the lowest zero bit, 2 ** top
        return np.frexp(low.astype(np.float64))[1].astype(np.int64) - 1

    def absorb(self, uu, vv, wdelta):
        """Scatter a batch of signed updates into every matching cell.

        An update's op is the sign of its weight delta. Per class, every
        (update, copy, rep, level up to the update's top, endpoint) becomes
        one flat cell index, and each payload array takes one np.add.at
        (int64, so sums stay exact).
        """
        cls, eids, payload = _payload(self.n, uu, vv, wdelta)
        pairs = len(self.salts)
        for c in self.classes:
            sel = np.flatnonzero(cls == c)
            if not len(sel):
                continue
            depth = (self._tops(eids[sel, None], self.salts) + 1).ravel()  # levels per (update, pair)
            slot = np.repeat(np.arange(depth.size), depth)
            lvl = np.arange(len(slot)) - np.repeat(np.cumsum(depth) - depth, depth)
            upd = sel[slot // pairs]
            within = (slot % pairs) * self.levels + lvl  # offset inside one vertex row
            idx = np.concatenate([uu[upd], vv[upd]]) * (pairs * self.levels) + np.tile(within, 2)
            for name, val in zip(CELL_FIELDS, payload):
                # u-side rows carry +delta, v-side -delta
                np.add.at(self.cells[c][name].reshape(-1), idx, np.concatenate([val[upd], -val[upd]]))

    def subtract_edges(self, edges):
        """Remove known (u, v, w) edges (linearity)."""
        if not edges:
            return
        uu, vv, ww = (np.asarray(col, dtype=np.int64) for col in zip(*edges))
        self.absorb(uu, vv, -ww)

    def recover(self, cls, copy, labels, active):
        """One boundary edge per component of a vertex labelling, in class `cls`.

        labels is an int64 array: labels[v] in 0..k-1 names v's component,
        and every label is used. active is a boolean mask over the k labels;
        an inactive component gets None without its cells being read, which
        is exact when its cells are all zero (StreamResidual.active). The
        member rows of each active component are summed (sketch merge); it
        then takes its first cell, sparsest level first and reps in order,
        that verifies as a single edge leaving it. Returns k entries, each
        (u, v, w) or None.
        """
        out = [None] * len(active)
        comps = np.flatnonzero(active)
        if not len(comps):
            return out
        members = np.flatnonzero(active[labels])
        order = members[np.argsort(labels[members], kind="stable")]
        starts = np.searchsorted(labels[order], comps)
        # active component sums, laid out (component, level descending, rep): the scan order
        w, x, f1, f2 = (np.add.reduceat(arr[order, copy], starts)[:, :, ::-1].transpose(0, 2, 1)
                        for arr in self.cells[cls].values())
        sign = np.sign(w)
        row, j, rep = np.nonzero((sign != 0) & (x * sign >= 0) & (x * sign < self.space))
        w, f1, f2, sign = w[row, j, rep], f1[row, j, rep], f2[row, j, rep], sign[row, j, rep]
        comp = comps[row]
        eid = x[row, j, rep] * sign
        u, v = np.divmod(eid, self.n)
        u_in = labels[u] == comp
        # u-side rows carry +w, v-side -w: the sum's sign must match
        ok = (u < v) & (u_in != (labels[v] == comp)) & (sign == np.where(u_in, 1, -1))
        ok &= self._tops(eid, self.salts[copy * self.reps + rep]) >= self.levels - 1 - j
        ok &= ((np.stack([f1, f2]) - w % _PRIMES * _fingerprints(eid)) % _PRIMES == 0).all(axis=0)
        comp, u, v, w = comp[ok], u[ok], v[ok], np.abs(w[ok])
        first = np.diff(comp, prepend=-1) != 0  # each component's first verified cell
        for c, a, b, ww in zip(*(col[first].tolist() for col in (comp, u, v, w))):
            out[c] = (a, b, ww)
        return out


class StreamResidual:
    """Net cell payload of every vertex pair a sketch bank has absorbed, per weight class.

    Fed the same updates as the bank (the harness's stream, then each
    subtracted forest), it keeps per class the pairs whose four payload sums
    (_payload) are not all zero, with those sums. It is the simulator's view
    of the stream, like CostProvider's grid over the stream's net edges: it
    registers no words and adds no pass, and the algorithm reads nothing
    from it but which components a sweep need not sum.
    """

    def __init__(self, n):
        self.n = n
        self.net = {}  # class -> (endpoints (2, k), payload sums (4, k)) of its nonzero pairs

    subtract_edges = SketchBank.subtract_edges  # absorb the negated edges, as the bank does

    def absorb(self, uu, vv, wdelta):
        """Add a batch of signed updates, filed by class and pair as SketchBank.absorb files them."""
        cls, eids, payload = _payload(self.n, uu, vv, wdelta)
        for c in np.unique(cls[cls >= 0]).tolist():  # a zero delta has no class and a zero payload
            sel = cls == c
            ends, sums = self.net.get(c, (np.zeros((2, 0), dtype=np.int64), np.zeros((4, 0), dtype=np.int64)))
            keys = np.concatenate((ends[0] * self.n + ends[1], eids[sel]))
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            sums = np.add.reduceat(np.concatenate((sums, payload[:, sel]), axis=1)[:, order], starts, axis=1)
            live = sums.any(axis=0)
            self.net[c] = (np.stack(np.divmod(keys[starts[live]], self.n)), sums[:, live])

    def active(self, cls, labels):
        """Mask over the components of `labels` that some nonzero pair of class
        `cls` crosses. A component no such pair crosses has all-zero cells:
        the pairs inside it cancel between their two endpoints' rows, and every
        other pair adds nothing."""
        ends = self.net.get(cls, (np.zeros((2, 0), dtype=np.int64),))[0]
        sides = labels[ends]
        sides = sides[:, sides[0] != sides[1]]
        out = np.zeros(int(labels.max()) + 1, dtype=bool)
        out[sides.ravel()] = True
        return out


def build_proxy_via_stream(harness: StreamHarness, eps) -> WeightedGraph:
    """Sparsifier from one sketch pass plus local per-class forest peeling.

    Sweep i of a forest reads sketch copy i mod copies, so a forest ends
    once every copy in turn has failed to add an edge. The sketches are
    linear, so a component that no pair with a nonzero net payload crosses
    has all-zero cells and recovers nothing under any copy: a
    StreamResidual fed the bank's updates marks the components each sweep
    sums, and the others are never read. It is the simulator's view of the
    stream and registers no words, so passes, words and the kept edges are
    those of summing every component.
    """
    n = harness.n
    observed = np.unique(bit_lengths(np.abs(harness.wdelta[harness.wdelta != 0])) - 1).tolist()
    copies = ceil_log2(max(n, 2)) + 2
    bank = SketchBank(n, observed, seed=harness.seed ^ 0x5EED, copies=copies)
    harness.fill_bank(bank)
    residual = StreamResidual(n)
    residual.absorb(harness.uu, harness.vv, harness.wdelta)

    def subtract(forest):
        bank.subtract_edges(forest)
        residual.subtract_edges(forest)

    budget = proxy_edge_budget(n, eps)
    rounds = forests_per_class(n, eps)
    kept = []
    for cls in observed:
        peel_forests(n, lambda sweep, labels, live: bank.recover(cls, sweep % copies, labels,
                                                                 residual.active(cls, labels)),
                     subtract, rounds, copies, budget, kept)
    return WeightedGraph(n, kept, require_connected=False)


class StreamProvider(CostProvider):
    """One registered counter per request; one pass per batch."""

    def __init__(self, harness: StreamHarness, proxy: WeightedGraph):
        super().__init__(harness.n, proxy, (harness.uu, harness.vv, harness.wdelta))
        self.harness = harness
        self.stats.passes = harness.pass_count
        self.stats.tracked_words = harness.tracked_words

    def _eval_unique(self, rows):
        self.harness.register_words(len(rows))
        self.harness.run_pass()
        out = self._values(rows)
        self.stats.passes = self.harness.pass_count
        self.stats.tracked_words = self.harness.tracked_words
        return out


def stream_provider(harness: StreamHarness, eps=0.1, rng=None) -> StreamProvider:
    """Provider over a dynamic stream, sparsifier filled in a single pass.

    `rng` is accepted and unused: the sketches draw from the harness seed.
    """
    return StreamProvider(harness, build_proxy_graph(harness, eps))
