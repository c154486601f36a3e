"""Weighted graphs, rooted spanning trees, and brute-force cut oracles.

Everything downstream compares cut values for exact equality, so all cut
arithmetic here is carried in Python ints (input edge weights are capped at
2**32 but merged weights and cut sums may exceed it).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .util import DisjointSets, bit_lengths

MAX_EDGE_WEIGHT = 1 << 32
EXHAUSTIVE_CUT_LIMIT = 18
# int64 prefix sums stay exact while the total weight is below this, and so
# does every partial sum and every difference of two of them.
WEIGHT_SUM_LIMIT = 1 << 62


class GraphError(Exception):
    """Base class for graph construction / validation failures."""


class MalformedInputError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class WeightOverflowError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class TreeStructureError(GraphError):
    pass


class WeightedGraph:
    """Undirected graph on vertices 0..n-1 with merged parallel edges.

    Edges are held in two forms, both sorted by (u, v) with u < v: `edges`,
    the (u, v, w) tuples of Python ints the oracles read, and the int64
    columns `eu`, `ev`, `ew` the pipeline reads. The position in that order
    is the edge id used by indexes and sketches.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]], require_connected: bool = True):
        if n < 1:
            raise MalformedInputError(f"vertex count must be positive, got {n}")
        merged: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise MalformedInputError(f"endpoint in edge ({u!r}, {v!r}) is not an integer") from None
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInputError(f"endpoint out of range in edge ({u}, {v})")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            try:
                w = operator.index(w)  # a Python int, so merged sums cannot wrap
            except TypeError:
                raise MalformedInputError(f"weight {w!r} on edge ({u}, {v}) is not an integer") from None
            if w < 0:
                raise MalformedInputError(f"negative weight {w} on edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + w
        if merged and max(merged.values()) >= 1 << 63:
            raise WeightOverflowError(f"merged edge weight {max(merged.values())} does not fit in int64")
        if require_connected and len(merged) < n - 1:
            raise DisconnectedError(f"graph is not connected: {len(merged)} edges on {n} vertices")
        self.n = n
        self.edges = [(u, v, w) for (u, v), w in sorted(merged.items())]
        self.m = len(self.edges)
        eu, ev, ew = zip(*self.edges) if self.m else ((), (), ())
        self.eu = np.asarray(eu, dtype=np.int64)
        self.ev = np.asarray(ev, dtype=np.int64)
        self.ew = np.asarray(ew, dtype=np.int64)
        self.total_weight = sum(merged.values())
        if require_connected and not self.is_connected():
            raise DisconnectedError("graph is not connected")

    @cached_property
    def weight_classes(self):
        """{i: ids of the edges with weight in [2^i, 2^(i+1))}, classes
        ascending, ids ascending; zero-weight edges are in no class. The
        proxy peels its forests one class at a time."""
        cls = bit_lengths(self.ew) - 1
        return {i: np.flatnonzero(cls == i) for i in np.unique(cls[cls >= 0]).tolist()}

    def check_weight_sum(self):
        """Refuse graphs whose total weight int64 cut arithmetic cannot carry."""
        if self.total_weight >= WEIGHT_SUM_LIMIT:
            raise WeightOverflowError(f"total weight {self.total_weight} reaches 2**62")

    def is_connected(self) -> bool:
        ds = DisjointSets(self.n)
        for u, v, _ in self.edges:
            ds.union(u, v)
        return ds.count == 1

    def min_weighted_degree(self) -> int:
        deg = [0] * self.n  # Python ints: one vertex's degree may pass int64
        for u, v, w in self.edges:
            deg[u] += w
            deg[v] += w
        return min(deg)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m}, total_weight={self.total_weight})"


def load_graph(text) -> WeightedGraph:
    """Parse the edge-list format: header ``p <n> <m>`` then m lines ``u v w``.

    DIMACS-style ``a u v w`` lines are accepted too, with 1-based endpoints
    translated to 0-based. Lines starting with ``c`` are comments.
    """
    lines = text.splitlines() if isinstance(text, str) else list(text)
    body = [ln.strip() for ln in lines]
    body = [ln for ln in body if ln and not ln.startswith("c")]
    if not body or not body[0].startswith("p"):
        raise MalformedInputError("missing 'p <n> <m>' header line")
    head = body[0].split()
    # Accept both "p n m" and the DIMACS-ish "p <name> n m".
    nums = [tok for tok in head[1:] if re.fullmatch(r"-?[0-9]+", tok)]
    if len(nums) != 2:
        raise MalformedInputError(f"bad header {body[0]!r}")
    n, m = int(nums[0]), int(nums[1])
    if n < 1 or m < 0:
        raise MalformedInputError(f"bad header counts n={n} m={m}")
    raw = []
    for ln in body[1:]:
        toks = ln.split()
        if toks[0] == "a":
            toks = toks[1:]
            based = 1
        else:
            based = 0
        # the header's -?[0-9]+ rule: int() alone also takes "1_0", "+3" and non-ASCII digits
        if len(toks) != 3 or not ln.isascii() or "_" in ln or "+" in ln:
            raise MalformedInputError(f"bad edge line {ln!r}")
        try:
            u, v, w = map(int, toks)
        except ValueError as exc:
            raise MalformedInputError(f"bad edge line {ln!r}") from exc
        if w > MAX_EDGE_WEIGHT:
            raise WeightOverflowError(f"weight {w} exceeds 2**32 on line {ln!r}")
        raw.append((u - based, v - based, w))
    if len(raw) != m:
        raise MalformedInputError(f"header declared {m} edges, found {len(raw)}")
    return WeightedGraph(n, raw)


class RootedSpanTree:
    """Spanning tree with post-order numbering and contiguous subtree ranges.

    Children are visited in ascending vertex id, so the numbering (and every
    tie-break derived from it) is deterministic. For each vertex v the
    subtree below v occupies post-order positions lo[v]..hi[v] with
    hi[v] == po[v]. Tree edges are identified by their child vertex. A
    parent array that is not a tree on 0..n-1 raises TreeStructureError.
    """

    def __init__(self, n: int, root: int, parent: Sequence[int]):
        self.n = n
        self.root = root
        self.parent = np.asarray(parent, dtype=np.int64)
        par = self.parent
        if len(par) != n or not (0 <= root < n) or par[root] != -1 or ((par < 0) | (par >= n)).sum() != 1:
            raise TreeStructureError(f"need {n} parents in 0..{n - 1}, except parent[root] == -1 at root {root}")
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):  # in ascending id, so every child list is sorted
            if v != root:
                children[parent[v]].append(v)
        self.children = children

        po = np.zeros(n, dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)
        order = np.zeros(n, dtype=np.int64)
        size = [1] * n
        counter = 0
        cursor = [0] * n
        stack = [root]
        while stack:
            v = stack[-1]
            if cursor[v] < len(children[v]):
                c = children[v][cursor[v]]
                cursor[v] += 1
                depth[c] = depth[v] + 1
                stack.append(c)
            else:
                stack.pop()
                po[v] = counter
                order[counter] = v
                counter += 1
                if v != root:
                    size[parent[v]] += size[v]
        if counter < n:
            raise TreeStructureError(f"the walk from root {root} reaches {counter} of {n} vertices")
        self.size = np.asarray(size, dtype=np.int64)
        self.po = po
        self.lo = lo = po - self.size + 1
        self.hi = po  # post-order index of v closes its own range
        self.depth = depth
        self.order = order
        # plain-int mirrors: scalar reads of numpy arrays are far slower than
        # list indexing, and the tree walks live on these
        self._po = po.tolist()
        self._lo = lo.tolist()
        self._hi = self._po

    def edge_children(self):
        return [v for v in range(self.n) if v != self.root]

    def subtree(self, v: int):
        """Vertices of v's subtree, in post-order."""
        return [int(x) for x in self.order[self.lo[v] : self.hi[v] + 1]]

    def is_ancestor(self, u: int, v: int) -> bool:
        """True iff u is an ancestor of v or u == v."""
        return self._lo[u] <= self._po[v] <= self._hi[u]

    def orthogonal(self, a: int, b: int) -> bool:
        """True iff the subtrees below a and b are disjoint."""
        return self._hi[a] < self._lo[b] or self._hi[b] < self._lo[a]


def build_rooted_tree(g: WeightedGraph, tree_edges, root: int) -> RootedSpanTree:
    """Root the given spanning-tree edges of g at `root`.

    Each edge is a (u, v) pair or a (u, v, w) triple, in either orientation.
    n-1 edges of g whose walk from the root reaches every vertex form a
    spanning tree; a cycle, a repeated edge or an unreached vertex leaves
    some vertex out and raises TreeStructureError.
    """
    n = g.n
    if not (0 <= root < n):
        raise TreeStructureError(f"root {root} out of range")
    ends = np.array(list(tree_edges))
    if len(ends) != n - 1:
        raise TreeStructureError(f"need {n - 1} edges, got {len(ends)}")
    if n == 1:
        return RootedSpanTree(1, root, [-1])
    ends = ends[:, :2]
    # range-checked before packing, so that no (u, v) aliases another key u * n + v
    if ends.dtype.kind not in "iu" or not ((ends >= 0) & (ends < n)).all():
        raise TreeStructureError("a tree edge endpoint is not a vertex of the graph")
    ends = np.sort(ends.astype(np.int64), axis=1)
    want = ends[:, 0] * n + ends[:, 1]
    keys = np.append(g.eu * n + g.ev, n * n)  # ascending, as edges are sorted by (u, v); n * n ends it
    missing = np.flatnonzero(keys[np.searchsorted(keys, want)] != want)
    if len(missing):
        raise TreeStructureError(f"edge {tuple(ends[missing[0]].tolist())} is not in the graph")
    a, b = np.concatenate((ends, ends[:, ::-1])).T  # both directions of every edge
    order = np.argsort(a)
    nbr = b[order].tolist()
    start = np.searchsorted(a[order], np.arange(n + 1)).tolist()
    parent = [-1] * n
    seen = [False] * n
    seen[root] = True
    stack = [root]
    while stack:
        v = stack.pop()
        for w in nbr[start[v] : start[v + 1]]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    if not all(seen):
        raise TreeStructureError("edges do not span all vertices: they hold a cycle or a repeated edge")
    return RootedSpanTree(n, root, parent)


SINGLE = "single"
ORTHOGONAL = "orthogonal"
NESTED = "nested"
_KIND_RANK = {SINGLE: 0, ORTHOGONAL: 1, NESTED: 2}


@dataclass(frozen=True)
class TreeEdgePair:
    """One or two tree edges, each named by its child vertex.

    kind "single": edge above `a`. kind "orthogonal": disjoint subtrees below
    a and b. kind "nested": a is the upper edge's child, b lies inside a's
    subtree.
    """

    kind: str
    a: int
    b: Optional[int] = None

    def edges(self):
        return (self.a,) if self.kind == SINGLE else (self.a, self.b)


def classify_pair(t: RootedSpanTree, x: int, y: int) -> TreeEdgePair:
    """Build the pair for tree-edge children x, y with the kind read off ranges."""
    if x == y:
        raise ValueError("a pair needs two distinct edges")
    if t.orthogonal(x, y):
        if t.po[x] > t.po[y]:
            x, y = y, x
        return TreeEdgePair(ORTHOGONAL, x, y)
    if t.is_ancestor(x, y):
        return TreeEdgePair(NESTED, x, y)
    return TreeEdgePair(NESTED, y, x)


def validate_pair(t: RootedSpanTree, p: TreeEdgePair):
    for c in p.edges():
        if c is None or not (0 <= c < t.n) or c == t.root:
            raise ValueError(f"bad edge child {c} in {p}")
    if p.kind == SINGLE:
        return
    if p.kind == ORTHOGONAL:
        if not t.orthogonal(p.a, p.b):
            raise ValueError(f"{p} marked orthogonal but ranges overlap")
    elif p.kind == NESTED:
        if p.a == p.b or not t.is_ancestor(p.a, p.b):
            raise ValueError(f"{p} marked nested but {p.b} is not below {p.a}")
    else:
        raise ValueError(f"unknown pair kind {p.kind}")


def pair_tie_key(t: RootedSpanTree, p: TreeEdgePair):
    """Deterministic order on equal-value cuts: kind rank, then child post-orders."""
    if p.kind == SINGLE:
        return (0, int(t.po[p.a]), -1)
    return (_KIND_RANK[p.kind], int(t.po[p.a]), int(t.po[p.b]))


@dataclass(frozen=True)
class CutResult:
    value: int
    certificate: Optional[TreeEdgePair] = None
    partition: Optional[frozenset] = None


def cut_of_partition(g: WeightedGraph, side) -> int:
    """Total weight of edges with exactly one endpoint in `side`."""
    side = set(side)
    if not side or len(side) >= g.n:
        raise ValueError("side must be a proper nonempty vertex subset")
    total = 0
    for u, v, w in g.edges:
        if (u in side) != (v in side):
            total += w
    return total


def cross_weight(g: WeightedGraph, a, b) -> int:
    """Total weight of edges with one endpoint in a and the other in b."""
    a, b = set(a), set(b)
    if a & b:
        raise ValueError("sets must be disjoint")
    total = 0
    for u, v, w in g.edges:
        if (u in a and v in b) or (v in a and u in b):
            total += w
    return total


def reconstruct_partition(t: RootedSpanTree, p: TreeEdgePair) -> frozenset:
    """Vertex side of the cut that crosses exactly the pair's tree edges."""
    validate_pair(t, p)
    if p.kind == SINGLE:
        return frozenset(t.subtree(p.a))
    if p.kind == ORTHOGONAL:
        return frozenset(t.subtree(p.a)) | frozenset(t.subtree(p.b))
    return frozenset(t.subtree(p.a)) - frozenset(t.subtree(p.b))


def pair_cut_value(g: WeightedGraph, t: RootedSpanTree, p: TreeEdgePair) -> int:
    """Exact cut value of the pair via subtree-degree / crossing formulas."""
    validate_pair(t, p)
    if p.kind == SINGLE:
        return cut_of_partition(g, t.subtree(p.a))
    sub_a = set(t.subtree(p.a))
    sub_b = set(t.subtree(p.b))
    deg_a = cut_of_partition(g, sub_a)
    deg_b = cut_of_partition(g, sub_b)
    if p.kind == ORTHOGONAL:
        return deg_a + deg_b - 2 * cross_weight(g, sub_a, sub_b)
    rest = set(range(g.n)) - sub_a
    return deg_a + deg_b - 2 * cross_weight(g, sub_b, rest)


def _exhaustive_min_cut(g: WeightedGraph) -> CutResult:
    n = g.n
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    values = np.zeros(masks.shape[0], dtype=np.int64)
    for u, v, w in g.edges:
        bu = (masks >> u) & 1 if u < n - 1 else np.zeros_like(masks)
        bv = (masks >> v) & 1 if v < n - 1 else np.zeros_like(masks)
        values += (bu != bv) * w
    best = int(values.argmin())
    mask = int(masks[best])
    side = frozenset(v for v in range(n - 1) if (mask >> v) & 1)
    return CutResult(int(values[best]), None, side)


def _stoer_wagner(g: WeightedGraph) -> CutResult:
    n = g.n
    w = np.zeros((n, n), dtype=np.int64)
    for u, v, wt in g.edges:
        w[u, v] += wt
        w[v, u] += wt
    groups = [frozenset([v]) for v in range(n)]
    active = list(range(n))
    best_value = None
    best_side = None
    while len(active) > 1:
        # maximum adjacency ordering from the first active vertex
        a = np.zeros(n, dtype=np.int64)
        in_a = np.zeros(n, dtype=bool)
        order = []
        cand = list(active)
        first = cand[0]
        order.append(first)
        in_a[first] = True
        a[cand] = w[first, cand]
        for _ in range(len(active) - 1):
            rest = [v for v in cand if not in_a[v]]
            nxt = max(rest, key=lambda v: (a[v], -v))
            order.append(nxt)
            in_a[nxt] = True
            a[rest] += w[nxt, rest]
        s, t = order[-2], order[-1]
        phase_value = int(a[t])
        if best_value is None or phase_value < best_value:
            best_value = phase_value
            best_side = groups[t]
        # contract t into s
        w[s, :] += w[t, :]
        w[:, s] += w[:, t]
        w[s, s] = 0
        w[t, :] = 0
        w[:, t] = 0
        groups[s] = groups[s] | groups[t]
        active.remove(t)
    return CutResult(best_value, None, best_side)


def oracle_min_cut(g: WeightedGraph, exhaustive: Optional[bool] = None) -> CutResult:
    """Reference global min cut: exhaustive bipartition scan for n <= 18,
    deterministic contraction (maximum adjacency orderings) above that."""
    if g.n < 2:
        raise GraphError("no cut exists on a single vertex")
    g.check_weight_sum()
    if exhaustive is True and g.n > EXHAUSTIVE_CUT_LIMIT:
        raise GraphError(f"exhaustive oracle capped at n={EXHAUSTIVE_CUT_LIMIT}")
    if exhaustive is False or g.n > EXHAUSTIVE_CUT_LIMIT:
        return _stoer_wagner(g)
    return _exhaustive_min_cut(g)


def subtree_membership_matrix(t: RootedSpanTree) -> np.ndarray:
    """Boolean matrix S with S[v, x] true iff x lies in v's subtree."""
    pos = t.po[np.newaxis, :]
    return (t.lo[:, np.newaxis] <= pos) & (pos <= t.hi[:, np.newaxis])


def all_pair_tables(g: WeightedGraph, t: RootedSpanTree):
    """deg(u_sub), C(u_sub, v_sub), and C(v_sub, V - u_sub) for every u, v.

    Used by oracles and exhaustive tests; int64 throughout (safe because
    total weight stays far below 2**62 at the scales these tables serve).
    """
    sub = subtree_membership_matrix(t)
    if g.m == 0:
        z = np.zeros((g.n, g.n), dtype=np.int64)
        return np.zeros(g.n, dtype=np.int64), z, z
    a_in = sub[:, g.eu]
    b_in = sub[:, g.ev]
    w = g.ew
    deg = ((a_in != b_in) * w).sum(axis=1)
    aw = a_in * w
    bw = b_in * w
    cross = aw @ b_in.T + bw @ a_in.T
    # down[v, u] = C(v_sub, V - u_sub)
    down = aw @ (~b_in).T + bw @ (~a_in).T
    return deg, cross, down


def oracle_2respect_min(g: WeightedGraph, t: RootedSpanTree) -> CutResult:
    """Exact minimum over all 1- and 2-edge tree cuts by full enumeration."""
    if g.n < 2:
        raise GraphError("no tree edge exists on a single vertex")
    deg, cross, down = all_pair_tables(g, t)
    best = None
    for u in t.edge_children():
        cand = (int(deg[u]), TreeEdgePair(SINGLE, u))
        key = (cand[0],) + pair_tie_key(t, cand[1])
        if best is None or key < best[0]:
            best = (key, cand)
    kids = t.edge_children()
    for i, x in enumerate(kids):
        for y in kids[i + 1 :]:
            p = classify_pair(t, x, y)
            if p.kind == ORTHOGONAL:
                value = int(deg[x] + deg[y] - 2 * cross[x, y])
            else:
                value = int(deg[p.a] + deg[p.b] - 2 * down[p.b, p.a])
            key = (value,) + pair_tie_key(t, p)
            if key < best[0]:
                best = (key, (value, p))
    value, pair = best[1]
    return CutResult(value, pair, reconstruct_partition(t, pair))
