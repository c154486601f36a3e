"""Small shared helpers: integer logs, disjoint sets, run seeds, seeded generator trees."""

from __future__ import annotations

import numpy as np


def floor_log2(x: int) -> int:
    if x < 1:
        raise ValueError("floor_log2 needs x >= 1")
    return x.bit_length() - 1


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()


def bit_lengths(a) -> np.ndarray:
    """int.bit_length of each non-negative int64, exact (no float rounding)."""
    a = np.asarray(a, dtype=np.int64)
    out = np.zeros(a.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):  # invariant: a < 2**s after the step
        big = a >= (1 << s)
        out += big * s
        a = np.where(big, a >> s, a)
    return out + a


class DisjointSets:
    """Union-find with path halving and union by size."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


def as_seed(rng) -> int:
    """The run seed from an int (itself), None (0) or a Generator (one draw)."""
    if isinstance(rng, int):
        return rng
    return 0 if rng is None else int(rng.integers(1 << 62))


def rng_for(seed, *tags) -> np.random.Generator:
    """Deterministic child generator for (seed, tags).

    Every randomized stage draws from its own tagged stream so that adding or
    removing one stage never shifts the randomness seen by another.
    """
    key = tuple(int(t) & 0xFFFFFFFF for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & (2**63 - 1), spawn_key=key))
