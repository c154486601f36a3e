"""Interval solver: oracle equivalence, monotonicity, probe accounting."""

import itertools

import numpy as np
import pytest

from search_reference import ReferenceSolver, reference_self_pair_instances
from twocut.interval import (
    BipartiteSolver,
    CostMatrixHandle,
    Instances,
    ProbeLedger,
    bipartite_interval,
    interval_self,
    monge_check,
    self_pair_instances,
)
from twocut.util import ceil_log2


def random_interval_instance(rng, max_points=40, max_intervals=60):
    p = int(rng.integers(2, max_points + 1))
    k = int(rng.integers(1, max_intervals + 1))
    ivals = []
    for _ in range(k):
        s, t = sorted(rng.integers(1, p + 1, size=2))
        ivals.append((int(s), int(t), int(rng.integers(1, 9))))
    return p, ivals


def interval_cost(ivals, i, j):
    total = 0
    for s, t, w in ivals:
        if (s <= i <= t) != (s <= j <= t):
            total += w
    return total


def matrix_handle(matrix):
    rows = list(range(len(matrix)))
    cols = list(range(len(matrix[0])))
    return CostMatrixHandle(rows, cols, lambda pairs: [matrix[r][c] for r, c in pairs])


def bipartite_matrix(p, ivals):
    """Cost matrix in solver orientation: rows = left half reversed."""
    half = (p + 1) // 2
    left = list(range(half, 0, -1))
    right = list(range(half + 1, p + 1))
    m = [[interval_cost(ivals, i, j) for j in right] for i in left]
    return left, right, m


def test_one_by_one_matrix():
    v, r, c = bipartite_interval(matrix_handle([[42]]))
    assert (v, r, c) == (42, 0, 0)


def test_two_by_two_matrix():
    v, r, c = bipartite_interval(matrix_handle([[1, 3], [2, 2]]))
    assert v == 1 and (r, c) == (0, 0)


def test_monge_check_basics():
    assert monge_check([[0, 0], [0, 0]])
    assert monge_check([[0, 1], [1, 0]])  # deltas (-1, 1): non-decreasing
    m = [[0, 5], [0, 0]]  # deltas: -5 then 0 -> fine
    assert monge_check(m)
    m = [[0, 0], [0, 5]]  # deltas: 0 then -5 -> decreasing
    assert not monge_check(m)


def test_reduction_matrices_are_monge_and_minima_match():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        p, ivals = random_interval_instance(rng)
        left, right, m = bipartite_matrix(p, ivals)
        if not right:
            continue
        assert monge_check(m)
        v, li, ri = bipartite_interval(matrix_handle(m))
        assert v == min(min(row) for row in m)


def test_interval_self_equals_exhaustive_pairs():
    rng = np.random.default_rng(77)
    for _ in range(300):
        p, ivals = random_interval_instance(rng, max_points=24, max_intervals=30)
        points = list(range(1, p + 1))
        value, (a, b) = interval_self(
            lambda pairs: [interval_cost(ivals, i, j) for i, j in pairs], points
        )
        brute = min(interval_cost(ivals, i, j) for i, j in itertools.combinations(points, 2))
        assert value == brute
        assert interval_cost(ivals, a, b) == value


def test_split_pairs_covers_each_pair_once():
    items = list(range(13))
    seen = set()
    for a, b in self_pair_instances(items):
        for x in a:
            for y in b:
                key = (min(x, y), max(x, y))
                assert key not in seen
                seen.add(key)
    assert len(seen) == 13 * 12 // 2


def test_self_pair_instances_equal_per_run_reference():
    # one call over runs back to back lists the scalar splitter's instances
    # of each run, run after run, in the splitter's order
    rng = np.random.default_rng(13)
    for _ in range(100):
        lengths = rng.integers(1, 12, size=int(rng.integers(1, 6)))
        items = rng.permutation(int(lengths.sum())) + 100
        starts = np.cumsum(lengths) - lengths
        runs = [items[s : s + k].tolist() for s, k in zip(starts, lengths)]
        want = [inst for run in runs for inst in reference_self_pair_instances(run)]
        assert list(self_pair_instances(items, starts)) == want


def test_probe_budget_and_batch_count():
    rng = np.random.default_rng(555)
    for p in (2, 3, 7, 16, 33, 64, 200):
        ivals = [
            (int(lo), int(hi), int(rng.integers(1, 6)))
            for lo, hi in (sorted(rng.integers(1, p + 1, size=2)) for _ in range(3 * p))
        ]
        points = list(range(1, p + 1))
        ledger = ProbeLedger()
        value, _ = interval_self(
            lambda pairs: [interval_cost(ivals, i, j) for i, j in pairs], points, ledger
        )
        bound = (p + 1) * (ceil_log2(p) + 1) ** 2
        assert ledger.probes <= bound
        brute = min(interval_cost(ivals, i, j) for i, j in itertools.combinations(points, 2))
        assert value == brute


def test_batches_per_bipartite_call_bounded():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p, ivals = random_interval_instance(rng, max_points=48)
        left, right, m = bipartite_matrix(p, ivals)
        if not right:
            continue
        solver = BipartiteSolver([(list(range(len(m))), list(range(len(m[0]))))])
        batches = 0
        while not solver.done():
            probes = solver.requests()
            batches += 1
            solver.advance([m[r][c] for r, c in probes])
        assert batches <= ceil_log2(len(m) + len(m[0])) + 1


def drive(solver, matrices):
    """Run a solver whose items are (instance, index); returns (result, batches, probes)."""
    batches = 0
    while not solver.done():
        probes = solver.requests()
        batches += 1
        solver.advance([matrices[k][r][c] for (k, r), (_, c) in probes])
    return solver.result(), batches, solver.ledger.probes


def test_one_solver_over_many_instances_matches_separate_solvers():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        matrices = []
        while len(matrices) < int(rng.integers(2, 7)):
            p, ivals = random_interval_instance(rng, max_points=24, max_intervals=4)
            matrices.append(bipartite_matrix(p, ivals)[2])  # few intervals: many tied minima
        instances = [([(k, r) for r in range(len(m))], [(k, c) for c in range(len(m[0]))])
                     for k, m in enumerate(matrices)]
        alone = [drive(BipartiteSolver([inst]), matrices) for inst in instances]
        result, batches, probes = drive(BipartiteSolver(instances), matrices)
        assert probes == sum(p for _, _, p in alone)
        assert batches == max(b for _, b, _ in alone)
        first = min(range(len(alone)), key=lambda k: (alone[k][0][0], k))  # the first instance wins ties
        assert result == alone[first][0]


def test_column_minima_monotone_on_reduction():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p, ivals = random_interval_instance(rng, max_points=30)
        left, right, m = bipartite_matrix(p, ivals)
        if not right:
            continue
        argmins = [min(range(len(m)), key=lambda i: m[i][j]) for j in range(len(m[0]))]
        assert all(argmins[j] <= argmins[j + 1] or True for j in range(len(argmins) - 1))
        # first-occurrence argmins never decrease left to right
        firsts = []
        for j in range(len(m[0])):
            col = [m[i][j] for i in range(len(m))]
            firsts.append(col.index(min(col)))
        assert firsts == sorted(firsts)


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        BipartiteSolver([([], [1])])
    with pytest.raises(ValueError):
        BipartiteSolver([])
    with pytest.raises(ValueError):
        BipartiteSolver([([1], [2]), ([3], [])])
    with pytest.raises(ValueError):
        interval_self(lambda pairs: [0] * len(pairs), [1])


def drive_pair(solvers, matrices):
    """Drive an array solver and the scalar reference side by side over items
    (instance, index); both must ask the same probes in the same batches."""
    solver, reference = solvers
    while not reference.done():
        assert not solver.done()
        want = reference.requests()
        got = solver.requests()
        assert [tuple(map(tuple, p)) for p in got.tolist()] == want
        values = [matrices[k][r][c] for (k, r), (_, c) in want]
        solver.advance(values)
        reference.advance(values)
    assert solver.done() and solver.ledger.probes == reference.probes
    value, row, col = solver.result()
    assert (value, tuple(row), tuple(col)) == reference.result()


@pytest.mark.parametrize("intervals", [4, 60])
def test_array_solver_equals_scalar_reference(intervals):
    # the same probes per batch, the same batch count and the same result as
    # the loop solver, on single and multi-instance runs; few intervals make
    # many tied minima, which the first/last argmins must break the same way
    rng = np.random.default_rng(intervals)
    for _ in range(60):
        matrices = []
        while len(matrices) < int(rng.integers(1, 7)):
            p, ivals = random_interval_instance(rng, max_points=24, max_intervals=intervals)
            matrices.append(bipartite_matrix(p, ivals)[2])
        instances = [([(k, r) for r in range(len(m))], [(k, c) for c in range(len(m[0]))])
                     for k, m in enumerate(matrices)]
        drive_pair((BipartiteSolver(instances), ReferenceSolver(instances)), matrices)
        drive_pair((BipartiteSolver(instances[::-1]), ReferenceSolver(instances[::-1])), matrices)


def test_array_solver_equals_reference_on_constant_matrices():
    # every entry tied: the first instance, then the least row and column win
    matrices = [[[7] * c for _ in range(r)] for r, c in ((3, 5), (1, 4), (6, 1), (2, 2))]
    instances = [([(k, r) for r in range(len(m))], [(k, c) for c in range(len(m[0]))])
                 for k, m in enumerate(matrices)]
    drive_pair((BipartiteSolver(instances), ReferenceSolver(instances)), matrices)
    assert BipartiteSolver(Instances.of(instances)).instances[1] == ([[1, 0]], [[1, c] for c in range(4)])
