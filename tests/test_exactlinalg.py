"""Exact elimination and rank against brute-force and random cross-checks."""
import random
from fractions import Fraction
from itertools import combinations

from bbsuper.exactlinalg import row_basis

from reference import rank_gauss


def brute_rank(rows):
    """Largest k with a nonzero k x k minor, by Laplace expansion."""
    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = Fraction(0)
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
        return total

    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    for k in range(min(nr, nc), 0, -1):
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if det(sub):
                    return k
    return 0


def test_ranks_against_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        fractions = [[Fraction(v) for v in row] for row in rows]
        expected = brute_rank(fractions)
        # row_basis takes plain ints as well as Fractions
        assert rank_gauss(rows) == expected
        assert rank_gauss(fractions) == expected


def test_rank_edge_cases():
    assert rank_gauss([]) == 0
    assert rank_gauss([[Fraction(0)] * 3]) == 0
    for rows, expected in [
        ([[0, 0], [0, 0]], 0),
        ([[1, 0], [0, 1]], 2),
        ([[0, 1], [0, 2], [0, 3]], 1),
        ([[1, 2, 3], [2, 4, 6]], 1),
    ]:
        assert rank_gauss(rows) == expected
        assert rank_gauss([[Fraction(v) for v in row] for row in rows]) == expected


def dense(coords, npivots):
    """Coordinate dicts {pivot index: coef} as dense lists."""
    return [[c.get(k, 0) for k in range(npivots)] for c in coords]


def assert_reconstructs(rows, pivots, coords):
    assert len(coords) == len(rows)
    for row, c in zip(rows, dense(coords, len(pivots))):
        assert len(c) == len(pivots)
        rebuilt = [
            sum((k * p[col] for k, p in zip(c, pivots)), Fraction(0)) for col in range(len(row))
        ]
        assert rebuilt == [Fraction(x) for x in row]


def test_row_basis_picks_first_independent_rows():
    rows = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4], [0, 0, 5]]
    pivots, coords = row_basis([dict(enumerate(r)) for r in rows])
    assert pivots == [dict(enumerate(r)) for r in [[1, 2, 3], [0, 1, 1], [0, 0, 5]]]
    assert dense(coords, 3) == [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert_reconstructs(rows, pivots, coords)


def test_row_basis_zero_and_empty():
    assert row_basis([]) == ([], [])
    pivots, coords = row_basis([dict(enumerate([0, 0])), dict(enumerate([Fraction(0), 0]))])
    assert (pivots, dense(coords, 0)) == ([], [[], []])
    pivots, coords = row_basis([{}, {}])
    assert (pivots, dense(coords, 0)) == ([], [[], []])


def test_row_basis_random_against_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 4)
        base = [
            [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(nc)] for _ in range(2)
        ]
        # rows mixing two random rows and noise, so most inputs are rank deficient
        rows = []
        for _ in range(nr):
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            row = [a * x + b * y for x, y in zip(*base)]
            if rng.random() < 0.2:
                row[rng.randrange(nc)] += 1
            rows.append(row)
        sparse = [dict(enumerate(r)) for r in rows]
        pivots, coords = row_basis(sparse)
        assert len(pivots) == brute_rank(rows) == rank_gauss(rows)
        assert_reconstructs(rows, pivots, coords)
        # each pivot is the first row not in the span of the rows before it
        chosen = [next(r for r in range(len(rows)) if sparse[r] is p) for p in pivots]
        for r in range(len(rows)):
            assert (r in chosen) == (brute_rank(rows[: r + 1]) > brute_rank(rows[:r]))
