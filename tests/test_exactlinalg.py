"""Exact rank routines against brute-force and random cross-checks."""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from bbsuper.exactlinalg import Polynomial, exact_div, rank_bareiss, rank_gauss, row_basis


def P(nvars, terms):
    return Polynomial(nvars, terms)


def test_polynomial_arithmetic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    sq = (x + y) * (x + y)
    assert sq == P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert (x + 1) * (x - 1) == x * x - 1
    assert x - x == P(2, {})
    assert not (y - y)
    assert 2 * x + x == 3 * x
    assert (1 - x) == -(x - 1)


def test_polynomial_guards():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial.variable(2, 5)
    with pytest.raises(ValueError):
        P(1, {}).leading()


def test_exact_div_integers():
    assert exact_div(12, 4) == 3
    assert exact_div(-12, 4) == -3
    with pytest.raises(ValueError):
        exact_div(7, 2)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_exact_div_polynomials():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert exact_div(x * x - y * y, x - y) == x + y
    assert exact_div(x * x + 2 * x * y + y * y, x + y) == x + y
    assert exact_div(6 * x, 3) == 2 * x
    with pytest.raises(ValueError):
        exact_div(x * x + 1, x)
    with pytest.raises(ValueError):
        exact_div(3 * x, 2)
    with pytest.raises(ZeroDivisionError):
        exact_div(x, P(2, {}))


def test_exact_div_random_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = tuple(rng.randint(0, 2) for _ in range(nvars))
                terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
            return Polynomial(nvars, terms)
        a, b = rand_poly(), rand_poly()
        if not a or not b:
            continue
        assert exact_div(a * b, b) == a


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
        expected = brute_rank([[Fraction(v) for v in row] for row in rows])
        assert rank_bareiss(rows) == expected
        assert rank_gauss([[Fraction(v) for v in row] for row in rows]) == expected


def test_rank_edge_cases():
    assert rank_bareiss([]) == 0
    assert rank_gauss([]) == 0
    assert rank_bareiss([[0, 0], [0, 0]]) == 0
    assert rank_gauss([[Fraction(0)] * 3]) == 0
    assert rank_bareiss([[1, 0], [0, 1]]) == 2
    assert rank_bareiss([[0, 1], [0, 2], [0, 3]]) == 1
    assert rank_bareiss([[1, 2, 3], [2, 4, 6]]) == 1


def assert_reconstructs(rows, pivots, coords):
    assert len(coords) == len(rows)
    for row, c in zip(rows, coords):
        assert len(c) == len(pivots)
        rebuilt = [
            sum((k * p[col] for k, p in zip(c, pivots)), Fraction(0)) for col in range(len(row))
        ]
        assert rebuilt == [Fraction(x) for x in row]


def test_row_basis_picks_first_independent_rows():
    rows = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4], [0, 0, 5]]
    pivots, coords = row_basis(rows)
    assert pivots == [[1, 2, 3], [0, 1, 1], [0, 0, 5]]
    assert coords == [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert_reconstructs(rows, pivots, coords)


def test_row_basis_zero_and_empty():
    assert row_basis([]) == ([], [])
    assert row_basis([[0, 0], [Fraction(0), 0]]) == ([], [[], []])
    assert row_basis([[], []]) == ([], [[], []])


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
        pivots, coords = row_basis(rows)
        assert len(pivots) == brute_rank(rows) == rank_gauss(rows)
        assert_reconstructs(rows, pivots, coords)
        # each pivot is the first row not in the span of the rows before it
        chosen = [next(r for r in range(len(rows)) if rows[r] is p) for p in pivots]
        for r in range(len(rows)):
            assert (r in chosen) == (brute_rank(rows[: r + 1]) > brute_rank(rows[:r]))


def test_rank_symbolic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    zero = P(2, {})
    assert rank_bareiss([[x, y], [x, y]]) == 1
    assert rank_bareiss([[x, zero], [zero, y]]) == 2
    assert rank_bareiss([[x, y], [y, x]]) == 2
    # generically independent rows that collapse at x = y
    assert rank_bareiss([[x, y], [2 * x, x + y]]) == 2
    assert rank_bareiss([[x * y, x], [y * y, y]]) == 1


def test_rank_symbolic_vandermonde():
    # rows (1, t, t^2) at three generic points stay independent
    t0 = Polynomial.variable(3, 0)
    t1 = Polynomial.variable(3, 1)
    t2 = Polynomial.variable(3, 2)
    one = Polynomial.const(3, 1)
    rows = [[one, t, t * t] for t in (t0, t1, t2)]
    assert rank_bareiss(rows) == 3
