"""Fraction-free elimination and rank against brute force, against the
Fraction elimination it replaced, on random cross-checks and on the
oracle's own cells.

row_basis takes int entries; a rational row reaches it scaled by the lcm
of its denominators (integral), as the oracle builds its rows."""
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsuper import verma_oracle
from bbsuper.datum import OddCartanDatum, Weight
from bbsuper.exactlinalg import row_basis

from reference import rank_gauss, row_basis_fraction


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


def integral(row):
    """A sparse row scaled to int entries by the lcm of its denominators."""
    den = lcm(*(Fraction(x).denominator for x in row.values()))
    return {col: int(x * den) for col, x in row.items()}


def package_rank(rows):
    return len(row_basis([dict(enumerate(r)) for r in rows])[0])


def test_ranks_against_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        fractions = [[Fraction(v) for v in row] for row in rows]
        expected = brute_rank(fractions)
        # the reference elimination takes plain ints as well as Fractions
        assert rank_gauss(rows) == package_rank(rows) == expected
        assert rank_gauss(fractions) == expected


def test_rank_edge_cases():
    assert rank_gauss([]) == package_rank([]) == 0
    assert rank_gauss([[Fraction(0)] * 3]) == package_rank([[0] * 3]) == 0
    for rows, expected in [
        ([[0, 0], [0, 0]], 0),
        ([[1, 0], [0, 1]], 2),
        ([[0, 1], [0, 2], [0, 3]], 1),
        ([[1, 2, 3], [2, 4, 6]], 1),
    ]:
        fractions = [[Fraction(v) for v in row] for row in rows]
        assert rank_gauss(rows) == package_rank(rows) == expected
        assert rank_gauss(fractions) == expected


def rational(coords):
    """(num, den) coordinates as {pivot index: Fraction}."""
    num, den = coords
    return {k: Fraction(x, den) for k, x in num.items()}


def assert_reconstructs(rows, pivots, coords):
    """den * row == sum(num[k] * pivots[k]) exactly, with den a positive
    int and num mapping pivot indices to nonzero ints, in lowest terms."""
    assert len(coords) == len(rows)
    for row, (num, den) in zip(rows, coords):
        assert type(den) is int and den > 0 and gcd(den, *num.values()) == 1
        assert all(type(x) is int and x and k in range(len(pivots)) for k, x in num.items())
        rebuilt = {}
        for k, x in num.items():
            for col, y in pivots[k].items():
                rebuilt[col] = rebuilt.get(col, 0) + x * y
        assert {c: x for c, x in rebuilt.items() if x} == {c: den * x for c, x in row.items() if x}


def test_row_basis_picks_first_independent_rows():
    rows = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4], [0, 0, 5]]
    sparse = [dict(enumerate(r)) for r in rows]
    pivots, coords = row_basis(sparse)
    assert pivots == [dict(enumerate(r)) for r in [[1, 2, 3], [0, 1, 1], [0, 0, 5]]]
    assert all(p is sparse[r] for p, r in zip(pivots, [1, 3, 5]))
    # integer coordinates come back over the denominator 1
    assert coords == [
        ({}, 1), ({0: 1}, 1), ({0: 2}, 1), ({1: 1}, 1), ({0: 1, 1: 1}, 1), ({2: 1}, 1),
    ]
    assert_reconstructs(sparse, pivots, coords)
    # fractional coordinates come back over their least common denominator;
    # the last row is [1/3, 0] made integral
    rows = [[0, 2], [0, 3], [4, 6], [Fraction(1, 3), 0]]
    sparse = [integral(dict(enumerate(r))) for r in rows]
    assert sparse[3] == {0: 1, 1: 0}
    pivots, coords = row_basis(sparse)
    assert pivots == [sparse[0], sparse[2]]
    assert coords == [({0: 1}, 1), ({0: 3}, 2), ({1: 1}, 1), ({0: -3, 1: 1}, 4)]
    assert_reconstructs(sparse, pivots, coords)
    # a negative pivot entry still gives a positive denominator
    sparse = [{0: -2}, {0: 1}]
    assert row_basis(sparse) == ([{0: -2}], [({0: 1}, 1), ({0: -1}, 2)])
    sparse = [{0: -2, 1: 3}, {0: 1, 1: -1}, {0: 3, 1: -5}, {1: 7}]
    pivots, coords = row_basis(sparse)
    assert coords == [({0: 1}, 1), ({1: 1}, 1), ({0: -2, 1: -1}, 1), ({0: 7, 1: 14}, 1)]
    assert_reconstructs(sparse, pivots, coords)


def test_row_basis_zero_and_empty():
    assert row_basis([]) == ([], [])
    pivots, coords = row_basis([dict(enumerate([0, 0])), {1: 0}])
    assert (pivots, coords) == ([], [({}, 1), ({}, 1)])
    pivots, coords = row_basis([{}, {}])
    assert (pivots, coords) == ([], [({}, 1), ({}, 1)])


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
        sparse = [integral(dict(enumerate(r))) for r in rows]
        pivots, coords = row_basis(sparse)
        assert len(pivots) == brute_rank(rows) == rank_gauss(rows)
        assert_reconstructs(sparse, pivots, coords)
        # each pivot is the first row not in the span of the rows before it
        chosen = [next(r for r in range(len(rows)) if sparse[r] is p) for p in pivots]
        for r in range(len(rows)):
            assert (r in chosen) == (brute_rank(rows[: r + 1]) > brute_rank(rows[:r]))


ENTRIES = st.one_of(
    st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6), st.integers(-10**30, 10**30)
)


@st.composite
def sparse_rows(draw):
    """Rows over a few columns, most of them combinations of rows drawn
    before, so that many are dependent; entries mix ints and Fractions, and
    each row is made integral once all are drawn."""
    columns = st.sampled_from([(0, "a"), (0, "b"), (1, "a"), (2, "a"), (2, "c")])
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            row = {}
            for r in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = draw(ENTRIES)
                for col, x in r.items():
                    row[col] = row.get(col, 0) + c * x
        else:
            row = draw(st.dictionaries(columns, ENTRIES, max_size=4))
        rows.append(row)
    return [integral(row) for row in rows]


def assert_matches_fraction_elimination(rows, pivots, coords):
    assert_reconstructs(rows, pivots, coords)
    ref_pivots, ref_coords = row_basis_fraction(rows)
    # the same rows chosen, in the same order, and the same coordinates
    assert [id(p) for p in pivots] == [id(p) for p in ref_pivots]
    assert [rational(c) for c in coords] == ref_coords


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sparse_rows())
def test_row_basis_matches_fraction_elimination(rows):
    assert_matches_fraction_elimination(rows, *row_basis(rows))


R4 = OddCartanDatum(
    [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], [1, 1, 1, 1], odd=[2]
)
R3 = OddCartanDatum([[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], [1, 1, 1], odd=[1])
AFF = OddCartanDatum([[2, -1, -1, -1], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, -2]], [1] * 4)


@pytest.mark.parametrize(
    "datum, lam, height",
    [
        (R4, Weight((1, 1, 0, 0), (0,) * 4, (0,) * 4), 7),
        (R3, None, 6),
        (AFF, Weight((1, 0, 0, 0), (0,) * 4, (0,) * 4), 7),
    ],
    ids=["numeric-r4-h7", "generic-r3-h6", "aff-h7"],
)
def test_row_basis_matches_fraction_elimination_on_oracle_cells(monkeypatch, datum, lam, height):
    # the draws above stop at 7 rows over 5 columns; the oracle's cells
    # have tuple columns, two-part rows for the generic weight and up to
    # 144 rows, and each elimination feeds the f-matrices the next cells read
    cells = []

    def recording(rows):
        pivots, coords = row_basis(rows)
        cells.append((rows, pivots, coords))
        return pivots, coords

    monkeypatch.setattr(verma_oracle, "row_basis", recording)
    verma_oracle.irreducible_dims(datum, lam, height)
    # every cell but the zero offset is eliminated
    assert len(cells) == len(verma_oracle.weight_window(datum.rank, height)) - 1
    for rows, pivots, coords in cells:
        assert_matches_fraction_elimination(rows, pivots, coords)
