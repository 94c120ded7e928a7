"""Multiplicity solving from the logarithm of the denominator identity."""
import re

import pytest

from bbsuper.charformula import numerator_series
from bbsuper.datum import OddCartanDatum
from bbsuper.roots import RootEntry, RootTable, denominator_R, solve_multiplicities
from bbsuper.series import CharSeries, graded_key

from reference import roots_to_json


# ---- independent oracle for the rank-one free case ----


def moebius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def free_rank_one_mult(n):
    """Graded dimension of the free Lie algebra on one generator per
    degree, by Moebius inversion of sum_{d|n} d m_d = 2^n - 1."""
    total = sum(moebius(n // d) * (2**d - 1) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def test_free_rank_one_against_moebius_oracle():
    d = OddCartanDatum([[-2]], [1])
    table = solve_multiplicities(d, 8)
    assert [free_rank_one_mult(n) for n in range(1, 9)] == [1, 1, 2, 3, 6, 9, 18, 30]
    for n in range(1, 9):
        assert table.entries[(n,)] == RootEntry(free_rank_one_mult(n), 0, False)
    for bound in range(1, 9):
        assert sum(
            dd * table.entries[(dd,)].mult for dd in range(1, bound + 1) if bound % dd == 0
        ) == 2**bound - 1


# ---- frozen small tables ----


def test_table_sl2():
    d = OddCartanDatum([[2]], [1])
    table = solve_multiplicities(d, 8)
    assert table.entries == {(1,): RootEntry(1, 0, True)}


def test_table_odd_real_rank_one():
    d = OddCartanDatum([[2]], [1], odd=[0])
    table = solve_multiplicities(d, 8)
    assert table.entries == {
        (1,): RootEntry(1, 1, True),
        (2,): RootEntry(1, 0, True),
    }


def test_table_even_isotropic():
    d = OddCartanDatum([[0]], [1])
    table = solve_multiplicities(d, 10)
    assert table.entries == {(l,): RootEntry(1, 0, False) for l in range(1, 11)}


def test_table_odd_isotropic():
    # the flat parity alternates along the ray, so the product matching
    # the signed partition series keeps every fourth level empty:
    # prod_{l odd} (1+q^l)^-1 prod_{l = 2 mod 4} (1-q^l) = prod_{l odd} (1-q^l)
    d = OddCartanDatum([[0]], [1], odd=[0])
    table = solve_multiplicities(d, 8)
    assert table.entries == {
        (l,): RootEntry(1, l % 2, False) for l in range(1, 9) if l % 4 != 0
    }


def test_table_a2():
    d = OddCartanDatum([[2, -1], [-1, 2]], [1, 1])
    table = solve_multiplicities(d, 4)
    assert table.entries == {
        (1, 0): RootEntry(1, 0, True),
        (0, 1): RootEntry(1, 0, True),
        (1, 1): RootEntry(1, 0, True),
    }


def test_table_a60_at_height_two():
    # the simple roots and the 59 sums of adjacent ones, each real and
    # of multiplicity one
    n = 60
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    table = solve_multiplicities(OddCartanDatum(a, [1] * n), 2)
    assert len(table.entries) == 119
    assert set(table.entries.values()) == {RootEntry(1, 0, True)}
    assert all(beta.count(1) == sum(beta) for beta in table.entries)


def test_table_mixed_rank_two():
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    table = solve_multiplicities(d, 4)
    assert table.entries == {
        (1, 0): RootEntry(1, 0, True),
        (0, 1): RootEntry(1, 1, False),
        (1, 1): RootEntry(1, 1, False),
        (0, 2): RootEntry(1, 0, False),
        (1, 2): RootEntry(1, 0, False),
        (0, 3): RootEntry(1, 1, False),
        (1, 3): RootEntry(2, 1, False),
        (2, 2): RootEntry(1, 0, False),
    }


# ---- the defining identity ----


@pytest.mark.parametrize(
    "a, dd, odd, bound",
    [
        ([[2]], [1], [], 8),
        ([[2]], [1], [0], 8),
        ([[0]], [1], [0], 8),
        ([[-2]], [1], [], 8),
        ([[-2]], [1], [0], 8),
        ([[2, -1], [-1, 2]], [1, 1], [], 6),
        ([[2, -1], [-1, 0]], [1, 1], [1], 6),
        ([[2, -2], [-1, 2]], [1, 2], [], 6),
        ([[0, -1], [-1, -2]], [1, 1], [0], 5),
    ],
)
def test_product_reproduces_orbit_sum(a, dd, odd, bound):
    d = OddCartanDatum(a, dd, odd=odd)
    table = solve_multiplicities(d, bound)
    lhs = denominator_R(d, table, bound)
    rhs = numerator_series(d, d.zero_weight(), bound)
    assert lhs.terms == rhs.terms
    assert all(e.mult > 0 for e in table.entries.values())


# ---- classification ----


def test_classify_norms():
    # a solved root is real exactly when its norm is positive
    def is_real(datum, beta):
        return solve_multiplicities(datum, sum(beta)).entries[beta].is_real

    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    assert is_real(d, (1, 0))
    assert not is_real(d, (0, 1))
    assert not is_real(d, (1, 1))
    assert not is_real(d, (1, 2))
    free = OddCartanDatum([[-2]], [1])
    assert not is_real(free, (1,))
    osp = OddCartanDatum([[2]], [1], odd=[0])
    assert is_real(osp, (2,))


@pytest.mark.parametrize(
    "a, dd, odd, bound",
    [
        ([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], [1] * 4, [2], 12),
        ([[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], [1] * 3, [1], 12),
        ([[2, -1, -1, -1], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, -2]], [1] * 4, [], 10),
        ([[2, -1, -1, -2], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, 0]], [1, 1, 1, 2], [3], 10),
        ([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]], [1] * 3, [], 14),
        ([[2]], [1], [0], 8),
        ([[2, -2], [-2, 2]], [1, 1], [1], 16),
    ],
    ids=["r4", "r3", "aff", "affodd", "ind3", "osp12", "affA1-odd"],
)
def test_positive_norm_roots_have_multiplicity_one(a, dd, odd, bound):
    # the solver tests the norm of multiplicity-one roots only, since a
    # real root is a W-image of alpha_i, or of 2 alpha_i for an odd real i
    d = OddCartanDatum(a, dd, odd=odd)
    table = solve_multiplicities(d, bound)
    positive = {beta for beta in table.entries if d.root_bilinear(beta, beta) > 0}
    assert positive
    assert {table.entries[beta].mult for beta in positive} == {1}
    assert {beta for beta, e in table.entries.items() if e.is_real} == positive


@pytest.mark.parametrize(
    "a, dd, odd, bound",
    [
        ([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], [1] * 4, [2], 12),
        ([[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], [1] * 3, [1], 10),
        ([[2, -1, -1, -1], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, -2]], [1] * 4, [], 10),
        ([[2, -1, -1, -2], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, 0]], [1, 1, 1, 2], [3], 10),
        ([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]], [1] * 3, [], 10),
        ([[-2]], [1], [], 40),
        ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], [1] * 4, [], 6),
    ],
    ids=["r4", "r3", "aff", "affodd", "ind3", "free", "A_4"],
)
def test_solver_fills_the_table_in_graded_order(a, dd, odd, bound):
    # roots and denom-check write the rows in the order of entries
    table = solve_multiplicities(OddCartanDatum(a, dd, odd=odd), bound)
    assert len(table.entries) > 1
    assert list(table.entries) == sorted(table.entries, key=graded_key)


# ---- the peel, on a given numerator ----


def solve_from(datum, numerator):
    """solve_multiplicities with the given series as N_0."""
    return solve_multiplicities(datum, numerator.height_bound, numerator)


def mults(table):
    return {beta: entry.mult for beta, entry in table.entries.items()}


def test_log_step_divisor_sum():
    # N_0 = 1 - q gives L = D(N_0)/N_0 = -q - q^2 - ...: L_1 = -1 makes a
    # root of multiplicity 1 at 1.  If it is even, it accounts for L_2 = -1 and
    # 2 is no root; if it is odd, it feeds q^2 with eps_2 = -1, leaving an
    # even root at 2 (osp(1|2))
    one_minus_q = CharSeries(2, 1, {(0,): 1, (1,): -1})
    assert mults(solve_from(OddCartanDatum([[2]], [1]), one_minus_q)) == {(1,): 1}
    osp = OddCartanDatum([[2]], [1], odd=[0])
    assert mults(solve_from(osp, one_minus_q)) == {(1,): 1, (2,): 1}
    # (1 - e^{-(1,1)})^2 gives L_(1,1) = -4 = -ht(1,1) m
    square = CharSeries(2, 2, {(0, 0): 1, (1, 1): -2})
    iso = OddCartanDatum([[0, -1], [-1, 0]], [1, 1])
    assert mults(solve_from(iso, square)) == {(1, 1): 2}
    # a root can sit where L vanishes: an odd root of multiplicity 2 at 1
    # puts +2 at q^2, so L_2 = 0 leaves -2 = -ht(2) m_2, an even root at 2
    d = OddCartanDatum([[0]], [1], odd=[0])
    rows = {(1,): RootEntry(2, 1, False), (2,): RootEntry(1, 0, False)}
    numerator = denominator_R(d, RootTable(2, rows), 2)
    assert solve_from(d, numerator).entries == rows


def test_solver_visits_multiples_where_log_vanishes():
    # an odd root of multiplicity 2 at beta and an even one of multiplicity
    # 1 at 2 beta cancel in L at 2 beta; the solver must still find 2 beta
    d = OddCartanDatum([[0, -1], [-1, 0]], [1, 1], odd=[0])
    rows = {(1, 1): RootEntry(2, 1, False), (2, 2): RootEntry(1, 0, False)}
    table = solve_from(d, denominator_R(d, RootTable(6, rows), 6))
    assert mults(table) == {(1, 1): 2, (2, 2): 1}


def test_negative_multiplicity_aborts():
    d = OddCartanDatum([[0]], [1])
    # N_0 = 1 + q gives L_1 = 1
    with pytest.raises(ValueError, match=re.escape("multiplicity -1 at exponent (1,) is negative")):
        solve_from(d, CharSeries(1, 1, {(0,): 1, (1,): 1}))
    # an even root at 1 already accounts for more than L_2 allows
    rows = {(1,): RootEntry(3, 0, False), (2,): RootEntry(-1, 0, False)}
    numerator = denominator_R(d, RootTable(2, rows), 2)
    with pytest.raises(ValueError, match=re.escape("multiplicity -1 at exponent (2,) is negative")):
        solve_from(d, numerator)


def test_non_integral_multiplicity_aborts(monkeypatch):
    # an integer numerator gives an integral L, so L itself is replaced:
    # nothing below gamma explains L_gamma, which ht(gamma) does not divide
    cases = [
        (1, {(2,): -1}, "multiplicity 1/2 at exponent (2,) is not an integer"),
        (2, {(1, 2): -4}, "multiplicity 4/3 at exponent (1, 2) is not an integer"),
    ]
    for rank, log, message in cases:
        d = OddCartanDatum([[0] * rank for _ in range(rank)], [1] * rank)
        # the solver forms L as D(N_0).divide(N_0)
        monkeypatch.setattr(CharSeries, "divide", lambda self, other: CharSeries(3, rank, log))
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_multiplicities(d, 3)


def test_truncate_matches_shallow_solve():
    d = OddCartanDatum([[-2]], [1])
    deep = solve_multiplicities(d, 8)
    shallow = solve_multiplicities(d, 5)
    assert {b: e for b, e in deep.entries.items() if sum(b) <= 5} == shallow.entries


def test_multiplicity_defaults_to_zero():
    d = OddCartanDatum([[2]], [1])
    table = solve_multiplicities(d, 4)
    assert table.entries.get((2,)) is None
    assert table.entries.get((0,)) is None


def test_roots_json_golden():
    d = OddCartanDatum([[2]], [1], odd=[0])
    table = solve_multiplicities(d, 6)
    assert roots_to_json(table) == [
        {"root": [1], "mult": 1, "parity": "odd", "class": "real"},
        {"root": [2], "mult": 1, "parity": "even", "class": "real"},
    ]
