"""Multiplicity solving from the logarithm of the denominator identity."""
import re

import pytest

from bbsuper.charformula import numerator_series
from bbsuper.datum import validate_datum
from bbsuper.roots import (
    RootEntry,
    RootTable,
    _mult_from_log,
    roots_to_json,
    solve_multiplicities,
)
from bbsuper.series import denominator_R


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
    d = validate_datum([[-2]], [1])
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
    d = validate_datum([[2]], [1])
    table = solve_multiplicities(d, 8)
    assert table.entries == {(1,): RootEntry(1, 0, True)}


def test_table_odd_real_rank_one():
    d = validate_datum([[2]], [1], odd=[0])
    table = solve_multiplicities(d, 8)
    assert table.entries == {
        (1,): RootEntry(1, 1, True),
        (2,): RootEntry(1, 0, True),
    }


def test_table_even_isotropic():
    d = validate_datum([[0]], [1])
    table = solve_multiplicities(d, 10)
    assert table.entries == {(l,): RootEntry(1, 0, False) for l in range(1, 11)}


def test_table_odd_isotropic():
    # the flat parity alternates along the ray, so the product matching
    # the signed partition series keeps every fourth level empty:
    # prod_{l odd} (1+q^l)^-1 prod_{l = 2 mod 4} (1-q^l) = prod_{l odd} (1-q^l)
    d = validate_datum([[0]], [1], odd=[0])
    table = solve_multiplicities(d, 8)
    assert table.entries == {
        (l,): RootEntry(1, l % 2, False) for l in range(1, 9) if l % 4 != 0
    }


def test_table_a2():
    d = validate_datum([[2, -1], [-1, 2]], [1, 1])
    table = solve_multiplicities(d, 4)
    assert table.entries == {
        (1, 0): RootEntry(1, 0, True),
        (0, 1): RootEntry(1, 0, True),
        (1, 1): RootEntry(1, 0, True),
    }


def test_table_mixed_rank_two():
    d = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
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
    d = validate_datum(a, dd, odd=odd)
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

    d = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    assert is_real(d, (1, 0))
    assert not is_real(d, (0, 1))
    assert not is_real(d, (1, 1))
    assert not is_real(d, (1, 2))
    free = validate_datum([[-2]], [1])
    assert not is_real(free, (1,))
    osp = validate_datum([[2]], [1], odd=[0])
    assert is_real(osp, (2,))


def test_log_step_divisor_sum():
    # osp(1|2): L = D(N_0)/N_0 for N_0 = 1 - q reads -q - q^2 - ...; the odd
    # root at 1 feeds q^2 with eps_2 = -1, leaving the even root at 2
    odd = {(1,): RootEntry(1, 1, True)}
    assert _mult_from_log((1,), -1, {}) == 1
    assert _mult_from_log((2,), -1, odd) == 1
    assert _mult_from_log((2,), -1, {(1,): RootEntry(1, 0, True)}) == 0
    assert _mult_from_log((1, 1), -4, {}) == 2
    # a root can sit where L vanishes
    assert _mult_from_log((2,), 0, {(1,): RootEntry(2, 1, False)}) == 1


def test_solver_visits_multiples_where_log_vanishes(monkeypatch):
    import bbsuper.roots as roots_module

    # an odd root of multiplicity 2 at beta and an even one of multiplicity
    # 1 at 2 beta cancel in L at 2 beta; the solver must still find 2 beta
    d = validate_datum([[0, -1], [-1, 0]], [1, 1], odd=[0])
    rows = {(1, 1): RootEntry(2, 1, False), (2, 2): RootEntry(1, 0, False)}
    product = denominator_R(d, RootTable(6, rows), 6)
    monkeypatch.setattr(roots_module, "numerator_series", lambda *args: product)
    table = solve_multiplicities(d, 6)
    assert {b: e.mult for b, e in table.entries.items()} == {(1, 1): 2, (2, 2): 1}


def test_negative_multiplicity_aborts():
    with pytest.raises(ValueError, match=re.escape("multiplicity -1 at exponent (1,) is negative")):
        _mult_from_log((1,), 1, {})
    # an even root at 1 already accounts for more than L_2 allows
    with pytest.raises(ValueError, match=re.escape("multiplicity -1 at exponent (2,) is negative")):
        _mult_from_log((2,), -1, {(1,): RootEntry(3, 0, True)})


def test_non_integral_multiplicity_aborts():
    message = "multiplicity 1/2 at exponent (2,) is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        _mult_from_log((2,), -1, {})
    message = "multiplicity 4/3 at exponent (1, 2) is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        _mult_from_log((1, 2), -4, {})


def test_truncate_matches_shallow_solve():
    d = validate_datum([[-2]], [1])
    deep = solve_multiplicities(d, 8)
    shallow = solve_multiplicities(d, 5)
    assert {b: e for b, e in deep.entries.items() if sum(b) <= 5} == shallow.entries


def test_multiplicity_defaults_to_zero():
    d = validate_datum([[2]], [1])
    table = solve_multiplicities(d, 4)
    assert table.entries.get((2,)) is None
    assert table.entries.get((0,)) is None


def test_roots_json_golden():
    d = validate_datum([[2]], [1], odd=[0])
    table = solve_multiplicities(d, 6)
    assert roots_to_json(table) == [
        {"root": [1], "mult": 1, "parity": "odd", "class": "real"},
        {"root": [2], "mult": 1, "parity": "even", "class": "real"},
    ]
