"""Support combinatorics, sign coefficients and assembled characters."""
import pytest

from bbsuper.charformula import (
    casimir_shift,
    enumerate_supports,
    eligible_indices,
    euler_phi,
    is_primitive_candidate,
    irreducible_character,
    numerator_series,
    odd_iso_coeffs,
    s_lambda_series,
)
from bbsuper.datum import validate_datum
from bbsuper.errors import BadGeneratorIndex


# ---- independent oracles ----


def signed_distinct_partition_sum(n, largest=None):
    """Sum of (-1)^(number of parts) over partitions of n into distinct
    parts, expanding prod (1 - q^k) term by term."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    total = 0
    for k in range(1, min(n, largest) + 1):
        total -= signed_distinct_partition_sum(n - k, k - 1)
    return total


def signed_partition_sum(n, largest=None):
    """Sum of (-1)^(number of parts) over all partitions of n, expanding
    prod (1 + q^l)^(-1) term by term."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    total = 0
    for k in range(1, min(n, largest) + 1):
        total -= signed_partition_sum(n - k, k)
    return total


def test_euler_phi_against_signed_enumeration():
    for n in range(13):
        assert euler_phi(n) == signed_distinct_partition_sum(n)
    assert [euler_phi(n) for n in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]
    assert euler_phi(12) == -1


def test_euler_phi_pentagonal_support():
    pentagonal = {k * (3 * k - 1) // 2 for k in range(-20, 21)}
    for n in range(40):
        if euler_phi(n) != 0:
            assert n in pentagonal
            assert euler_phi(n) in (1, -1)


def test_odd_iso_coeffs_against_signed_enumeration():
    for n in range(12):
        assert odd_iso_coeffs(n) == signed_partition_sum(n)
    assert [odd_iso_coeffs(n) for n in range(9)] == [1, -1, 0, -1, 1, -1, 1, -1, 2]


def test_odd_iso_coeffs_match_odd_part_product():
    # prod (1 + q^l)^(-1) = prod (1 - q^(2k-1)), checked by convolution
    bound = 14
    coeffs = [0] * (bound + 1)
    coeffs[0] = 1
    for l in range(1, bound + 1, 2):
        for m in range(bound, l - 1, -1):
            coeffs[m] -= coeffs[m - l]
    assert [odd_iso_coeffs(n) for n in range(bound + 1)] == coeffs


# ---- supports ----


def test_supports_even_isotropic_levels():
    d = validate_datum([[0]], [1])
    sups = enumerate_supports(d, d.zero_weight(), 4)
    assert [(s.indices, s.coeffs, s.weight, s.sign) for s in sups] == [
        ((), (), (0,), 1),
        ((0,), (1,), (1,), -1),
        ((0,), (2,), (2,), -1),
        ((0,), (3,), (3,), 0),
        ((0,), (4,), (4,), 0),
    ]


def test_supports_odd_isotropic_levels():
    d = validate_datum([[0]], [1], odd=[0])
    sups = enumerate_supports(d, d.zero_weight(), 5)
    assert [s.sign for s in sups] == [1, -1, 0, -1, 1, -1]


def test_supports_non_isotropic_levels_all_minus_one():
    d = validate_datum([[-2]], [1])
    sups = enumerate_supports(d, d.zero_weight(), 5)
    assert [s.sign for s in sups] == [1, -1, -1, -1, -1, -1]
    assert [s.weight for s in sups] == [(0,), (1,), (2,), (3,), (4,), (5,)]


def test_supports_respect_eligibility():
    d = validate_datum([[0]], [1])
    lam = d.fundamental_weight(0)
    assert eligible_indices(d, lam) == ()
    assert len(enumerate_supports(d, lam, 6)) == 1


def test_supports_orthogonal_pair_combines():
    d = validate_datum([[0, 0], [0, 0]], [1, 1])
    sups = enumerate_supports(d, d.zero_weight(), 3)
    assert len(sups) == 10
    both = [s for s in sups if s.indices == (0, 1)]
    assert [(s.coeffs, s.weight) for s in both] == [
        ((1, 1), (1, 1)),
        ((1, 2), (1, 2)),
        ((2, 1), (2, 1)),
    ]
    assert all(s.sign == euler_phi(s.coeffs[0]) * euler_phi(s.coeffs[1]) for s in both)


def test_supports_non_orthogonal_pair_excluded():
    d = validate_datum([[0, -1], [-1, 0]], [1, 1])
    sups = enumerate_supports(d, d.zero_weight(), 4)
    assert all(len(s.indices) <= 1 for s in sups)


def test_supports_cost_budget():
    d = validate_datum([[0]], [1])
    sups = enumerate_supports(d, d.zero_weight(), 5, costs={0: 2})
    assert [s.coeffs for s in sups] == [(), (1,), (2,)]


def test_s_lambda_series_odd_isotropic():
    d = validate_datum([[0]], [1], odd=[0])
    s = s_lambda_series(d, d.zero_weight(), 5)
    assert [s.coefficient((n,)) for n in range(6)] == [1, -1, 0, -1, 1, -1]


# ---- numerators ----


def test_numerator_sl2():
    d = validate_datum([[2]], [1])
    assert numerator_series(d, d.zero_weight(), 6).terms == {(0,): 1, (1,): -1}
    lam = d.fundamental_weight(0) + d.fundamental_weight(0)
    assert numerator_series(d, lam, 6).terms == {(0,): 1, (3,): -1}


def test_numerator_a2_regular():
    d = validate_datum([[2, -1], [-1, 2]], [1, 1])
    n = numerator_series(d, d.zero_weight(), 6)
    assert n.terms == {
        (0, 0): 1,
        (1, 0): -1,
        (0, 1): -1,
        (2, 1): 1,
        (1, 2): 1,
        (2, 2): -1,
    }


def test_numerator_mixed_rank2():
    d = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    lam = d.zero_weight()
    n = numerator_series(d, lam, 4)
    # identity branch carries the c coefficients on alpha_2 levels, the
    # reflected branch the same support pushed through r_1
    assert n.coefficient((0, 1)) == -1
    assert n.coefficient((0, 2)) == 0
    assert n.coefficient((1, 0)) == -1
    assert n.coefficient((2, 1)) == 1
    assert n.coefficient((0, 3)) == -1


# ---- characters ----


def test_character_sl2_family():
    d = validate_datum([[2]], [1])
    for m in range(4):
        lam = d.zero_weight()
        for _ in range(m):
            lam = lam + d.fundamental_weight(0)
        result = irreducible_character(d, lam, 8)
        dims = [result.series.coefficient((k,)) for k in range(9)]
        assert dims == [1 if k <= m else 0 for k in range(9)]
        assert result.residual_terms == 0
        assert result.highest_weight == lam


def test_character_a2_adjoint():
    d = validate_datum([[2, -1], [-1, 2]], [1, 1])
    lam = d.fundamental_weight(0) + d.fundamental_weight(1)
    result = irreducible_character(d, lam, 4)
    expected = {
        (0, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
        (1, 1): 2,
        (2, 1): 1,
        (1, 2): 1,
        (2, 2): 1,
    }
    assert result.series.terms == expected
    # three of the six chamber images fall outside the height window
    assert result.orbit_size == 3


def test_character_trivial_module():
    d = validate_datum([[2, -1], [-1, 2]], [1, 1])
    result = irreducible_character(d, d.zero_weight(), 5)
    assert result.series.terms == {(0, 0): 1}


# ---- scalar diagnostics ----


def test_casimir_shift_values():
    d = validate_datum([[-2]], [1])
    assert casimir_shift(d, 0, 1) == 0
    assert casimir_shift(d, 0, 2) == -4
    assert casimir_shift(d, 0, 3) == -12
    iso = validate_datum([[0]], [1], odd=[0])
    assert all(casimir_shift(iso, 0, l) == 0 for l in range(1, 6))


def test_casimir_shift_guards():
    d = validate_datum([[2]], [1])
    assert casimir_shift(d, 0, 1) == 0
    with pytest.raises(BadGeneratorIndex):
        casimir_shift(d, 0, 2)
    with pytest.raises(BadGeneratorIndex):
        casimir_shift(d, 1, 1)
    with pytest.raises(BadGeneratorIndex):
        casimir_shift(d, 0, 0)


def test_primitive_candidate():
    d = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    lam = d.fundamental_weight(0)
    assert is_primitive_candidate(d, lam, lam)
    assert is_primitive_candidate(d, lam, lam - d.alpha(1))
    assert is_primitive_candidate(d, lam, lam - d.alpha(1) - d.alpha(1))
    assert not is_primitive_candidate(d, lam, lam - d.alpha(0))
    assert not is_primitive_candidate(d, lam, lam - d.alpha(0) - d.alpha(1))
    assert not is_primitive_candidate(d, lam, lam + d.alpha(1))
    # an eligible index stops being one when lam moves
    mu = d.fundamental_weight(1)
    assert not is_primitive_candidate(d, mu, mu - d.alpha(1))
