"""Support combinatorics, sign coefficients and assembled characters."""
import pytest

from bbsuper.charformula import (
    enumerate_supports,
    eligible_indices,
    irreducible_character,
    numerator_series,
)
from bbsuper.datum import OddCartanDatum, Weight

from reference import (
    BadGeneratorIndex,
    casimir_shift,
    fundamental_weight,
    is_primitive_candidate,
    numerator_by_images,
    s_lambda_series,
    signed_distinct_partition_sum,
    signed_partition_sum,
    supports_by_brute_force,
)


# ---- sign coefficients ----
# euler_phi(n), the coefficient of q^n in prod (1 - q^k), and
# odd_iso_coeffs(n), that of 1 / prod (1 + q^k), read off the supports of
# the one isotropic index of [[0]]


def level_signs(odd, bound):
    """The sign of level n at the one index of [[0]], 0 where the support
    is absent, for n = 0 .. bound."""
    d = OddCartanDatum([[0]], [1], odd=[0] if odd else [])
    sups = enumerate_supports(d, d.zero_weight(), bound)
    return [sups.get((n,), 0) for n in range(bound + 1)]


def test_euler_phi_against_signed_enumeration():
    assert level_signs(False, 12) == [signed_distinct_partition_sum(n) for n in range(13)]
    assert level_signs(False, 7) == [1, -1, -1, 0, 0, 1, 0, 1]
    assert level_signs(False, 12)[12] == -1


def test_euler_phi_pentagonal_support():
    pentagonal = {k * (3 * k - 1) // 2 for k in range(-20, 21)}
    for n, sign in enumerate(level_signs(False, 39)):
        if sign != 0:
            assert n in pentagonal
            assert sign in (1, -1)


def test_odd_iso_coeffs_against_signed_enumeration():
    assert level_signs(True, 11) == [signed_partition_sum(n) for n in range(12)]
    assert level_signs(True, 8) == [1, -1, 0, -1, 1, -1, 1, -1, 2]


def test_odd_iso_coeffs_match_odd_part_product():
    # prod (1 + q^l)^(-1) = prod (1 - q^(2k-1)), checked by convolution
    bound = 14
    coeffs = [0] * (bound + 1)
    coeffs[0] = 1
    for l in range(1, bound + 1, 2):
        for m in range(bound, l - 1, -1):
            coeffs[m] -= coeffs[m - l]
    assert level_signs(True, bound) == coeffs


# ---- supports ----


def test_supports_even_isotropic_levels():
    # levels 3 and 4 have sign zero and are left out
    d = OddCartanDatum([[0]], [1])
    sups = enumerate_supports(d, d.zero_weight(), 4)
    assert list(sups.items()) == [((0,), 1), ((1,), -1), ((2,), -1)]


def test_supports_odd_isotropic_levels():
    # level 2 has sign zero and is left out; the levels past it are not
    d = OddCartanDatum([[0]], [1], odd=[0])
    sups = enumerate_supports(d, d.zero_weight(), 5)
    assert list(sups.items()) == [((0,), 1), ((1,), -1), ((3,), -1), ((4,), 1), ((5,), -1)]


def test_supports_non_isotropic_levels_all_minus_one():
    d = OddCartanDatum([[-2]], [1])
    sups = enumerate_supports(d, d.zero_weight(), 5)
    assert list(sups.items()) == [((0,), 1)] + [((n,), -1) for n in range(1, 6)]


def test_supports_respect_eligibility():
    d = OddCartanDatum([[0]], [1])
    lam = fundamental_weight(d, 0)
    assert eligible_indices(d, lam) == ()
    assert enumerate_supports(d, lam, 6) == {(0,): 1}


def test_supports_orthogonal_pair_combines():
    d = OddCartanDatum([[0, 0], [0, 0]], [1, 1])
    sups = enumerate_supports(d, d.zero_weight(), 3)
    # (0, 3) and (3, 0) have sign zero
    assert len(sups) == 8
    assert {s: sign for s, sign in sups.items() if min(s) > 0} == {
        (1, 1): 1,
        (1, 2): 1,
        (2, 1): 1,
    }


def test_supports_non_orthogonal_pair_excluded():
    d = OddCartanDatum([[0, -1], [-1, 0]], [1, 1])
    sups = enumerate_supports(d, d.zero_weight(), 4)
    assert all(min(s) == 0 for s in sups)


ZERO4 = [[0] * 4 for _ in range(4)]


@pytest.mark.parametrize(
    "a, odd, levels, budget",
    [
        ([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], [2], (1, 1, 0, 0), 30),
        ([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], [2], (0,) * 4, 30),
        ([[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], [1], (1, 0, 0), 30),
        ([[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], [1], (0,) * 3, 30),
        ([[0, 0], [0, 0]], [], (0, 0), 30),
        ([[0, 0], [0, 0]], [], (1, 0), 30),
        ([[0, -1], [-1, 0]], [], (0, 0), 30),
        (ZERO4, [], (0,) * 4, 30),
        (ZERO4, [1, 3], (0,) * 4, 30),
        (ZERO4, [1, 3], (0, 0, 1, 0), 12),
    ],
    ids=["r4", "r4-zero", "r3", "r3-zero", "zero2", "zero2-lam", "pair", "zero4", "zero4-odd",
         "zero4-odd-lam"],
)
def test_supports_match_brute_force(a, odd, levels, budget):
    d = OddCartanDatum(a, [1] * len(a), odd=odd)
    zero = (0,) * d.rank
    lam = Weight(levels, zero, zero)
    sups = enumerate_supports(d, lam, budget)
    assert sups == supports_by_brute_force(d, lam, budget)
    assert next(iter(sups)) == zero and sups[zero] == 1


def test_zero4_support_count():
    # every one of the 46376 level vectors of total at most 30 is a
    # support, and 2081 of them have a nonzero sign
    d = OddCartanDatum(ZERO4, [1] * 4)
    assert len(enumerate_supports(d, d.zero_weight(), 30)) == 2081


def test_s_lambda_series_odd_isotropic():
    d = OddCartanDatum([[0]], [1], odd=[0])
    s = s_lambda_series(d, d.zero_weight(), 5)
    assert [s.coefficient((n,)) for n in range(6)] == [1, -1, 0, -1, 1, -1]


# ---- numerators ----


def test_numerator_sl2():
    d = OddCartanDatum([[2]], [1])
    assert numerator_series(d, d.zero_weight(), 6).terms == {(0,): 1, (1,): -1}
    lam = Weight((2,), (0,), (0,))
    assert numerator_series(d, lam, 6).terms == {(0,): 1, (3,): -1}


def test_numerator_a2_regular():
    d = OddCartanDatum([[2, -1], [-1, 2]], [1, 1])
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
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    lam = d.zero_weight()
    n = numerator_series(d, lam, 4)
    # identity branch carries the c coefficients on alpha_2 levels, the
    # reflected branch the same support pushed through r_1
    assert n.coefficient((0, 1)) == -1
    assert n.coefficient((0, 2)) == 0
    assert n.coefficient((1, 0)) == -1
    assert n.coefficient((2, 1)) == 1
    assert n.coefficient((0, 3)) == -1


# the datums of the roadmap's test list as (A, D, 0-based odd, levels of
# lam on the Lambda_i); aff, affodd, ind3 and affA1 have infinite real
# Weyl groups, and affA1 is the affine A1 block beside an imaginary index
WALK_CASES = {
    "r4": ([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], [1] * 4, [2],
           (1, 1, 0, 0)),
    "r3": ([[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], [1] * 3, [1], (1, 0, 0)),
    "r2": ([[2, -1], [-1, 0]], [1, 1], [1], (1, 0)),
    "aff": ([[2, -1, -1, -1], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, -2]], [1] * 4, [],
            (1, 0, 0, 0)),
    "affodd": ([[2, -1, -1, -2], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, 0]], [1, 1, 1, 2],
               [3], (1, 0, 0, 0)),
    "ind3": ([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]], [1] * 3, [], (1, 0, 0)),
    "affA1": ([[2, -2, -1], [-2, 2, -1], [-1, -1, -2]], [1] * 3, [], (2, 0, 0)),
}


@pytest.mark.parametrize("name", WALK_CASES)
def test_one_walk_per_support_matches_moved_supports(name):
    # the orbit of lam - s for each support s against the orbit of lam
    # with every s moved by w: the same terms, counted the same
    a, dd, odd, levels = WALK_CASES[name]
    d = OddCartanDatum(a, dd, odd=odd)
    zero = (0,) * d.rank
    for lam in (Weight(levels, zero, zero), d.zero_weight()):
        for bound in (0, 1, 7, 14):
            expected, terms = numerator_by_images(d, lam, bound)
            assert numerator_series(d, lam, bound) == expected
            assert irreducible_character(d, lam, bound).support_terms == terms


# ---- characters ----


def test_character_sl2_family():
    d = OddCartanDatum([[2]], [1])
    for m in range(4):
        lam = Weight((m,), (0,), (0,))
        result = irreducible_character(d, lam, 8)
        dims = [result.series.coefficient((k,)) for k in range(9)]
        assert dims == [1 if k <= m else 0 for k in range(9)]
        assert result.residual_terms == 0
        assert result.highest_weight == lam


def test_character_a2_adjoint():
    d = OddCartanDatum([[2, -1], [-1, 2]], [1, 1])
    lam = Weight((1, 1), (0, 0), (0, 0))
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
    d = OddCartanDatum([[2, -1], [-1, 2]], [1, 1])
    result = irreducible_character(d, d.zero_weight(), 5)
    assert result.series.terms == {(0, 0): 1}


# support_terms counts the numerator terms kept inside the height window;
# the odd lists are 0-based, R4 is the benchmark's r4
R4 = ([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], [2], (0, 1))
MIXED3 = ([[2, -1, -1], [-1, 2, -1], [-1, -1, 0]], [2], (0,))


@pytest.mark.parametrize(
    "case, height_bound, expected",
    [(MIXED3, 4, (4, 9, 0)), (MIXED3, 8, (6, 18, 0)), (R4, 4, (3, 15, 0)), (R4, 8, (6, 39, 0))],
)
def test_character_diagnostics_pinned(case, height_bound, expected):
    a, odd, levels = case
    d = OddCartanDatum(a, [1] * len(a), odd=odd)
    zero = (0,) * d.rank
    lam = Weight(tuple(int(i in levels) for i in range(d.rank)), zero, zero)
    result = irreducible_character(d, lam, height_bound)
    assert (result.orbit_size, result.support_terms, result.residual_terms) == expected


# ---- scalar diagnostics ----


def test_casimir_shift_values():
    d = OddCartanDatum([[-2]], [1])
    assert casimir_shift(d, 0, 1) == 0
    assert casimir_shift(d, 0, 2) == -4
    assert casimir_shift(d, 0, 3) == -12
    iso = OddCartanDatum([[0]], [1], odd=[0])
    assert all(casimir_shift(iso, 0, l) == 0 for l in range(1, 6))


def test_casimir_shift_guards():
    d = OddCartanDatum([[2]], [1])
    assert casimir_shift(d, 0, 1) == 0
    with pytest.raises(BadGeneratorIndex):
        casimir_shift(d, 0, 2)
    with pytest.raises(BadGeneratorIndex):
        casimir_shift(d, 1, 1)
    with pytest.raises(BadGeneratorIndex):
        casimir_shift(d, 0, 0)


def test_primitive_candidate():
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    lam = fundamental_weight(d, 0)

    def at(root):  # lam + root_0 alpha_0 + root_1 alpha_1
        return Weight(lam.fundamental_part, lam.aux_part, root)

    assert is_primitive_candidate(d, lam, lam)
    assert is_primitive_candidate(d, lam, at((0, -1)))
    assert is_primitive_candidate(d, lam, at((0, -2)))
    assert not is_primitive_candidate(d, lam, at((-1, 0)))
    assert not is_primitive_candidate(d, lam, at((-1, -1)))
    assert not is_primitive_candidate(d, lam, at((0, 1)))
    # an eligible index stops being one when lam moves
    mu = fundamental_weight(d, 1)
    assert not is_primitive_candidate(d, mu, Weight(mu.fundamental_part, mu.aux_part, (0, -1)))
