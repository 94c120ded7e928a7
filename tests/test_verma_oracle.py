"""Gram oracle: spanning words, raising action, ranks, relation kernels."""
from fractions import Fraction

import pytest

from bbsuper.datum import validate_datum
from bbsuper.errors import BadGeneratorIndex, Unreachable
from bbsuper.roots import solve_multiplicities
from bbsuper.series import denominator_R
from bbsuper.verma_oracle import (
    FMonomial,
    OracleCaps,
    caps_from_env,
    enumerate_f_monomials,
    generic_dim,
    generic_dims,
    gram_matrix,
    irreducible_dim,
    irreducible_dims,
    lower_with_e,
    orthogonality_vector,
    pair_with_cell,
    serre_vector,
    weight_window,
)

WIDE = OracleCaps(12)


# ---- reference counts ----


def count_partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(count_partitions(n - k, min(k, n - k)) for k in range(1, min(n, largest) + 1))


def count_distinct_partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(
        count_distinct_partitions(n - k, min(k - 1, n - k)) for k in range(1, min(n, largest) + 1)
    )


def sl2():
    return validate_datum([[2]], [1])


def osp12():
    return validate_datum([[2]], [1], odd=[0])


def even_iso():
    return validate_datum([[0]], [1])


def odd_iso():
    return validate_datum([[0]], [1], odd=[0])


def free_imag():
    return validate_datum([[-2]], [1])


# ---- word enumeration ----


def test_enumerate_counts_and_order():
    assert [m.factors for m in enumerate_f_monomials(sl2(), (2,))] == [((0, 1), (0, 1))]
    words = enumerate_f_monomials(even_iso(), (3,))
    assert [m.factors for m in words] == [
        ((0, 1), (0, 1), (0, 1)),
        ((0, 1), (0, 2)),
        ((0, 2), (0, 1)),
        ((0, 3),),
    ]
    mixed = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    assert len(enumerate_f_monomials(mixed, (2, 3))) == 25
    assert enumerate_f_monomials(sl2(), (0,))[0].factors == ()


def test_enumerate_monomial_metadata():
    mixed = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    for m in enumerate_f_monomials(mixed, (1, 3)):
        rebuilt = FMonomial.from_factors(mixed, m.factors)
        assert rebuilt == m
        assert m.degree == (1, 3)
    parities = {m.factors: m.parity for m in enumerate_f_monomials(mixed, (0, 2))}
    # one odd letter keeps the word odd, two keep it even
    assert parities[((1, 2),)] == 1
    assert parities[((1, 1), (1, 1))] == 0


def test_from_factors_guards():
    with pytest.raises(BadGeneratorIndex):
        FMonomial.from_factors(sl2(), [(0, 2)])
    with pytest.raises(BadGeneratorIndex):
        FMonomial.from_factors(sl2(), [(1, 1)])
    with pytest.raises(BadGeneratorIndex):
        FMonomial.from_factors(sl2(), [(0, 0)])


def test_enumerate_caps():
    with pytest.raises(Unreachable):
        enumerate_f_monomials(sl2(), (7,))
    assert len(enumerate_f_monomials(sl2(), (7,), WIDE)) == 1
    with pytest.raises(Unreachable):
        enumerate_f_monomials(sl2(), (7,), OracleCaps(6))
    with pytest.raises(ValueError):
        enumerate_f_monomials(sl2(), (-1,))


def test_caps_from_env():
    assert caps_from_env({}) == OracleCaps(6)
    assert caps_from_env({"BBSUPER_CAP": "12"}) == OracleCaps(12)
    # the two-integer form caps at its minimum
    assert caps_from_env({"BBSUPER_CAP": "10, 6"}) == OracleCaps(6)
    assert caps_from_env({"BBSUPER_CAP": "5,9"}) == OracleCaps(5)
    with pytest.raises(ValueError):
        caps_from_env({"BBSUPER_CAP": "4,0"})
    with pytest.raises(ValueError):
        caps_from_env({"BBSUPER_CAP": "a"})
    with pytest.raises(ValueError):
        caps_from_env({"BBSUPER_CAP": "1,2,3"})


# ---- raising action ----


def test_lower_with_e_sl2():
    d = sl2()
    lam = d.fundamental_weight(0) + d.fundamental_weight(0)
    one = FMonomial.from_factors(d, [(0, 1)])
    out = lower_with_e(d, 0, 1, one, lam)
    assert out == {FMonomial.from_factors(d, []): Fraction(2)}
    two = FMonomial.from_factors(d, [(0, 1), (0, 1)])
    out = lower_with_e(d, 0, 1, two, lam)
    assert out == {one: Fraction(2)}


def test_lower_with_e_level_mismatch_vanishes():
    d = even_iso()
    word = FMonomial.from_factors(d, [(0, 2)])
    assert lower_with_e(d, 0, 1, word, d.fundamental_weight(0)) == {}


def test_lower_with_e_odd_sign():
    # e f f v on the odd real index: the second position crosses one odd
    # letter, so its term enters with a minus sign
    d = osp12()
    lam = d.fundamental_weight(0) + d.fundamental_weight(0)
    two = FMonomial.from_factors(d, [(0, 1), (0, 1)])
    out = lower_with_e(d, 0, 1, two, lam)
    assert out == {FMonomial.from_factors(d, [(0, 1)]): Fraction(-2)}


# ---- frozen Gram cells ----


def test_gram_osp12_cells():
    d = osp12()
    lam = d.fundamental_weight(0) + d.fundamental_weight(0)
    assert gram_matrix(d, lam, (1,)).gram == ((Fraction(2),),)
    assert gram_matrix(d, lam, (2,)).gram == ((Fraction(-4),),)
    assert gram_matrix(d, lam, (3,)).gram == ((Fraction(0),),)


def test_gram_sl2_singular_vector():
    d = sl2()
    lam = d.fundamental_weight(0) + d.fundamental_weight(0)
    assert gram_matrix(d, lam, (3,)).gram == ((Fraction(0),),)


def test_gram_odd_iso_level_blocks():
    d = odd_iso()
    lam = d.fundamental_weight(0)
    cell = gram_matrix(d, lam, (2,))
    assert cell.gram == (
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2)),
    )


def test_gram_generic_weight_rejected():
    # generic dimensions come from propagation, not from word pairings
    d = sl2()
    with pytest.raises(ValueError, match="generic_dims"):
        gram_matrix(d, None, (2,))
    with pytest.raises(ValueError, match="generic_dims"):
        pair_with_cell(d, None, (1,), {((0, 1),): 1})
    with pytest.raises(ValueError, match="generic_dims"):
        lower_with_e(d, 0, 1, ((0, 1),), None)


def test_gram_even_symmetric():
    d = validate_datum([[2, -1], [-1, 2]], [1, 1])
    lam = d.fundamental_weight(0) + d.fundamental_weight(1)
    cell = gram_matrix(d, lam, (1, 1))
    assert len(cell.monomials) == 2
    assert cell.gram[0][1] == cell.gram[1][0]


# ---- dimensions ----


def test_irreducible_dims_rank_one_families():
    d = sl2()
    lam = d.fundamental_weight(0) + d.fundamental_weight(0)
    dims = [irreducible_dim(d, lam, lam - k * (d.alpha(0))) for k in range(5)]
    assert dims == [1, 1, 1, 0, 0]
    o = osp12()
    lam = o.fundamental_weight(0) + o.fundamental_weight(0)
    dims = [irreducible_dim(o, lam, lam - k * o.alpha(0)) for k in range(4)]
    assert dims == [1, 1, 1, 0]


def test_irreducible_dim_degenerate_offsets():
    d = sl2()
    lam = d.fundamental_weight(0)
    assert irreducible_dim(d, lam, lam) == 1
    assert irreducible_dim(d, lam, lam + d.alpha(0)) == 0
    assert irreducible_dim(d, lam, d.zero_weight()) == 0


def test_even_iso_dims_are_partitions():
    d = even_iso()
    lam = d.fundamental_weight(0)
    for n in range(7):
        assert irreducible_dim(d, lam, lam - n * d.alpha(0)) == count_partitions(n)


def test_odd_iso_dims():
    d = odd_iso()
    zero = d.zero_weight()
    for n in range(1, 7):
        assert irreducible_dim(d, zero, zero - n * d.alpha(0)) == 0
    lam = d.fundamental_weight(0)
    for n in range(7):
        assert irreducible_dim(d, lam, lam - n * d.alpha(0)) == count_distinct_partitions(n)


def test_irreducible_dims_deep_windows():
    # deep enough that the all-word Gram matrices would hold thousands of words
    d = even_iso()
    lam = d.fundamental_weight(0)
    assert irreducible_dims(d, lam, 12, WIDE) == [count_partitions(n) for n in range(13)]
    o = odd_iso()
    lam = o.fundamental_weight(0)
    assert irreducible_dims(o, lam, 12, WIDE) == [
        count_distinct_partitions(n) for n in range(13)
    ]


def test_irreducible_dims_agree_with_single_cells():
    d = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    lam = d.fundamental_weight(0) + d.fundamental_weight(1)
    window = weight_window(d.rank, 4)
    assert irreducible_dims(d, lam, 4) == [
        irreducible_dim(d, lam, lam - d.weight_from_roots(beta)) for beta in window
    ]


def test_irreducible_dims_caps():
    d = sl2()
    lam = d.fundamental_weight(0)
    with pytest.raises(Unreachable):
        irreducible_dims(d, lam, 7)
    with pytest.raises(Unreachable):
        irreducible_dims(d, lam, 7, OracleCaps(6))
    assert irreducible_dims(d, lam, 7, WIDE) == [1, 1] + [0] * 6


def test_generic_dims_free_case():
    d = free_imag()
    assert [generic_dim(d, (n,)) for n in range(6)] == [1, 1, 2, 4, 8, 16]
    assert generic_dims(d, 8, WIDE) == [1] + [2 ** (n - 1) for n in range(1, 9)]


def test_generic_dims_caps():
    d = free_imag()
    with pytest.raises(Unreachable):
        generic_dims(d, 7, OracleCaps())
    with pytest.raises(Unreachable):
        generic_dims(d, 7, OracleCaps(6))
    with pytest.raises(Unreachable):
        generic_dim(d, (7,), OracleCaps())
    with pytest.raises(ValueError):
        generic_dim(d, (-1,))


def test_generic_matches_pbw_series():
    # the generic dimensions must reproduce the inverted denominator, which
    # ties the solved table to the defining relations
    for a, dd, odd in [
        ([[-2]], [1], []),
        ([[0]], [1], [0]),
        ([[2, -1], [-1, 0]], [1, 1], [1]),
    ]:
        d = validate_datum(a, dd, odd=odd)
        table = solve_multiplicities(d, 4)
        verma = denominator_R(d, table, 4).invert()
        for beta in weight_window(d.rank, 4):
            assert generic_dim(d, beta) == verma.coefficient(beta), (a, odd, beta)


# ---- relation vectors in the kernel ----


def test_serre_vector_a2_shape():
    d = validate_datum([[2, -1], [-1, 2]], [1, 1])
    combo = serre_vector(d, 0, 1, 1)
    f, g = (0, 1), (1, 1)
    assert combo == {(f, f, g): 1, (f, g, f): -2, (g, f, f): 1}


def test_serre_vector_guards():
    d = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    with pytest.raises(BadGeneratorIndex):
        serre_vector(d, 1, 0, 1)
    with pytest.raises(BadGeneratorIndex):
        serre_vector(d, 0, 0, 1)
    with pytest.raises(BadGeneratorIndex):
        serre_vector(d, 0, 0, 2)


def test_serre_vectors_lie_in_kernel():
    cases = [
        ([[2, -1], [-1, 2]], [1, 1], [], 0, 1, 1),
        ([[2, -1], [-1, 2]], [1, 1], [], 1, 0, 1),
        ([[2, -1], [-1, 0]], [1, 1], [1], 0, 1, 1),
        ([[2, -2], [-1, 0]], [1, 2], [0], 0, 1, 1),
        ([[2, -1], [-1, -2]], [1, 1], [], 0, 1, 2),
    ]
    for a, dd, odd, i, j, l in cases:
        d = validate_datum(a, dd, odd=odd)
        combo = serre_vector(d, i, j, l)
        beta = [0] * d.rank
        for idx, lvl in next(iter(combo)):
            beta[idx] += lvl
        for lam in (d.zero_weight(), d.fundamental_weight(0), d.rho()):
            values = pair_with_cell(d, lam, tuple(beta), combo)
            assert all(v == 0 for v in values), (a, odd, i, j, l)


def test_orthogonality_vectors_lie_in_kernel():
    pairs = validate_datum([[0, 0], [0, 0]], [1, 1], odd=[1])
    combo = orthogonality_vector(pairs, (0, 1), (1, 2))
    assert combo == {((0, 1), (1, 2)): 1, ((1, 2), (0, 1)): -1}
    both_odd = validate_datum([[0, 0], [0, 0]], [1, 1], odd=[0, 1])
    anti = orthogonality_vector(both_odd, (0, 1), (1, 1))
    assert anti == {((0, 1), (1, 1)): 1, ((1, 1), (0, 1)): 1}
    for d, combo, beta in [
        (pairs, combo, (1, 2)),
        (both_odd, anti, (1, 1)),
    ]:
        for lam in (d.zero_weight(), d.rho(), d.fundamental_weight(1)):
            values = pair_with_cell(d, lam, beta, combo)
            assert all(v == 0 for v in values)


def test_orthogonality_vector_guards():
    d = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    with pytest.raises(BadGeneratorIndex):
        orthogonality_vector(d, (0, 1), (1, 1))


# ---- misc ----


def test_weight_window_order():
    assert weight_window(2, 2) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    assert weight_window(1, 3) == [(0,), (1,), (2,), (3,)]
