"""Datum validation, pairings, root reflections and the JSON forms."""
import random
from fractions import Fraction

import pytest

from bbsuper import datum as dt
from bbsuper.errors import (
    BadDiagonal,
    ImaginaryIndexReflection,
    NotSymmetrizable,
    OddReParity,
    PositiveOffDiagonal,
)

from reference import reflect


def sl2():
    return dt.validate_datum([[2]], [1])


def osp12():
    return dt.validate_datum([[2]], [1], odd=[0])


def a2():
    return dt.validate_datum([[2, -1], [-1, 2]], [1, 1])


def mixed_rank2():
    return dt.validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])


def test_valid_data_construct():
    for build in (sl2, osp12, a2, mixed_rank2):
        assert build().rank in (1, 2)
    dt.validate_datum([[0]], [1])
    dt.validate_datum([[-2]], [1])
    dt.validate_datum([[2, -2], [-1, 2]], [1, 2])


@pytest.mark.parametrize(
    "a, d, odd",
    [
        ([[2.9]], [1], []),
        ([[2, -1], [-1, 0]], [1.7, 1.7], []),
        ([[2, -1], [-1, 0]], [1, 1], [1.2]),
        ([[2, False], [False, 2]], [1, 1], []),
        ([[2]], [True], []),
        ([[2]], [1], [False]),
        ([[float("inf")]], [1], []),
    ],
)
def test_non_integral_entries_rejected(a, d, odd):
    # int() would truncate each of these to a legal datum (the last one
    # it cannot convert at all)
    with pytest.raises(ValueError, match="is not an integer"):
        dt.validate_datum(a, d, odd)


def test_integral_values_of_other_types_accepted():
    assert dt.validate_datum([[2.0, Fraction(-1)], [-1, 0]], [1, 1], [1]) == mixed_rank2()


def test_bad_diagonal():
    with pytest.raises(BadDiagonal):
        dt.validate_datum([[3]], [1])
    with pytest.raises(BadDiagonal):
        dt.validate_datum([[-1]], [1])
    with pytest.raises(BadDiagonal):
        dt.validate_datum([[1]], [1])


def test_positive_off_diagonal():
    with pytest.raises(PositiveOffDiagonal):
        dt.validate_datum([[2, 1], [1, 2]], [1, 1])


def test_not_symmetrizable():
    with pytest.raises(NotSymmetrizable):
        dt.validate_datum([[2, -1], [-2, 2]], [1, 1])
    with pytest.raises(NotSymmetrizable):
        dt.validate_datum([[2]], [0])
    with pytest.raises(NotSymmetrizable):
        dt.validate_datum([[2]], [-1])


def test_odd_real_row_parity():
    with pytest.raises(OddReParity):
        dt.validate_datum([[2, -1], [-1, 2]], [1, 1], odd=[0])
    # the same matrix is fine when the odd index is the other one only if
    # its row is even as well, so it must fail too
    with pytest.raises(OddReParity):
        dt.validate_datum([[2, -1], [-1, 2]], [1, 1], odd=[1])
    # imaginary odd index with an odd entry in its row is allowed
    mixed_rank2()


def test_index_classes():
    d = mixed_rank2()
    assert d.real_indices == (0,)
    assert d.imaginary_indices == (1,)
    assert d.isotropic_indices == (1,)
    assert d.is_odd(1) and not d.is_odd(0)
    neg = dt.validate_datum([[-2]], [1])
    assert neg.imaginary_indices == (0,) and neg.isotropic_indices == ()


def test_pairings_on_basis():
    d = a2()
    for i in range(2):
        for j in range(2):
            assert d.pair(i, d.fundamental_weight(j)) == (1 if i == j else 0)
            assert d.pair(i, dt.Weight((0, 0), (0, 0), dt.unit_root(2, j))) == d.a[i][j]
    delta = dt.Weight((0, 0), (1, 0), (0, 0))
    assert d.pair(0, delta) == 0 and d.pair(1, delta) == 0


def test_bilinear_symmetry():
    for d in (a2(), dt.validate_datum([[2, -2], [-1, 2]], [1, 2]), mixed_rank2()):
        n = d.rank
        for i in range(n):
            for j in range(n):
                ei = dt.unit_root(n, i)
                ej = dt.unit_root(n, j)
                assert d.root_bilinear(ei, ej) == d.d[i] * d.a[i][j]
                assert d.root_bilinear(ei, ej) == d.root_bilinear(ej, ei)


def test_reflection_involution_and_negation():
    d = a2()
    for beta in ((1, 0), (2, 1), (-3, 4)):
        for i in range(2):
            ref = d.reflect_root(i, beta)
            assert d.pair_root(i, ref) == -d.pair_root(i, beta)
            assert d.reflect_root(i, ref) == beta
            assert ref[1 - i] == beta[1 - i]


def test_reflect_root_matches_weight_reflection():
    d = a2()
    beta = (2, 1)
    assert d.reflect_root(0, beta) == (2 - d.pair_root(0, beta), 1)
    w = dt.Weight((0, 0), (0, 0), beta)
    assert reflect(d, 0, w).root_part == tuple(map(Fraction, d.reflect_root(0, beta)))


def test_imaginary_reflection_rejected():
    d = mixed_rank2()
    with pytest.raises(ImaginaryIndexReflection):
        d.reflect_root(1, (0, 1))


def test_dominance():
    d = a2()
    assert d.is_dominant_integral(d.zero_weight())
    assert d.is_dominant_integral(dt.Weight((1, 1), (0, 0), (0, 0)))
    assert not d.is_dominant_integral(dt.Weight((-1, 0), (0, 0), (0, 0)))
    half = dt.Weight((Fraction(1, 2), 0), (0, 0), (0, 0))
    assert not d.is_dominant_integral(half)


def test_dominance_odd_real_needs_even_pairing():
    d = osp12()
    assert not d.is_dominant_integral(d.fundamental_weight(0))
    two = dt.Weight((2,), (0,), (0,))
    assert d.is_dominant_integral(two)


def test_dominance_imaginary_rational_pairing_allowed():
    d = dt.validate_datum([[0]], [1])
    half = dt.Weight((Fraction(1, 2),), (0,), (0,))
    assert d.is_dominant_integral(half)


def test_parity_of():
    d = mixed_rank2()
    assert d.parity_of((1, 0)) == 0
    assert d.parity_of((0, 1)) == 1
    assert d.parity_of((2, 3)) == 1
    assert d.parity_of((0, 2)) == 0


def test_datum_json_round_trip():
    blob = {"A": [[2, -1], [-1, 0]], "D": [1, 1], "odd": [2]}
    assert dt.datum_from_json(blob) == mixed_rank2()
    assert dt.datum_from_json({"A": [[2]]}) == sl2()


def test_weight_json_round_trip():
    d = mixed_rank2()
    rng = random.Random(7)
    for _ in range(20):
        w = dt.Weight(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)),
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)),
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)),
        )
        assert dt.weight_from_json(d, dt.weight_to_json(w)) == w
    lam = dt.weight_from_json(d, {"Lambda": {"1": "3/2"}})
    assert lam.fundamental_part == (Fraction(3, 2), 0)


def test_root_vector_helpers():
    assert dt.height((2, 0, 1)) == 3
    assert dt.unit_root(3, 1) == (0, 1, 0)
