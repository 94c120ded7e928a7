"""Datum validation, pairings and the JSON forms."""
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsuper import datum as dt

from reference import reflect


def sl2():
    return dt.OddCartanDatum([[2]], [1])


def osp12():
    return dt.OddCartanDatum([[2]], [1], odd=[0])


def a2():
    return dt.OddCartanDatum([[2, -1], [-1, 2]], [1, 1])


def mixed_rank2():
    return dt.OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])


def test_valid_data_construct():
    for build in (sl2, osp12, a2, mixed_rank2):
        assert build().rank in (1, 2)
    dt.OddCartanDatum([[0]], [1])
    dt.OddCartanDatum([[-2]], [1])
    dt.OddCartanDatum([[2, -2], [-1, 2]], [1, 2])


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
        dt.OddCartanDatum(a, d, odd)


def test_integral_values_of_other_types_accepted():
    assert dt.OddCartanDatum([[2.0, Fraction(-1)], [-1, 0]], [1, 1], [1]) == mixed_rank2()


def test_bad_diagonal():
    rule = ": a diagonal entry must be 2 or a nonpositive even integer"
    with pytest.raises(ValueError, match=re.escape("a[0][0] = 3" + rule)):
        dt.OddCartanDatum([[3]], [1])
    with pytest.raises(ValueError, match=re.escape("a[0][0] = -1" + rule)):
        dt.OddCartanDatum([[-1]], [1])
    with pytest.raises(ValueError, match=re.escape("a[0][0] = 1" + rule)):
        dt.OddCartanDatum([[1]], [1])


def test_positive_off_diagonal():
    message = "a[0][1] = 1: an off-diagonal entry must be nonpositive"
    with pytest.raises(ValueError, match=re.escape(message)):
        dt.OddCartanDatum([[2, 1], [1, 2]], [1, 1])


def test_not_symmetrizable():
    message = "d[0]*a[0][1] = -1 != d[1]*a[1][0] = -2: D*A must be symmetric"
    with pytest.raises(ValueError, match=re.escape(message)):
        dt.OddCartanDatum([[2, -1], [-2, 2]], [1, 1])
    rule = ": every entry must be positive"
    with pytest.raises(ValueError, match=re.escape("symmetrizer D = [0]" + rule)):
        dt.OddCartanDatum([[2]], [0])
    with pytest.raises(ValueError, match=re.escape("symmetrizer D = [-1]" + rule)):
        dt.OddCartanDatum([[2]], [-1])


def test_odd_real_row_parity():
    # the odd index is named from one, as the JSON form lists it
    rule = " is real, so its row must be even"
    with pytest.raises(ValueError, match=re.escape("a[0][1] = -1: odd index 1" + rule)):
        dt.OddCartanDatum([[2, -1], [-1, 2]], [1, 1], odd=[0])
    # the same matrix is fine when the odd index is the other one only if
    # its row is even as well, so it must fail too
    with pytest.raises(ValueError, match=re.escape("a[1][0] = -1: odd index 2" + rule)):
        dt.OddCartanDatum([[2, -1], [-1, 2]], [1, 1], odd=[1])
    # imaginary odd index with an odd entry in its row is allowed
    mixed_rank2()


def test_index_classes():
    d = mixed_rank2()
    assert d.real_indices == (0,)
    assert d.imaginary_indices == (1,)
    assert d.isotropic_indices == (1,)
    assert d.is_odd(1) and not d.is_odd(0)
    neg = dt.OddCartanDatum([[-2]], [1])
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
    for d in (a2(), dt.OddCartanDatum([[2, -2], [-1, 2]], [1, 2]), mixed_rank2()):
        n = d.rank
        for i in range(n):
            for j in range(n):
                ei = dt.unit_root(n, i)
                ej = dt.unit_root(n, j)
                assert d.root_bilinear(ei, ej) == d.d[i] * d.a[i][j]
                assert d.root_bilinear(ei, ej) == d.root_bilinear(ej, ei)


def test_reflection_involution_and_negation():
    # the reference reflection that orbit_words and act_on_root replay
    d = a2()
    for beta in ((1, 0), (2, 1), (-3, 4)):
        w = dt.Weight((0, 0), (0, 0), beta)
        for i in range(2):
            ref = reflect(d, i, w)
            assert d.pair(i, ref) == -d.pair(i, w)
            assert reflect(d, i, ref) == w
            assert ref.root_part[1 - i] == beta[1 - i]


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
    d = dt.OddCartanDatum([[0]], [1])
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


def entry(value):
    """The Lambda_1 entry that weight_from_json reads from value."""
    return dt.weight_from_json(sl2(), {"Lambda": {"1": value}}).fundamental_part[0]


def assert_reads_as_fraction(text):
    """weight_from_json accepts text exactly when Fraction does, with the
    same value, kept as an int when it is integral."""
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            entry(text)
        return
    got = entry(text)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


@pytest.mark.parametrize(
    "text",
    [
        "7", " 7 ", "\t-3\n", "+4", "-0", "007", "\u30002\u3000", "- 1", "+-1", "", " ", "+",
        "1_0", " 1_000 ", "1__0", "_1", "1_", "1_0/2", "\u0663", "\u0661\u0662", "\uff17", "\u00b2",
        "2/1", "-6/3", "3/2", "1/0", "1 / 2", "1.0", "1.5", ".5", "5.", "1e3", "1E-1", "1e",
        "0x10", "nan", "NaN", "inf", "-Infinity", "1 0", "true",
    ],
)
def test_weight_entry_strings_read_as_fraction_does(text):
    assert_reads_as_fraction(text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="0123456789 \t\u3000\u0663\u00b2+-_/.eE", max_size=6))
def test_weight_entry_text_reads_as_fraction_does(text):
    assert_reads_as_fraction(text)


@pytest.mark.parametrize(
    "doc, want",
    [
        ("7", 7), ("-3", -3), ("1.0", 1), ("-2.0", -2), ("0.5", Fraction(1, 2)),
        ("0.1", Fraction(1, 10)), ("true", None), ("false", None), ("NaN", None),
        ("Infinity", None), ("-Infinity", None), ("null", None), ("[1]", None),
    ],
)
def test_weight_entry_json_numbers(doc, want):
    value = json.loads(doc)
    if want is None:
        with pytest.raises((ValueError, TypeError)):
            entry(value)
    else:
        got = entry(value)
        assert got == want and type(got) is type(want)


def test_root_vector_helpers():
    assert dt.unit_root(3, 1) == (0, 1, 0)
