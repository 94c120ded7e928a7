"""Value semantics of the record types: field-wise equality and hash,
read-only fields, validation on construction, and the engines' refusal
of an operand whose shape does not fit its datum or its other operands."""
import copy
import pickle
import time
from fractions import Fraction

import pytest

from bbsuper.charformula import (CharacterResult, irreducible_character, numerator_series,
                                 orbit_frontier)
from bbsuper.datum import OddCartanDatum, Weight
from bbsuper.roots import RootEntry, RootTable, denominator_R, solve_multiplicities
from bbsuper.series import CharSeries, product_holds
from bbsuper.verma_oracle import irreducible_dims, weight_window


def test_weight_is_a_value():
    w = Weight((1, 0), (0, 0), (0, 2))
    same = Weight((Fraction(1), 0), (0, 0), (0, Fraction(4, 2)))
    assert w == same and hash(w) == hash(same)
    assert {w: "lam"}[same] == "lam"
    assert w != Weight((1, 0), (0, 0), (2, 0))
    assert w != (w.fundamental_part, w.aux_part, w.root_part)
    assert w.fundamental_part == (Fraction(1), Fraction(0))
    # an integral entry is kept as an int, whatever type it came in
    assert [type(x) for x in same.fundamental_part + same.root_part] == [int] * 4
    assert repr(Weight((1,), (0,), (0,))) == (
        "Weight(fundamental_part=(1,), aux_part=(0,), root_part=(0,))"
    )
    assert repr(Weight((Fraction(1, 2),), ("2/1",), (Fraction(-6, 3),))) == (
        "Weight(fundamental_part=(Fraction(1, 2),), aux_part=(2,), root_part=(-2,))"
    )
    # entries are read as weight_from_json reads them: a float through its
    # decimal string, and a refusal names the entry
    assert Weight((0.1,), (0,), (0,)).fundamental_part == (Fraction(1, 10),)
    assert [type(x) for x in Weight((0,), (2.0,), (0,)).aux_part] == [int]
    for bad in (True, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=r"at index 2 in weight block 'alpha'$"):
            Weight((0, 0), (0, 0), (0, bad))
    with pytest.raises(ValueError, match=r"^zero denominator at index 1 in weight block 'delta'$"):
        Weight((0,), ("1/0",), (0,))
    # a value that str() could not write is refused as its digit string is
    too_long = r"^more than 4300 digits at index 1 in weight block 'Lambda'$"
    with pytest.raises(ValueError, match=too_long):
        Weight(("1e5000",), (0,), (0,))
    with pytest.raises(ValueError, match="^coordinate blocks disagree in length$"):
        Weight((1,), (0, 0), (0,))


def test_weight_exponent_past_the_limit_refused_at_once():
    # Fraction("1e10000000") builds 10**10000000, many seconds, before
    # str() could refuse it; a zero mantissa stays 0 at any exponent
    too_long = r"^more than 4300 digits at index 1 in weight block 'Lambda'$"
    start = time.perf_counter()
    for huge in ("1e10000000", "-2.5E-10000000"):
        with pytest.raises(ValueError, match=too_long):
            Weight((huge,), (0,), (0,))
    assert Weight(("0e10000000",), (0,), (0,)).fundamental_part == (0,)
    assert time.perf_counter() - start < 1
    small = Weight(("1e-5", "2.5e-1"), (0, 0), (0, 0)).fundamental_part
    assert small == (Fraction(1, 100000), Fraction(1, 4))


def test_datum_is_a_value():
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    same = OddCartanDatum(((2, -1), (-1, 0)), (1, 1), frozenset({1}))
    assert d == same and hash(d) == hash(same)
    assert {d: "r2"}[same] == "r2"
    assert d != OddCartanDatum([[2, -1], [-1, 0]], [1, 1])
    assert repr(OddCartanDatum([[2]], [1])) == "OddCartanDatum(a=((2,),), d=(1,), odd=frozenset())"


def test_datum_validates_on_construction():
    with pytest.raises(ValueError, match=r"a\[0\]\[0\] = 3: a diagonal entry must be 2"):
        OddCartanDatum(((3,),), (1,), frozenset())
    with pytest.raises(ValueError, match="not square"):
        OddCartanDatum(((2, 0),), (1,), frozenset())


@pytest.mark.parametrize(
    "value, field",
    [
        (Weight((1,), (0,), (0,)), "root_part"),
        (OddCartanDatum([[2]], [1]), "a"),
        (RootEntry(1, 0, True), "mult"),
        (CharacterResult(CharSeries.one(1, 1), Weight((1,), (0,), (0,)), 1, 1, 0), "series"),
        (RootTable(2, {}), "entries"),
    ],
)
def test_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize(
    "value", [Weight((Fraction(1, 2),), (0,), (1,)), OddCartanDatum([[2]], [1], odd=[0])]
)
def test_copy_and_pickle_keep_the_value(value):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_records_compare_by_field():
    assert RootEntry(1, 0, True) == RootEntry(1, 0, True)
    assert hash(RootEntry(2, 1, False)) == hash(RootEntry(2, 1, False))
    assert RootEntry(1, 0, True) != RootEntry(1, 1, True)
    entry = RootEntry(mult=3, parity=1, is_real=False)
    assert (entry.mult, entry.parity, entry.is_real) == (3, 1, False)
    assert repr(entry) == "RootEntry(mult=3, parity=1, is_real=False)"
    rows = {(1,): RootEntry(1, 1, True), (2,): RootEntry(1, 0, True)}
    assert RootTable(2, rows) == RootTable(height_bound=2, entries=dict(rows))
    assert RootTable(2, rows) != RootTable(3, rows)
    assert RootTable(2, rows) != RootTable(2, {(1,): RootEntry(1, 1, True)})
    series = CharSeries.one(2, 1)
    lam = Weight((1,), (0,), (0,))
    assert CharacterResult(series, lam, 1, 1, 0) == CharacterResult(
        series=series, highest_weight=lam, orbit_size=1, support_terms=1, residual_terms=0
    )


def test_series_repr_and_equality():
    # the repr lists the first six terms in graded order, then "..."
    assert repr(CharSeries.one(2, 1)) == "CharSeries(H=2, 1*q^(0,))"
    assert repr(CharSeries(2, 1)) == "CharSeries(H=2, 0)"
    seven = CharSeries(3, 2, {(0, 0): 1, (1, 0): -2, (0, 1): 3, (2, 0): 4, (1, 1): 5,
                              (0, 2): 6, (3, 0): 7})
    assert repr(seven) == ("CharSeries(H=3, 1*q^(0, 0) + 3*q^(0, 1) + -2*q^(1, 0)"
                           " + 6*q^(0, 2) + 5*q^(1, 1) + 4*q^(2, 0) + ...)")
    # a series equals no other type, not even the dict of its terms
    assert CharSeries.one(1, 1) != {(0,): 1}
    assert CharSeries.one(1, 1) == CharSeries(1, 1, {(0,): 1})


# ---- operands of another shape ----

R2 = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
R3 = OddCartanDatum([[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], [1, 1, 1], odd=[1])
A2 = OddCartanDatum([[2, -1], [-1, 2]], [1, 1])
WEIGHTS = {"short": Weight((1,), (0,), (0,)), "long": Weight((1, 0, 0), (0, 0, 0), (0, 0, 0))}
R4 = OddCartanDatum([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]],
                    [1] * 4, odd=[2])
N0_R3 = numerator_series(R3, R3.zero_weight(), 3)


# each case, where its rule was not checked, raised IndexError, returned
# True or gave a result cut to the shorter operand
@pytest.mark.parametrize(
    "call, message",
    [
        *(pytest.param(lambda f=f, lam=lam: f(R2, lam, 3),
                       f"weight has length {len(lam.root_part)}, need the rank 2",
                       id=f"{f.__name__}-{kind}")
          for f in (irreducible_character, numerator_series, irreducible_dims)
          for kind, lam in WEIGHTS.items()),
        pytest.param(lambda: product_holds(CharSeries.one(2, 1), CharSeries.one(2, 1),
                                           CharSeries(3, 1, {(0,): 1, (3,): 1})),
                     "height bounds differ: 2 vs 3", id="product_holds-bound"),
        pytest.param(lambda: product_holds(CharSeries.one(2, 2), CharSeries.one(2, 2),
                                           CharSeries.one(2, 1)),
                     "series ranks differ", id="product_holds-rank"),
        pytest.param(lambda: solve_multiplicities(R2, 3, N0_R3), "series ranks differ",
                     id="solve_multiplicities-rank"),
        # r4's N_0 at height 8 is refused at a bound below it, whose layers
        # it overruns, and above it, where its missing layers read as zero
        *(pytest.param(lambda h=h: solve_multiplicities(R4, h, numerator_series(
                           R4, R4.zero_weight(), 8)),
                       f"height bounds differ: 8 vs {h}", id=f"solve_multiplicities-bound-{h}")
          for h in (6, 10)),
        pytest.param(lambda: orbit_frontier(A2, (1,), 10),
                     "start has length 1, need 2, one per real index", id="orbit_frontier-short"),
        pytest.param(lambda: orbit_frontier(A2, (1, 1, 1), 10),
                     "start has length 3, need 2, one per real index", id="orbit_frontier-long"),
        # a pairing below 1 would walk 3 of the 6 elements of A2's group
        *(pytest.param(lambda start=start: orbit_frontier(A2, start, 10),
                       f"start pairing {low} is below 1: mu is not regular dominant",
                       id=f"orbit_frontier-pairing-{low}")
          for start, low in (((0, 1), 0), ((-1, 2), -1))),
    ],
)
def test_operand_of_another_shape_is_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# each call, before the bound was checked, raised IndexError or
# ZeroDivisionError or built an empty series or window; R2's zero weight has an
# eligible isotropic index, so its supports read a table of sign factors
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: irreducible_character(R2, R2.zero_weight(), -1),
                     id="irreducible_character"),
        pytest.param(lambda: numerator_series(R2, R2.zero_weight(), -1), id="numerator_series"),
        pytest.param(lambda: solve_multiplicities(R2, -1), id="solve_multiplicities"),
        pytest.param(lambda: denominator_R(R2, RootTable(2, {}), -1), id="denominator_R"),
        pytest.param(lambda: CharSeries(-1, 2), id="CharSeries"),
        pytest.param(lambda: weight_window(2, -1), id="weight_window"),
        pytest.param(lambda: irreducible_dims(R2, R2.zero_weight(), -1), id="irreducible_dims"),
        pytest.param(lambda: irreducible_dims(R2, None, -1), id="irreducible_dims-generic"),
    ],
)
def test_negative_height_bound_is_refused(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "height bound -1 is negative"
