"""Series kernel: exact truncated products, quotients and factors."""
import random
import re

import pytest

from bbsuper.datum import OddCartanDatum
from bbsuper.roots import denominator_R
from bbsuper.series import CharSeries

from reference import binomial_factor, count_partitions, one_series, series_product, series_to_json


# ---- independent oracles ----


def random_series(rng, bound, rank, nterms, unit=False):
    terms = {}
    if unit:
        terms[(0,) * rank] = rng.choice([1, -1])
    for _ in range(nterms):
        e = tuple(rng.randint(0, bound) for _ in range(rank))
        if sum(e) <= bound and not (unit and sum(e) == 0):
            terms[e] = terms.get(e, 0) + rng.randint(-5, 5)
    return CharSeries(bound, rank, terms)


# ---- tests ----


def test_mul_matches_brute_convolution():
    rng = random.Random(11)
    for _ in range(30):
        a = random_series(rng, 5, 2, 6)
        b = random_series(rng, 5, 2, 6)
        assert a.mul(b).terms == series_product(a.terms, b.terms, 5)


def test_mul_commutes_and_distributes():
    rng = random.Random(13)
    for _ in range(10):
        a = random_series(rng, 4, 2, 5)
        b = random_series(rng, 4, 2, 5)
        c = random_series(rng, 4, 2, 5)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b - c) == a.mul(b) - a.mul(c)


def test_invert_geometric():
    s = CharSeries(8, 1, {(0,): 1, (1,): -1})
    inv = one_series(8, 1).divide(s)
    assert all(inv.coefficient((k,)) == 1 for k in range(9))


def test_invert_round_trip():
    rng = random.Random(17)
    one = one_series(5, 2)
    for _ in range(25):
        a = random_series(rng, 5, 2, 5, unit=True)
        assert a.mul(one.divide(a)) == one
        b = random_series(rng, 5, 2, 5, unit=True)
        assert a.divide(b).mul(b) == a
        assert a.mul(b).divide(b) == a
    with pytest.raises(ValueError, match=re.escape("constant term 2: a divisor needs")):
        one.divide(CharSeries(5, 2, {(0, 0): 2, (1, 0): 1}))
    with pytest.raises(ValueError, match="height bounds differ: 5 vs 4"):
        one.divide(one_series(4, 2))


def test_invert_requires_unit():
    one = one_series(3, 1)
    rule = ": a divisor needs constant term 1 or -1"
    with pytest.raises(ValueError, match=re.escape("constant term 0" + rule)):
        one.divide(CharSeries(3, 1, {(1,): 1}))
    with pytest.raises(ValueError, match=re.escape("constant term 2" + rule)):
        one.divide(CharSeries(3, 1, {(0,): 2}))


def test_from_log_derivative_refuses_a_constant_term():
    # D(R) / R has no constant term, so no R has this log; the rest of it
    # is D(R) / R of R = 1 - q
    log = CharSeries(3, 1, {(0,): 5, (1,): -1, (2,): -1, (3,): -1})
    with pytest.raises(ValueError) as info:
        CharSeries.from_log_derivative(log)
    assert str(info.value) == "constant term 5 of log: D(R) / R has none"
    del log.terms[(0,)]
    assert CharSeries.from_log_derivative(log) == CharSeries(3, 1, {(0,): 1, (1,): -1})


def test_height_and_rank_guards():
    a = one_series(3, 1)
    b = one_series(4, 1)
    with pytest.raises(ValueError, match="height bounds differ: 3 vs 4"):
        a.mul(b)
    with pytest.raises(ValueError, match="height bounds differ: 3 vs 4"):
        a - b
    with pytest.raises(ValueError):
        a.mul(one_series(3, 2))
    with pytest.raises(ValueError):
        CharSeries(3, 1, {(-1,): 1})
    with pytest.raises(ValueError, match="exponent length does not match the rank"):
        CharSeries(2, 2, {(1,): 1})


def test_truncate_drops_high_terms():
    t = CharSeries(3, 1, {(k,): k + 1 for k in range(7)})
    assert t.height_bound == 3
    assert t.terms == {(0,): 1, (1,): 2, (2,): 3, (3,): 4}


def test_binomial_factor_positive_power():
    f = binomial_factor((1,), 3, -1, 1, 5, 1)
    assert [f.coefficient((k,)) for k in range(6)] == [1, -3, 3, -1, 0, 0]


def test_binomial_factor_negative_power_matches_inverse():
    plus = binomial_factor((1,), 1, 1, 1, 7, 1)
    square = plus.mul(plus)
    direct = binomial_factor((1,), 2, 1, -1, 7, 1)
    assert square.mul(direct) == one_series(7, 1)
    assert direct == one_series(7, 1).divide(square)


def test_binomial_factor_vector_exponent():
    f = binomial_factor((1, 1), 2, -1, 1, 4, 2)
    assert f.coefficient((0, 0)) == 1
    assert f.coefficient((1, 1)) == -2
    assert f.coefficient((2, 2)) == 1
    assert len(f.terms) == 3


def test_partition_counts_from_euler_product():
    bound = 9
    prod = one_series(bound, 1)
    for l in range(1, bound + 1):
        prod = prod.mul(binomial_factor((l,), 1, -1, 1, bound, 1))
    inv = one_series(bound, 1).divide(prod)
    for n in range(bound + 1):
        assert inv.coefficient((n,)) == count_partitions(n)


# ---- the denominator builders against a stub table ----


class _Entry:
    def __init__(self, mult, parity):
        self.mult = mult
        self.parity = parity


class _Table:
    # denominator_R reads a table through these two attributes alone
    def __init__(self, height_bound, entries):
        self.height_bound = height_bound
        self.entries = entries


def test_denominator_even_single_root():
    d = OddCartanDatum([[2]], [1])
    # a table deeper than the window: its roots past height 6 add nothing,
    # wherever they come in the unsorted walk
    table = _Table(9, {(8,): _Entry(5, 0), (1,): _Entry(1, 0), (7,): _Entry(2, 1)})
    r = denominator_R(d, table, 6)
    assert r.terms == {(0,): 1, (1,): -1}
    ch = one_series(6, 1).divide(r)
    assert all(ch.coefficient((k,)) == 1 for k in range(7))


def test_denominator_odd_root_inverts_factor():
    d = OddCartanDatum([[2]], [1], odd=[0])
    table = _Table(5, {(1,): _Entry(1, 1), (2,): _Entry(1, 0)})
    r = denominator_R(d, table, 5)
    # (1 - q^2) / (1 + q) = 1 - q
    assert r.terms == {(0,): 1, (1,): -1}


def test_denominator_needs_full_table():
    d = OddCartanDatum([[2]], [1])
    table = _Table(3, {(1,): _Entry(1, 0)})
    with pytest.raises(ValueError, match="root table stops at height 3, need 5"):
        denominator_R(d, table, 5)


def test_denominator_checks_each_root_once():
    # a root of multiplicity 0 or past the window adds nothing; any other
    # is refused as CharSeries refuses its exponent, or at height 0
    d = OddCartanDatum([[2, -1], [-1, 2]], [1, 1])
    table = _Table(3, {(1, 0): _Entry(1, 0), (-1, 2): _Entry(0, 0), (3, 1): _Entry(1, 0)})
    assert denominator_R(d, table, 3).terms == {(0, 0): 1, (1, 0): -1}
    for beta, message in (((2, -1), r"exponent \(2, -1\) leaves the cone"),
                          ((1, 0, 0), "exponent length does not match the rank"),
                          ((0, 0), r"exponent \(0, 0\) has height 0 and is not a root")):
        with pytest.raises(ValueError, match=message):
            denominator_R(d, _Table(3, {beta: _Entry(1, 0)}), 3)


def test_series_json_round_trip():
    s = CharSeries(4, 2, {(0, 0): 1, (1, 2): -3, (2, 0): 5})
    blob = series_to_json(s)
    assert blob["terms"] == [
        {"exp": [0, 0], "coef": "1"},
        {"exp": [2, 0], "coef": "5"},
        {"exp": [1, 2], "coef": "-3"},
    ]
    terms = {tuple(t["exp"]): int(t["coef"]) for t in blob["terms"]}
    assert CharSeries(blob["height_bound"], 2, terms) == s
