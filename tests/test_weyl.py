"""Orbit enumeration under the real reflections."""
import random

import pytest

from bbsuper.datum import Weight, height, unit_root, validate_datum
from bbsuper.errors import NotDominant
from bbsuper.weyl import act_on_root, orbit_frontier

from reference import depth_below, reflect, rho


def test_sl2_orbit_of_shifted_weight():
    d = validate_datum([[2]], [1])
    lam = Weight((2,), (0,), (0,))
    orbit = orbit_frontier(d, lam, 12)
    assert [(e.word, e.sign, e.defect) for e in orbit] == [((), 1, (0,)), ((0,), -1, (3,))]
    # the reflected element falls outside a tight window
    assert len(orbit_frontier(d, lam, 2)) == 1


def test_a2_orbit_is_the_full_group():
    d = validate_datum([[2, -1], [-1, 2]], [1, 1])
    orbit = orbit_frontier(d, d.zero_weight(), 10)
    assert [height(e.defect) for e in orbit] == [0, 1, 1, 3, 3, 4]
    assert [e.sign for e in orbit] == [1, -1, -1, 1, 1, -1]
    assert sorted(len(e.word) for e in orbit) == [0, 1, 1, 2, 2, 3]
    assert len({e.defect for e in orbit}) == 6
    start = rho(d)
    for e in orbit:
        assert e.sign == (-1) ** len(e.word)
        image = start
        for i in reversed(e.word):
            image = reflect(d, i, image)
        assert depth_below(start, image) == e.defect


def test_b2_orbit_count():
    d = validate_datum([[2, -2], [-1, 2]], [1, 2])
    assert len(orbit_frontier(d, d.zero_weight(), 20)) == 8


def test_imaginary_indices_do_not_reflect():
    d = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    lam = d.fundamental_weight(0)
    orbit = orbit_frontier(d, lam, 8)
    assert [(e.word, e.defect) for e in orbit] == [((), (0, 0)), ((0,), (2, 0))]


def test_orbit_requires_dominant():
    d = validate_datum([[2]], [1])
    with pytest.raises(NotDominant):
        orbit_frontier(d, Weight((-1,), (0,), (0,)), 5)


def test_act_on_root_simple_cases():
    d = validate_datum([[2, -1], [-1, 2]], [1, 1])
    assert act_on_root(d, (), (1, 0)) == (1, 0)
    assert act_on_root(d, (0,), (0, 1)) == (1, 1)
    assert act_on_root(d, (0,), (1, 0)) == (-1, 0)
    assert act_on_root(d, (0, 1), (1, 0)) == act_on_root(d, (0,), act_on_root(d, (1,), (1, 0)))


def test_act_on_root_preserves_bilinear():
    rng = random.Random(23)
    data = [
        validate_datum([[2, -1], [-1, 2]], [1, 1]),
        validate_datum([[2, -2], [-1, 2]], [1, 2]),
        validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1]),
    ]
    for d in data:
        for _ in range(20):
            word = tuple(rng.choice(d.real_indices) for _ in range(rng.randint(0, 5)))
            beta = tuple(rng.randint(-3, 3) for _ in range(d.rank))
            gamma = tuple(rng.randint(-3, 3) for _ in range(d.rank))
            wb = act_on_root(d, word, beta)
            wg = act_on_root(d, word, gamma)
            assert d.root_bilinear(wb, wg) == d.root_bilinear(beta, gamma)


def test_imaginary_simple_roots_stay_positive():
    d = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    orbit = orbit_frontier(d, d.zero_weight(), 8)
    for e in orbit:
        image = act_on_root(d, e.word, unit_root(2, 1))
        assert min(image) >= 0 and height(image) >= 1
