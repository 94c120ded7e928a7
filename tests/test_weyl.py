"""Orbit enumeration under the real reflections."""
from collections import Counter
from math import comb

import pytest

from bbsuper.charformula import numerator_series, orbit_frontier
from bbsuper.datum import OddCartanDatum, Weight, unit_root

from reference import act_on_root, orbit_words

A2 = OddCartanDatum([[2, -1], [-1, 2]], [1, 1])
B2 = OddCartanDatum([[2, -2], [-1, 2]], [1, 2])
R2 = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
# the whole group for A2 and B2; r2's group has order 2
ORBITS = [(A2, 10), (B2, 20), (R2, 8)]


def test_sl2_orbit_of_shifted_weight():
    # 2 Lambda + rho pairs to 3 with h
    d = OddCartanDatum([[2]], [1])
    assert orbit_frontier(d, (3,), 12) == {(0,): 1, (3,): -1}
    # the reflected element falls outside a tight window
    assert orbit_frontier(d, (3,), 2) == {(0,): 1}


def test_orbit_without_real_index_is_mu_alone():
    # free and zero4 have no real index, so start is empty
    for d in (OddCartanDatum([[-2]], [1]), OddCartanDatum([[0] * 4] * 4, [1] * 4)):
        assert orbit_frontier(d, (), 6) == {(0,) * d.rank: 1}


def test_a2_orbit_is_the_full_group():
    orbit = orbit_frontier(A2, (1, 1), 10)
    assert orbit == {
        (0, 0): 1,
        (1, 0): -1,
        (0, 1): -1,
        (1, 2): 1,
        (2, 1): 1,
        (2, 2): -1,
    }
    words = orbit_words(A2, A2.zero_weight(), 10)
    assert sorted(map(len, words.values())) == [0, 1, 1, 2, 2, 3]
    assert orbit == {defect: (-1) ** len(word) for defect, word in words.items()}


def test_b2_orbit_count():
    assert len(orbit_frontier(B2, (1, 1), 20)) == 8


def test_imaginary_indices_do_not_reflect():
    # Lambda_0 + rho pairs to 2 with the one real coroot h_0
    orbit = orbit_frontier(R2, (2,), 8)
    # s_0 lowers Lambda_0 + rho by 2 alpha_0; s_1 does not exist
    assert orbit == {(0, 0): 1, (2, 0): -1}


def test_orbit_requires_dominant():
    # the numerator checks lam once, before any walk
    d = OddCartanDatum([[2]], [1])
    with pytest.raises(ValueError, match="orbit expansion needs a dominant integral weight"):
        numerator_series(d, Weight((-1,), (0,), (0,)), 5)


@pytest.mark.parametrize("d, bound", ORBITS, ids=["A2", "B2", "r2"])
def test_images_replay_the_reflection_word(d, bound):
    # the defects are those of lam + rho reflected as a weight, word by word
    lam = d.zero_weight()
    words = orbit_words(d, lam, bound)
    # rho pairs to 1 with every real coroot
    orbit = orbit_frontier(d, (1,) * len(d.real_indices), bound)
    assert orbit == {defect: (-1) ** len(word) for defect, word in words.items()}


def test_imaginary_simple_roots_stay_positive():
    # w(alpha_i) >= 0 at imaginary i: numerator_by_images cuts the orbit
    # of lam at the height bound before it moves a support by w, and this
    # is why that cut loses no term
    for d, bound in ORBITS:
        for word in orbit_words(d, d.zero_weight(), bound).values():
            for i in d.imaginary_indices:
                image = act_on_root(d, word, unit_root(d.rank, i))
                assert min(image) >= 0 and sum(image) >= 1


def chain(n):
    """The A_n Cartan matrix: 2 on the diagonal, -1 beside it."""
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    return OddCartanDatum(a, [1] * n)


def test_a60_orbit_count_at_height_two():
    # the identity, the 60 simple reflections and the commuting pairs
    # s_i s_j; an adjacent pair has defect alpha_i + 2 alpha_j, height 3
    d = chain(60)
    orbit = orbit_frontier(d, (1,) * 60, 2)
    assert len(orbit) == 1 + 60 + comb(60, 2) - 59 == 1772
    assert Counter(orbit.values()) == {1: 1 + comb(60, 2) - 59, -1: 60}
