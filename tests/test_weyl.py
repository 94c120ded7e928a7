"""Orbit enumeration under the real reflections."""
from itertools import permutations
from math import prod

import pytest

from bbsuper.datum import Weight, height, unit_root, validate_datum
from bbsuper.weyl import orbit_frontier

from reference import act_on_root, orbit_words

A2 = validate_datum([[2, -1], [-1, 2]], [1, 1])
B2 = validate_datum([[2, -2], [-1, 2]], [1, 2])
R2 = validate_datum([[2, -1], [-1, 0]], [1, 1], odd=[1])
# the whole group for A2 and B2; r2's group has order 2
ORBITS = [(A2, 10), (B2, 20), (R2, 8)]


def det(rows) -> int:
    """Determinant by the Leibniz sum, with each permutation's sign read
    off its inversion count."""
    n = len(rows)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * prod(rows[k][p[k]] for k in range(n))
    return total


def test_sl2_orbit_of_shifted_weight():
    d = validate_datum([[2]], [1])
    lam = Weight((2,), (0,), (0,))
    orbit = orbit_frontier(d, lam, 12)
    assert [tuple(e) for e in orbit] == [(1, (0,), ((1,),)), (-1, (3,), ((-1,),))]
    # the reflected element falls outside a tight window
    assert len(orbit_frontier(d, lam, 2)) == 1


def test_a2_orbit_is_the_full_group():
    orbit = orbit_frontier(A2, A2.zero_weight(), 10)
    assert [height(e.defect) for e in orbit] == [0, 1, 1, 3, 3, 4]
    assert [e.sign for e in orbit] == [1, -1, -1, 1, 1, -1]
    assert len({e.defect for e in orbit}) == 6
    words = orbit_words(A2, A2.zero_weight(), 10)
    assert sorted(map(len, words.values())) == [0, 1, 1, 2, 2, 3]
    assert {e.defect for e in orbit} == set(words)
    for e in orbit:
        assert e.sign == (-1) ** len(words[e.defect])


def test_b2_orbit_count():
    assert len(orbit_frontier(B2, B2.zero_weight(), 20)) == 8


def test_imaginary_indices_do_not_reflect():
    orbit = orbit_frontier(R2, R2.fundamental_weight(0), 8)
    # s_0 sends alpha_0 to -alpha_0 and alpha_1 to alpha_0 + alpha_1
    assert [tuple(e) for e in orbit] == [
        (1, (0, 0), ((1, 0), (0, 1))),
        (-1, (2, 0), ((-1, 0), (1, 1))),
    ]


def test_orbit_requires_dominant():
    d = validate_datum([[2]], [1])
    with pytest.raises(ValueError, match="orbit expansion needs a dominant integral weight"):
        orbit_frontier(d, Weight((-1,), (0,), (0,)), 5)


@pytest.mark.parametrize("d, bound", ORBITS, ids=["A2", "B2", "r2"])
def test_images_replay_the_reflection_word(d, bound):
    lam = d.zero_weight()
    words = orbit_words(d, lam, bound)
    orbit = orbit_frontier(d, lam, bound)
    assert sorted(e.defect for e in orbit) == sorted(words)
    for e in orbit:
        word = words[e.defect]
        assert e.images == tuple(act_on_root(d, word, unit_root(d.rank, i)) for i in range(d.rank))
        assert e.sign == det(e.images) == (-1) ** len(word)


def test_images_preserve_bilinear():
    for d, bound in ORBITS:
        simple = [unit_root(d.rank, i) for i in range(d.rank)]
        for e in orbit_frontier(d, d.zero_weight(), bound):
            for i in range(d.rank):
                for j in range(d.rank):
                    assert d.root_bilinear(e.images[i], e.images[j]) == d.root_bilinear(
                        simple[i], simple[j]
                    )


def test_imaginary_simple_roots_stay_positive():
    for d, bound in ORBITS:
        for e in orbit_frontier(d, d.zero_weight(), bound):
            for i in d.imaginary_indices:
                assert min(e.images[i]) >= 0 and height(e.images[i]) >= 1
