"""Bounded Weyl orbits of a shifted dominant weight.

Only real indices reflect.  Starting from lam + rho, a reflection at a
real index i with positive pairing strictly lowers the weight by that
pairing times alpha_i, so the defect (start minus image, read off the
root coordinates) grows monotonically in height and the orbit below a
height bound is finite.  Distinct group elements give distinct images
because the start is regular dominant, which makes image deduplication a
faithful enumeration and every recorded word reduced.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .datum import OddCartanDatum, Weight, depth_below, graded_key, height
from .errors import NotDominant


@dataclass(frozen=True)
class OrbitElement:
    """One group element: reduced word, sign, image of lam + rho, defect.

    The word lists reflection indices outermost first, so the rightmost
    letter acts first.  The defect is the nonnegative integer root vector
    with image = (lam + rho) - defect.
    """

    word: tuple
    sign: int
    image: Weight
    defect: tuple


def orbit_frontier(datum: OddCartanDatum, lam: Weight, height_bound: int) -> list:
    """All orbit elements whose defect height stays within the bound,
    sorted by defect height then lexicographically by defect."""
    if not datum.is_dominant_integral(lam):
        raise NotDominant("orbit expansion needs a dominant integral weight")
    start = lam + datum.rho()
    zero = (0,) * datum.rank
    first = OrbitElement((), 1, start, zero)
    seen = {start.root_part: first}
    queue = deque([first])
    while queue:
        elt = queue.popleft()
        for i in datum.real_indices:
            c = datum.pair(i, elt.image)
            # descend only; going up would revisit shorter words
            if c <= 0:
                continue
            if height(elt.defect) + c > height_bound:
                continue
            image = datum.reflect(i, elt.image)
            if image.root_part in seen:
                continue
            defect = depth_below(start, image)
            if defect is None:
                raise ValueError(f"{image} does not lie below {start}")
            nxt = OrbitElement((i,) + elt.word, -elt.sign, image, defect)
            seen[image.root_part] = nxt
            queue.append(nxt)
    return sorted(seen.values(), key=lambda e: graded_key(e.defect))


def act_on_root(datum: OddCartanDatum, word, beta) -> tuple:
    """Apply a reflection word to root-lattice coordinates, rightmost
    letter first.  The result may leave the positive cone."""
    out = tuple(beta)
    for i in reversed(word):
        out = datum.reflect_root(i, out)
    return out
