"""Bounded Weyl orbits of a shifted dominant weight.

Only real indices reflect.  Starting from lam + rho, a reflection at a
real index i with positive pairing strictly lowers the weight by that
pairing times alpha_i, so the defect (start minus image, read off the
root coordinates) grows monotonically in height and the orbit below a
height bound is finite.  Distinct group elements give distinct defects
because the start is regular dominant, which makes defect deduplication
a faithful enumeration and every recorded word reduced.
"""

from collections import deque, namedtuple

from .datum import OddCartanDatum, Weight, graded_key, height
from .errors import NotDominant


class OrbitElement(namedtuple("OrbitElement", "word sign defect")):
    """One group element: reduced word, sign and defect.

    The word lists reflection indices outermost first, so the rightmost
    letter acts first.  The defect is the nonnegative integer root vector
    with image of lam + rho = (lam + rho) - defect.
    """

    __slots__ = ()


def orbit_frontier(datum: OddCartanDatum, lam: Weight, height_bound: int) -> list:
    """All orbit elements whose defect height stays within the bound,
    sorted by defect height then lexicographically by defect."""
    if not datum.is_dominant_integral(lam):
        raise NotDominant("orbit expansion needs a dominant integral weight")
    # <h_i, lam + rho>, an integer at real i for dominant integral lam
    shifted = {i: int(datum.pair(i, lam)) + 1 for i in datum.real_indices}
    first = OrbitElement((), 1, (0,) * datum.rank)
    seen = {first.defect: first}
    queue = deque([first])
    while queue:
        elt = queue.popleft()
        for i, t in shifted.items():
            c = t - datum.pair_root(i, elt.defect)
            # descend only; going up would revisit shorter words
            if c <= 0:
                continue
            if height(elt.defect) + c > height_bound:
                continue
            defect = elt.defect[:i] + (elt.defect[i] + c,) + elt.defect[i + 1 :]
            if defect in seen:
                continue
            nxt = OrbitElement((i,) + elt.word, -elt.sign, defect)
            seen[defect] = nxt
            queue.append(nxt)
    return sorted(seen.values(), key=lambda e: graded_key(e.defect))


def act_on_root(datum: OddCartanDatum, word, beta) -> tuple:
    """Apply a reflection word to root-lattice coordinates, rightmost
    letter first.  The result may leave the positive cone."""
    out = tuple(beta)
    for i in reversed(word):
        out = datum.reflect_root(i, out)
    return out
