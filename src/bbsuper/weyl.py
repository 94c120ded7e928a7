"""Bounded Weyl orbits of a shifted dominant weight.

Only real indices reflect.  Starting from lam + rho, a reflection at a
real index i with positive pairing strictly lowers the weight by that
pairing times alpha_i, so the defect (start minus image, read off the
root coordinates) grows monotonically in height and the orbit below a
height bound is finite.  Distinct group elements give distinct defects
because the start is regular dominant, which makes defect deduplication
a faithful enumeration.
"""

from collections import deque, namedtuple

from .datum import OddCartanDatum, Weight, graded_key, height, unit_root
from .errors import NotDominant


class OrbitElement(namedtuple("OrbitElement", "sign defect images")):
    """One group element w: sign, defect and images of the simple roots.

    The defect is the nonnegative integer root vector with
    w(lam + rho) = (lam + rho) - defect, and images[i] is w(alpha_i) in
    root coordinates for every simple index i.
    """

    __slots__ = ()


def orbit_frontier(datum: OddCartanDatum, lam: Weight, height_bound: int) -> list:
    """All orbit elements whose defect height stays within the bound,
    sorted by defect height then lexicographically by defect."""
    if not datum.is_dominant_integral(lam):
        raise NotDominant("orbit expansion needs a dominant integral weight")
    # <h_i, lam + rho>, an integer at real i for dominant integral lam
    shifted = {i: int(datum.pair(i, lam)) + 1 for i in datum.real_indices}
    n = datum.rank
    first = OrbitElement(1, (0,) * n, tuple(unit_root(n, i) for i in range(n)))
    seen = {first.defect: first}
    queue = deque([first])
    while queue:
        elt = queue.popleft()
        for i, t in shifted.items():
            c = t - datum.pair_root(i, elt.defect)
            # descend only; going up would revisit shorter elements
            if c <= 0:
                continue
            if height(elt.defect) + c > height_bound:
                continue
            defect = elt.defect[:i] + (elt.defect[i] + c,) + elt.defect[i + 1 :]
            if defect in seen:
                continue
            # s_i w maps alpha_j to s_i(w(alpha_j))
            images = tuple(datum.reflect_root(i, image) for image in elt.images)
            nxt = OrbitElement(-elt.sign, defect, images)
            seen[defect] = nxt
            queue.append(nxt)
    return sorted(seen.values(), key=lambda e: graded_key(e.defect))
