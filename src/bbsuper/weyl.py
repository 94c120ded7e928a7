"""Bounded Weyl orbits of a shifted dominant weight.

Only real indices reflect.  Starting from lam + rho, a reflection at a
real index i with positive pairing strictly lowers the weight by that
pairing times alpha_i, so the defect (start minus image, read off the
root coordinates) grows monotonically in height and the orbit below a
height bound is finite.  Distinct group elements give distinct defects
because the start is regular dominant, which makes defect deduplication
a faithful enumeration.  The walk carries the pairings of each image
with the real coroots, so a step costs one pass over the real indices.
"""

from collections import deque, namedtuple

from .datum import OddCartanDatum, Weight, graded_key, height


class OrbitElement(namedtuple("OrbitElement", "sign defect")):
    """One group element w: its sign and its defect, the nonnegative
    integer root vector with w(lam + rho) = (lam + rho) - defect."""

    __slots__ = ()


def orbit_frontier(datum: OddCartanDatum, lam: Weight, height_bound: int) -> list:
    """All orbit elements whose defect height stays within the bound,
    sorted by defect height then lexicographically by defect."""
    if not datum.is_dominant_integral(lam):
        raise ValueError("orbit expansion needs a dominant integral weight")
    real = datum.real_indices
    # <h_j, w(lam + rho)> at the real j, integers for dominant integral lam
    start = tuple(int(datum.pair(j, lam)) + 1 for j in real)
    first = OrbitElement(1, (0,) * datum.rank)
    seen = {first.defect: first}
    queue = deque([(first, start)])
    while queue:
        elt, pairings = queue.popleft()
        room = height_bound - height(elt.defect)
        for i, c in zip(real, pairings):
            # descend only; going up would revisit shorter elements
            if not 0 < c <= room:
                continue
            defect = elt.defect[:i] + (elt.defect[i] + c,) + elt.defect[i + 1 :]
            if defect in seen:
                continue
            nxt = OrbitElement(-elt.sign, defect)
            seen[defect] = nxt
            # s_i lowers the weight by c alpha_i
            queue.append((nxt, tuple(p - c * datum.a[j][i] for j, p in zip(real, pairings))))
    return sorted(seen.values(), key=lambda e: graded_key(e.defect))
