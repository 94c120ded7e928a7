"""Highest-weight characters by alternating sum over the bounded orbit.

The numerator is the sum, over the real Weyl group and over the
orthogonal supports s built on imaginary indices annihilated by the
highest weight, of signed exponentials at (lam + rho) - w(lam + rho - s).
The supports depend on the highest weight alone and are enumerated once.
Since s lies on imaginary indices, lam - s is again dominant integral, so
dominance is checked once for lam, and each support takes one orbit walk
of mu = lam + rho - s, cut at the height left after s.  The walk reflects
at real indices only and reads mu only through its integer pairings
<h_j, mu> at the real j.  A reflection at i with pairing c > 0 lowers the
weight by c alpha_i, so the defect (mu minus the image, in root
coordinates) grows in height, the orbit below a height bound is finite,
and every exponent s + defect lies in the positive cone.  Distinct group
elements give distinct defects because mu is regular dominant, which
makes defect deduplication a faithful enumeration.  By the denominator
identity the numerator N_0 at highest weight zero is the product over
positive roots, so the character is the quotient N_lambda / N_0: one
layered division, with no root table, exact within the height window.

Support signs come in three flavours per index: any level n with sign -1
at a non-isotropic imaginary index, the inverse-Euler coefficients at an
even isotropic one, and the coefficients of the inverse distinct-parts
product at an odd isotropic one.
"""

from collections import deque, namedtuple
from functools import lru_cache
from operator import add

from .datum import OddCartanDatum, Weight, graded_key, height, weight_to_json
from .series import CharSeries, series_to_json


@lru_cache(maxsize=None)
def _euler_table(bound: int, step: int) -> tuple:
    # prod (1 - q^k) over k = 1, 1 + step, ... <= bound, through q^bound
    coeffs = [0] * (bound + 1)
    coeffs[0] = 1
    for k in range(1, bound + 1, step):
        for m in range(bound, k - 1, -1):
            coeffs[m] -= coeffs[m - k]
    return tuple(coeffs)


def euler_phi(n: int) -> int:
    """Coefficient of q^n in the Euler product prod (1 - q^k)."""
    if n < 0:
        raise ValueError("negative degree")
    return _euler_table(n, 1)[n]


def odd_iso_coeffs(n: int) -> int:
    """Coefficient of q^n in 1 / prod (1 + q^l) = prod over odd l of (1 - q^l)."""
    if n < 0:
        raise ValueError("negative degree")
    return _euler_table(n, 2)[n]


class OrthogonalSupport(namedtuple("OrthogonalSupport", "indices coeffs sign")):
    """Distinct pairwise-orthogonal imaginary indices with level totals.

    The support's weight is sum coeffs[k] * alpha_{indices[k]}; sign is the
    product of the per-index factors, possibly zero.
    """

    __slots__ = ()


def eligible_indices(datum: OddCartanDatum, lam: Weight) -> tuple:
    """Imaginary indices whose simple root pairs to zero with lam."""
    return tuple(i for i in datum.imaginary_indices if datum.pair(i, lam) == 0)


def _index_factor(datum: OddCartanDatum, i: int, n: int) -> int:
    if not datum.is_isotropic(i):
        return -1
    if datum.is_odd(i):
        return odd_iso_coeffs(n)
    return euler_phi(n)


def enumerate_supports(datum, lam, budget) -> list:
    """All supports whose total level fits the budget; the empty support
    is always first."""
    elig = eligible_indices(datum, lam)
    out = []

    def extend(pos, chosen, coeffs, used, sign):
        out.append(OrthogonalSupport(chosen, coeffs, sign))
        for k in range(pos, len(elig)):
            i = elig[k]
            # (alpha_i, alpha_j) = d_i a_ij with d_i > 0
            if any(datum.a[i][j] != 0 for j in chosen):
                continue
            for level in range(1, budget - used + 1):
                extend(
                    k + 1,
                    chosen + (i,),
                    coeffs + (level,),
                    used + level,
                    sign * _index_factor(datum, i, level),
                )

    extend(0, (), (), 0, 1)
    return out


class OrbitElement(namedtuple("OrbitElement", "sign defect")):
    """One group element w: its sign and its defect, the nonnegative
    integer root vector with w(mu) = mu - defect for the walk's start mu."""

    __slots__ = ()


def orbit_frontier(datum: OddCartanDatum, start, height_bound: int) -> list:
    """All orbit elements of a regular dominant mu, given by its positive
    integer pairings start = <h_j, mu> at datum.real_indices, whose defect
    height stays within the bound, sorted by defect height then
    lexicographically by defect."""
    real = datum.real_indices
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


def _numerator_with_count(datum, lam, height_bound):
    """The numerator, the orbit size of lam and the number of terms."""
    if not datum.is_dominant_integral(lam):
        raise ValueError("orbit expansion needs a dominant integral weight")
    real = datum.real_indices
    # <h_j, lam + rho> at the real j, integers for dominant integral lam
    start = [int(datum.pair(j, lam)) + 1 for j in real]
    acc = {}
    walks = []
    for sup in enumerate_supports(datum, lam, height_bound):
        if not sup.sign:
            continue
        s = [0] * datum.rank
        for i, level in zip(sup.indices, sup.coeffs):
            s[i] = level
        pairings = [p - datum.pair_root(j, s) for j, p in zip(real, start)]
        walk = orbit_frontier(datum, pairings, height_bound - height(s))
        for elt in walk:
            key = tuple(map(add, s, elt.defect))
            acc[key] = acc.get(key, 0) + elt.sign * sup.sign
        walks.append(len(walk))
    # the empty support comes first, so walks[0] is the orbit of lam
    return CharSeries(height_bound, datum.rank, acc), walks[0], sum(walks)


def numerator_series(datum, lam, height_bound) -> CharSeries:
    """Alternating orbit sum, normalized so the zero exponent reads 1."""
    series, _, _ = _numerator_with_count(datum, lam, height_bound)
    return series


class CharacterResult(namedtuple(
    "CharacterResult", "series highest_weight orbit_size support_terms residual_terms"
)):
    """Character series below the highest weight plus run diagnostics:
    the coefficient at beta is the dimension at highest_weight - beta."""

    __slots__ = ()


def irreducible_character(datum, lam, height_bound) -> CharacterResult:
    """Divide the alternating numerator N_lambda by N_0.

    The residual diagnostic counts exponents where N_lambda and the
    character times N_0 disagree, which is zero whenever the arithmetic
    is consistent.  The product is computed in full although divide makes
    it exact by construction: it is the only check that divide's own
    recurrence reproduces N_lambda.  It shares the pair loop with
    divide, so a fault in that loop can cancel out of it.
    """
    numerator, orbit_size, contributed = _numerator_with_count(datum, lam, height_bound)
    denom = numerator_series(datum, datum.zero_weight(), height_bound)
    quotient = numerator.divide(denom)
    residual = numerator - quotient.mul(denom)
    return CharacterResult(
        series=quotient,
        highest_weight=lam,
        orbit_size=orbit_size,
        support_terms=contributed,
        residual_terms=len(residual.terms),
    )


def character_result_to_json(result: CharacterResult) -> dict:
    return {
        "character": {
            "base": weight_to_json(result.highest_weight),
            **series_to_json(result.series),
        },
        "diagnostics": {
            "orbit_size": result.orbit_size,
            "support_terms": result.support_terms,
            "residual_terms": result.residual_terms,
        },
    }
