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

A support's sign is the product of one factor per index and level:
-1 at any level n of a non-isotropic imaginary index, the coefficient of
q^n in prod (1 - q^k) at an even isotropic one, and in 1 / prod (1 + q^k)
= prod over odd k of (1 - q^k) at an odd isotropic one.  A zero factor
ends its branch of the enumeration.  Both enumerations return what the
numerator reads, {vector: sign}: the supports by their weight, the orbit
by its defects.
"""

from collections import deque, namedtuple
from operator import add

from .datum import OddCartanDatum, Weight
from .series import CharSeries, product_holds


def _euler_table(bound: int, step: int) -> list:
    # prod (1 - q^k) over k = 1, 1 + step, ... <= bound, through q^bound
    coeffs = [0] * (bound + 1)
    coeffs[0] = 1
    for k in range(1, bound + 1, step):
        for m in range(bound, k - 1, -1):
            coeffs[m] -= coeffs[m - k]
    return coeffs


def eligible_indices(datum: OddCartanDatum, lam: Weight) -> tuple:
    """Imaginary indices whose simple root pairs to zero with lam."""
    return tuple(i for i in datum.imaginary_indices if datum.pair(i, lam) == 0)


def enumerate_supports(datum, lam, budget) -> dict:
    """{s: sign} over the supports of total level at most the budget, s
    the support's weight in root coordinates and sign the product of its
    per-index factors; the empty support comes first.  A zero factor ends
    its branch, since the sign of every extension contains it."""
    if budget < 0:
        raise ValueError(f"height bound {budget} is negative")
    elig = eligible_indices(datum, lam)
    # factors[k][n]: the factor of level n at elig[k]
    factors = [_euler_table(budget, 2 if datum.is_odd(i) else 1) if datum.is_isotropic(i)
               else [-1] * (budget + 1) for i in elig]
    out = {}

    def extend(pos, s, used, sign):
        out[s] = sign
        for k in range(pos, len(elig)):
            i = elig[k]
            # (alpha_i, alpha_j) = d_i a_ij with d_i > 0
            if any(a and x for a, x in zip(datum.a[i], s)):
                continue
            for level, factor in enumerate(factors[k][1 : budget - used + 1], 1):
                if factor:
                    extend(k + 1, s[:i] + (level,) + s[i + 1 :], used + level, sign * factor)

    extend(0, (0,) * datum.rank, 0, 1)
    return out


def orbit_frontier(datum: OddCartanDatum, start, height_bound: int) -> dict:
    """{defect: sign} over the orbit of a regular dominant mu, given by its
    positive integer pairings start = <h_j, mu> at datum.real_indices:
    one entry per group element w whose defect, the nonnegative integer
    root vector with w(mu) = mu - defect, stays within the height bound."""
    real = datum.real_indices
    if len(start) != len(real):
        raise ValueError(f"start has length {len(start)}, need {len(real)}, one per real index")
    first = (0,) * datum.rank
    seen = {first: 1}
    queue = deque([(first, start)])
    while queue:
        defect, pairings = queue.popleft()
        room = height_bound - sum(defect)
        sign = -seen[defect]
        for i, c in zip(real, pairings):
            # descend only; going up would revisit shorter elements
            if not 0 < c <= room:
                continue
            nxt = defect[:i] + (defect[i] + c,) + defect[i + 1 :]
            if nxt in seen:
                continue
            seen[nxt] = sign
            # s_i lowers the weight by c alpha_i
            queue.append((nxt, tuple(p - c * datum.a[j][i] for j, p in zip(real, pairings))))
    return seen


def _numerator_with_count(datum, lam, height_bound):
    """The numerator, the orbit size of lam and the number of terms."""
    if not datum.is_dominant_integral(lam):
        raise ValueError("orbit expansion needs a dominant integral weight")
    real = datum.real_indices
    # <h_j, lam + rho> at the real j, integers for dominant integral lam
    start = [int(datum.pair(j, lam)) + 1 for j in real]
    acc = {}
    walks = []
    for s, sign in enumerate_supports(datum, lam, height_bound).items():
        pairings = [p - datum.pair_root(j, s) for j, p in zip(real, start)]
        walk = orbit_frontier(datum, pairings, height_bound - sum(s))
        for defect, w_sign in walk.items():
            key = tuple(map(add, s, defect))
            acc[key] = acc.get(key, 0) + w_sign * sign
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
    is consistent: it is the check that divide's own recurrence
    reproduces N_lambda.  series.product_holds decides it by graded
    evaluation, which shares no pair loop with divide: it passes every
    exact quotient and misses a wrong one with probability at most H/p.
    Only when it fails is the product formed and its terms counted; that
    count is at least 1, since the check has then proved the residual
    nonzero even where the product, through a fault in the pair loop
    that divide shares, finds no term.
    """
    numerator, orbit_size, contributed = _numerator_with_count(datum, lam, height_bound)
    denom = numerator_series(datum, datum.zero_weight(), height_bound)
    quotient = numerator.divide(denom)
    residual = 0
    if not product_holds(numerator, quotient, denom):
        residual = len((numerator - quotient.mul(denom)).terms) or 1
    return CharacterResult(
        series=quotient,
        highest_weight=lam,
        orbit_size=orbit_size,
        support_terms=contributed,
        residual_terms=residual,
    )
