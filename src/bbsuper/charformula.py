"""Highest-weight characters by alternating sum over the bounded orbit.

The numerator collects, for every orbit element w and every orthogonal
support s built on imaginary indices annihilated by the highest weight,
a signed exponential at defect(w) + w(s).  Images of imaginary simple
roots under real reflection words stay in the positive cone, so every
collected exponent does too.  By the denominator identity the numerator
N_0 at highest weight zero is the product over positive roots, so the
character is the quotient N_lambda / N_0: one layered division, with no
root table, exact within the height window.

Support signs come in three flavours per index: any level n with sign -1
at a non-isotropic imaginary index, the inverse-Euler coefficients at an
even isotropic one, and the coefficients of the inverse distinct-parts
product at an odd isotropic one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .datum import OddCartanDatum, Weight, depth_below, height, unit_root, weight_to_json
from .errors import BadGeneratorIndex
from .series import CharSeries, series_to_json
from .weyl import act_on_root, orbit_frontier


@lru_cache(maxsize=None)
def _phi_table(bound: int) -> tuple:
    # prod_{k<=bound} (1 - q^k), dense coefficients through q^bound
    coeffs = [0] * (bound + 1)
    coeffs[0] = 1
    for k in range(1, bound + 1):
        for m in range(bound, k - 1, -1):
            coeffs[m] -= coeffs[m - k]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _odd_iso_table(bound: int) -> tuple:
    # invert prod_{l<=bound} (1 + q^l) through q^bound
    dist = [0] * (bound + 1)
    dist[0] = 1
    for l in range(1, bound + 1):
        for m in range(bound, l - 1, -1):
            dist[m] += dist[m - l]
    product = CharSeries(bound, 1, {(m,): c for m, c in enumerate(dist)})
    inv = CharSeries.one(bound, 1).divide(product)
    return tuple(inv.coefficient((m,)) for m in range(bound + 1))


def euler_phi(n: int) -> int:
    """Coefficient of q^n in the Euler product prod (1 - q^k)."""
    if n < 0:
        raise ValueError("negative degree")
    return _phi_table(n)[n]


def odd_iso_coeffs(n: int) -> int:
    """Coefficient of q^n in the inverse of prod (1 + q^l)."""
    if n < 0:
        raise ValueError("negative degree")
    return _odd_iso_table(n)[n]


@dataclass(frozen=True)
class OrthogonalSupport:
    """Distinct pairwise-orthogonal imaginary indices with level totals.

    weight is sum coeffs[k] * alpha_{indices[k]} on root coordinates and
    sign the product of the per-index factors, possibly zero.
    """

    indices: tuple
    coeffs: tuple
    weight: tuple
    sign: int


def eligible_indices(datum: OddCartanDatum, lam: Weight) -> tuple:
    """Imaginary indices whose simple root pairs to zero with lam."""
    return tuple(i for i in datum.imaginary_indices if datum.pair(i, lam) == 0)


def _index_factor(datum: OddCartanDatum, i: int, n: int) -> int:
    if not datum.is_isotropic(i):
        return -1
    if datum.is_odd(i):
        return odd_iso_coeffs(n)
    return euler_phi(n)


def enumerate_supports(datum, lam, budget, costs=None) -> list:
    """All supports whose cost-weighted height fits the budget.

    costs maps an eligible index to the height its root contributes per
    level; the default of one matches the untwisted supports.  The empty
    support is always first.
    """
    elig = eligible_indices(datum, lam)
    if costs is None:
        costs = {i: 1 for i in elig}
    n = datum.rank
    out = []

    def emit(chosen, coeffs, sign):
        weight = [0] * n
        for i, c in zip(chosen, coeffs):
            weight[i] += c
        out.append(OrthogonalSupport(tuple(chosen), tuple(coeffs), tuple(weight), sign))

    def extend(pos, chosen, coeffs, used, sign):
        emit(chosen, coeffs, sign)
        for k in range(pos, len(elig)):
            i = elig[k]
            if any(
                datum.root_bilinear(unit_root(n, i), unit_root(n, j)) != 0
                for j in chosen
            ):
                continue
            cost = costs[i]
            if cost < 1:
                raise ValueError(f"cost {cost} at index {i} must be positive")
            level = 1
            while used + level * cost <= budget:
                extend(
                    k + 1,
                    chosen + (i,),
                    coeffs + (level,),
                    used + level * cost,
                    sign * _index_factor(datum, i, level),
                )
                level += 1

    extend(0, (), (), 0, 1)
    return out


def s_lambda_series(datum, lam, height_bound) -> CharSeries:
    """The untwisted support sum as a series."""
    acc = {}
    for sup in enumerate_supports(datum, lam, height_bound):
        if sup.sign:
            acc[sup.weight] = acc.get(sup.weight, 0) + sup.sign
    return CharSeries(height_bound, datum.rank, acc)


def _numerator_with_count(datum, lam, height_bound):
    elements = orbit_frontier(datum, lam, height_bound)
    elig = eligible_indices(datum, lam)
    n = datum.rank
    acc = {}
    contributed = 0
    for elt in elements:
        room = height_bound - height(elt.defect)
        images = {i: act_on_root(datum, elt.word, unit_root(n, i)) for i in elig}
        costs = {i: height(images[i]) for i in elig}
        for sup in enumerate_supports(datum, lam, room, costs):
            if not sup.sign:
                continue
            exp = list(elt.defect)
            for i, level in zip(sup.indices, sup.coeffs):
                for j, x in enumerate(images[i]):
                    exp[j] += level * x
            key = tuple(exp)
            acc[key] = acc.get(key, 0) + elt.sign * sup.sign
            contributed += 1
    series = CharSeries(height_bound, n, acc)
    return series, len(elements), contributed


def numerator_series(datum, lam, height_bound) -> CharSeries:
    """Alternating orbit sum, normalized so the zero exponent reads 1."""
    series, _, _ = _numerator_with_count(datum, lam, height_bound)
    return series


@dataclass(frozen=True)
class CharacterResult:
    """Character series below the highest weight plus run diagnostics:
    the coefficient at beta is the dimension at highest_weight - beta."""

    series: CharSeries
    highest_weight: Weight
    orbit_size: int
    support_terms: int
    residual_terms: int


def irreducible_character(datum, lam, height_bound) -> CharacterResult:
    """Divide the alternating numerator N_lambda by N_0.

    The residual diagnostic counts exponents where N_lambda and the
    character times N_0 disagree, which is zero whenever the arithmetic
    is consistent.
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


def casimir_shift(datum, i: int, l: int) -> int:
    """Commutation constant (l^2 - l) (alpha_i, alpha_i) of the level-l
    generator against the quadratic Casimir operator."""
    if i not in range(datum.rank):
        raise BadGeneratorIndex(f"index {i} out of range")
    if l < 1:
        raise BadGeneratorIndex(f"level {l} must be positive")
    if datum.is_real(i) and l != 1:
        raise BadGeneratorIndex(f"real index {i} admits only level 1")
    return (l * l - l) * datum.d[i] * datum.a[i][i]


def is_primitive_candidate(datum, lam, mu) -> bool:
    """Whether mu could carry a primitive vector: mu equals lam, or the
    difference is the weight of an orthogonal support for lam."""
    coords = depth_below(lam, mu)
    if coords is None:
        return False
    support = [i for i, c in enumerate(coords) if c]
    if not support:
        return True
    elig = set(eligible_indices(datum, lam))
    if not set(support) <= elig:
        return False
    n = datum.rank
    for a in support:
        for b in support:
            if a < b and datum.root_bilinear(unit_root(n, a), unit_root(n, b)) != 0:
                return False
    return True


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
