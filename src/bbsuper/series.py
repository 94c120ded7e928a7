"""Sparse exponential sums truncated by total height.

A series holds integer coefficients on exponent vectors e^{-beta} with
beta in the nonnegative root lattice and ht(beta) bounded by a fixed H.
All arithmetic is exact and closed under that truncation.  Products and
quotients walk height layers, and _layer_convolution is their one pair
loop: a product merges its layers, a quotient solves them in turn.
"""
from __future__ import annotations

from collections import defaultdict
from math import comb

from .datum import graded_key, height
from .errors import HeightMismatch, IncompleteRootTable, NonUnitConstantTerm


class CharSeries:
    """Truncated sum of integer multiples of e^{-beta}."""

    __slots__ = ("height_bound", "rank", "terms")

    def __init__(self, height_bound, rank, terms=None):
        self.height_bound = height_bound
        self.rank = rank
        self.terms = {}
        if terms:
            for exp, coef in terms.items() if isinstance(terms, dict) else terms:
                if coef and sum(exp) <= height_bound:
                    exp = tuple(exp)
                    if len(exp) != rank:
                        raise ValueError("exponent length does not match the rank")
                    if min(exp, default=0) < 0:
                        raise ValueError(f"exponent {exp} leaves the cone")
                    self.terms[exp] = self.terms.get(exp, 0) + coef
            for exp in [e for e, c in self.terms.items() if c == 0]:
                del self.terms[exp]

    @classmethod
    def one(cls, height_bound, rank):
        return cls(height_bound, rank, {(0,) * rank: 1})

    def coefficient(self, exp) -> int:
        return self.terms.get(tuple(exp), 0)

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda item: graded_key(item[0]))

    def truncate(self, height_bound) -> "CharSeries":
        if height_bound > self.height_bound:
            raise HeightMismatch(
                f"cannot widen a series truncated at {self.height_bound} to {height_bound}"
            )
        kept = {e: c for e, c in self.terms.items() if sum(e) <= height_bound}
        return CharSeries(height_bound, self.rank, kept)

    def _check_compatible(self, other):
        if self.height_bound != other.height_bound:
            raise HeightMismatch(f"{self.height_bound} vs {other.height_bound}")
        if self.rank != other.rank:
            raise ValueError("series ranks differ")

    def __eq__(self, other):
        if not isinstance(other, CharSeries):
            return NotImplemented
        return (
            self.height_bound == other.height_bound
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.height_bound, self.rank, tuple(self.items_sorted())))

    def __repr__(self):
        parts = [f"{c}*q^{e}" for e, c in self.items_sorted()[:6]]
        if len(self.terms) > 6:
            parts.append("...")
        return f"CharSeries(H={self.height_bound}, {' + '.join(parts) or '0'})"

    def __add__(self, other):
        self._check_compatible(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) + c
        return CharSeries(self.height_bound, self.rank, merged)

    def __sub__(self, other):
        self._check_compatible(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) - c
        return CharSeries(self.height_bound, self.rank, merged)

    def _by_height(self):
        out = defaultdict(dict)
        for e, c in self.terms.items():
            out[sum(e)][e] = c
        return out

    def mul(self, other) -> "CharSeries":
        """Truncated product, one height layer at a time."""
        self._check_compatible(other)
        a, b = self._by_height(), other._by_height()
        layers = {h: _layer_convolution(a, b, h) for h in range(self.height_bound + 1)}
        return CharSeries(self.height_bound, self.rank, _merge_layers(layers))

    def divide(self, other) -> "CharSeries":
        """The series q with q * other == self; the constant term of other
        must be 1 or -1.  Layer h of q is solved from the layers below it:
        q_h = c_0 (self_h - sum over k >= 1 of other_k q_{h-k})."""
        self._check_compatible(other)
        c0 = other.terms.get((0,) * self.rank, 0)
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(f"constant term {c0}")
        num, den = self._by_height(), other._by_height()
        q = {}
        for h in range(self.height_bound + 1):
            # q_h is not in q yet, so the k = 0 term drops out
            rest = _layer_convolution(den, q, h)
            for e, c in num.get(h, {}).items():
                rest[e] -= c
            q[h] = {e: -c0 * v for e, v in rest.items() if v}
        return CharSeries(self.height_bound, self.rank, _merge_layers(q))

    def invert(self) -> "CharSeries":
        """Inverse as a truncated series; constant term must be 1 or -1."""
        return CharSeries.one(self.height_bound, self.rank).divide(self)


def _layer_convolution(a, b, h) -> dict:
    """Height-h part of the product of a and b, which map a height to
    {exponent: coefficient}; a missing layer counts as zero."""
    layer = defaultdict(int)
    for k in range(h + 1):
        upper = a.get(k)
        lower = b.get(h - k)
        if not upper or not lower:
            continue
        for ea, ca in upper.items():
            for eb, cb in lower.items():
                layer[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return layer


def _merge_layers(layers) -> dict:
    merged = {}
    for layer in layers.values():
        merged.update(layer)
    return merged


def binomial_factor(beta, mult, sign, exponent_sign, height_bound, rank) -> CharSeries:
    """Expansion of (1 + sign*e^{-beta})^(exponent_sign*mult).

    sign and exponent_sign are +1 or -1; mult is a nonnegative integer.
    Generalized binomial coefficients keep everything in the integers.
    """
    if sign not in (1, -1) or exponent_sign not in (1, -1):
        raise ValueError("sign arguments must be +1 or -1")
    h = height(beta)
    if h <= 0:
        raise ValueError("factor exponent must have positive height")
    power = exponent_sign * mult
    terms = {}
    k = 0
    while k * h <= height_bound:
        if power >= 0 and k > power:
            break
        if power >= 0:
            c = comb(power, k)
        else:
            c = (-1) ** k * comb(-power + k - 1, k)
        terms[tuple(k * x for x in beta)] = c * sign**k
        k += 1
    return CharSeries(height_bound, rank, terms)


def log_sign(parity, k) -> int:
    """eps_k: the sign with which a root of this parity reaches e^{-k beta}
    in the log-derivative of its denominator factor; -1 only for odd roots
    at even k."""
    return -1 if parity and k % 2 == 0 else 1


def denominator_R(datum, table, height_bound) -> CharSeries:
    """Product over the root table in one pass: even roots contribute
    (1-e^{-beta})^m, odd roots (1+e^{-beta})^{-m}.

    With D the height derivation (e^{-gamma} -> ht(gamma) e^{-gamma}), the
    log-derivative L = D(R)/R is read off the table: an even root beta adds
    -m ht(beta) e^{-k beta} for every k >= 1, an odd one
    -m ht(beta) (-1)^{k+1} e^{-k beta}.  Then D(R) = R L fixes R layer by
    layer from R_0 = 1, since ht(gamma) R_gamma is the sum of
    R_delta L_{gamma-delta} over delta of smaller height.  Every division
    is exact for integer multiplicities; a remainder raises.  The table is
    read only through items_sorted() and height_bound.
    """
    if table.height_bound < height_bound:
        raise IncompleteRootTable(
            f"table stops at {table.height_bound}, need {height_bound}"
        )
    log_layers = defaultdict(lambda: defaultdict(int))
    for beta, entry in table.items_sorted():
        h = height(beta)
        if h > height_bound:
            break
        for k in range(1, height_bound // h + 1):
            log_layers[k * h][tuple(k * x for x in beta)] -= (
                log_sign(entry.parity, k) * entry.mult * h
            )
    layers = {0: {(0,) * datum.rank: 1}}
    for h in range(1, height_bound + 1):
        layer = {}
        for e, v in _layer_convolution(log_layers, layers, h).items():
            coef, rest = divmod(v, h)
            if rest:
                raise ArithmeticError(f"coefficient {v}/{h} at {e} is not an integer")
            if coef:
                layer[e] = coef
        layers[h] = layer
    return CharSeries(height_bound, datum.rank, _merge_layers(layers))


# ---- JSON form ----


def series_to_json(series: CharSeries) -> dict:
    return {
        "height_bound": series.height_bound,
        "terms": [
            {"exp": list(e), "coef": str(c)} for e, c in series.items_sorted()
        ],
    }


def series_from_json(obj, datum=None) -> CharSeries:
    """Read a series; the rank comes from the datum when given, else from
    the first exponent."""
    rank = datum.rank if datum is not None else None
    terms = {}
    for row in obj["terms"]:
        exp = tuple(int(x) for x in row["exp"])
        if rank is None:
            rank = len(exp)
        terms[exp] = int(row["coef"])
    if rank is None:
        raise ValueError("cannot infer the rank of an empty series without a datum")
    return CharSeries(int(obj["height_bound"]), rank, terms)
