"""Sparse exponential sums truncated by total height.

A series holds integer coefficients on exponent vectors e^{-beta} with
beta in the nonnegative root lattice and ht(beta) bounded by a fixed H.
All arithmetic is exact and closed under that truncation.  Products and
quotients walk height layers, and _layer_convolution is their one pair
loop: a product merges its layers, a quotient solves them in turn.

Inside that loop an exponent is one integer, sum of e_i (H+1)^i
(Kronecker substitution).  Every coordinate of an exponent in the window
is at most H, and the loop only adds pairs whose sum still has height
at most H, so no digit carries and adding two keys packs the sum of
their exponents.  Keys never leave this module: terms, coefficient()
and the JSON form keep exponent tuples.

root_log_terms is the one expansion of a root into the log-derivative
of the denominator: denominator_R sums it over a root table, and
roots.solve_multiplicities peels it off L = D(N_0)/N_0 to find the table.
"""

from collections import defaultdict

from .datum import graded_key, height


class CharSeries:
    """Truncated sum of integer multiples of e^{-beta}."""

    __slots__ = ("height_bound", "rank", "terms")

    def __init__(self, height_bound, rank, terms=None):
        self.height_bound = height_bound
        self.rank = rank
        self.terms = {}
        if terms:
            for exp, coef in terms.items():
                if coef and sum(exp) <= height_bound:
                    exp = tuple(exp)
                    if len(exp) != rank:
                        raise ValueError("exponent length does not match the rank")
                    if min(exp, default=0) < 0:
                        raise ValueError(f"exponent {exp} leaves the cone")
                    self.terms[exp] = coef

    @classmethod
    def one(cls, height_bound, rank):
        return cls(height_bound, rank, {(0,) * rank: 1})

    def coefficient(self, exp) -> int:
        return self.terms.get(tuple(exp), 0)

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda item: graded_key(item[0]))

    def _check_compatible(self, other):
        if self.height_bound != other.height_bound:
            raise ValueError(f"height bounds differ: {self.height_bound} vs {other.height_bound}")
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

    def __repr__(self):
        parts = [f"{c}*q^{e}" for e, c in self.items_sorted()[:6]]
        if len(self.terms) > 6:
            parts.append("...")
        return f"CharSeries(H={self.height_bound}, {' + '.join(parts) or '0'})"

    def __sub__(self, other):
        self._check_compatible(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) - c
        return CharSeries(self.height_bound, self.rank, merged)

    def _pack_layers(self):
        """Terms by height, each exponent packed into its integer key."""
        out = defaultdict(dict)
        base = self.height_bound + 1
        for e, c in self.terms.items():
            out[sum(e)][_pack(e, base)] = c
        return out

    def mul(self, other) -> "CharSeries":
        """Truncated product, one height layer at a time."""
        self._check_compatible(other)
        a, b = self._pack_layers(), other._pack_layers()
        layers = {h: _layer_convolution(a, b, h) for h in range(self.height_bound + 1)}
        return _unpack_layers(layers, self.height_bound, self.rank)

    def divide(self, other) -> "CharSeries":
        """The series q with q * other == self; the constant term of other
        must be 1 or -1.  Layer h of q is solved from the layers below it:
        q_h = c_0 (self_h - sum over k >= 1 of other_k q_{h-k})."""
        self._check_compatible(other)
        c0 = other.terms.get((0,) * self.rank, 0)
        if c0 not in (1, -1):
            raise ValueError(f"constant term {c0}: a divisor needs constant term 1 or -1")
        num, den = self._pack_layers(), other._pack_layers()
        q = {}
        for h in range(self.height_bound + 1):
            # q_h is not in q yet, so the k = 0 term drops out
            rest = _layer_convolution(den, q, h)
            for e, c in num.get(h, {}).items():
                rest[e] -= c
            q[h] = {e: -c0 * v for e, v in rest.items() if v}
        return _unpack_layers(q, self.height_bound, self.rank)


def _pack(exp, base) -> int:
    """Key of an exponent: coordinate i is the digit of base**i."""
    key = 0
    for x in reversed(exp):
        key = key * base + x
    return key


def _unpack(key, rank, base) -> tuple:
    """Exponent of a key, the inverse of _pack."""
    exp = []
    for _ in range(rank):
        key, x = divmod(key, base)
        exp.append(x)
    return tuple(exp)


def _unpack_layers(layers, height_bound, rank) -> CharSeries:
    """The series of the nonzero terms of packed layers; their keys come
    from the window, so the exponents need no check."""
    base = height_bound + 1
    out = CharSeries(height_bound, rank)
    out.terms = {
        _unpack(key, rank, base): c
        for layer in layers.values()
        for key, c in layer.items()
        if c
    }
    return out


def _layer_convolution(a, b, h) -> dict:
    """Height-h part of the product of a and b, which map a height to
    {packed exponent: coefficient}; a missing layer counts as zero.
    Both factors of a pair have heights summing to h, which is within
    the window, so their keys add without a carry."""
    layer = defaultdict(int)
    for k in range(h + 1):
        upper = a.get(k)
        lower = b.get(h - k)
        if not upper or not lower:
            continue
        for ea, ca in upper.items():
            for eb, cb in lower.items():
                layer[ea + eb] += ca * cb
    return layer


def root_log_terms(beta, entry, height_bound) -> list:
    """(k beta, -eps_k m ht(beta)) for every k >= 1 with k beta in the
    window: the terms that a root of multiplicity m adds to the
    log-derivative L = D(R)/R of the denominator, with eps_k = -1 for an
    odd root at even k and 1 otherwise."""
    h = height(beta)
    coef = -entry.mult * h
    terms = [(beta, coef)] if h <= height_bound else []
    for k in range(2, height_bound // h + 1):
        terms.append((tuple([k * x for x in beta]), -coef if entry.parity and k % 2 == 0 else coef))
    return terms


def denominator_R(datum, table, height_bound) -> CharSeries:
    """Product over the root table in one pass: even roots contribute
    (1-e^{-beta})^m, odd roots (1+e^{-beta})^{-m}.

    The log-derivative L = D(R)/R is the sum of every root's
    root_log_terms.  Then D(R) = R L fixes R layer by layer from R_0 = 1,
    since ht(gamma) R_gamma is the sum of R_delta L_{gamma-delta} over
    delta of smaller height.  Every division is exact for integer
    multiplicities; a remainder raises.  The table is read only through
    items_sorted() and height_bound.
    """
    if table.height_bound < height_bound:
        raise ValueError(f"root table stops at height {table.height_bound}, need {height_bound}")
    base = height_bound + 1
    log_layers = defaultdict(lambda: defaultdict(int))
    for beta, entry in table.items_sorted():
        h = height(beta)
        if h > height_bound:
            break
        key = _pack(beta, base)
        for k, (_, coef) in enumerate(root_log_terms(beta, entry, height_bound), 1):
            # k beta has height at most H, so k key packs it
            log_layers[k * h][k * key] += coef
    layers = {0: {0: 1}}
    for h in range(1, height_bound + 1):
        layer = {}
        for e, v in _layer_convolution(log_layers, layers, h).items():
            coef, rest = divmod(v, h)
            if rest:
                exp = _unpack(e, datum.rank, base)
                raise ValueError(f"coefficient {v}/{h} at {exp} is not an integer")
            if coef:
                layer[e] = coef
        layers[h] = layer
    return _unpack_layers(layers, height_bound, datum.rank)


# ---- JSON form ----


def series_to_json(series: CharSeries) -> dict:
    return {
        "height_bound": series.height_bound,
        "terms": [
            {"exp": list(e), "coef": str(c)} for e, c in series.items_sorted()
        ],
    }
