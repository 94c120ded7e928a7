"""Sparse exponential sums truncated by total height.

A series holds integer coefficients on exponent vectors e^{-beta} with
beta in the nonnegative root lattice and ht(beta) bounded by a fixed H.
All arithmetic is exact and closed under that truncation.  Products and
quotients walk height layers, and _layer_convolution is their one pair
loop: a product merges its layers, a quotient solves them in turn.

Inside that loop an exponent is one integer, sum of e_i (H+1)^(r-1-i)
at rank r (Kronecker substitution).  Every coordinate of an exponent in
the window is at most H, and the loop only adds pairs whose sum still
has height at most H, so no digit carries and adding two keys packs the
sum of their exponents.  Keys never leave this module: every series it
returns, and terms, coefficient() and items_sorted(), hold exponent
tuples.

derivative() is D, the height derivation, which scales e^{-gamma} by
ht(gamma).  For a series N with constant term 1, L = D(N)/N is
N.derivative().divide(N), and from_log_derivative maps L back to N.  The
kernel knows no root table: roots.py expands a table into its L and
builds the denominator from it.

product_holds checks a product a == b c without forming it, by graded
evaluation: e^{-beta} maps to x^{ht beta} z_1^{beta_1} ... z_r^{beta_r}
in F_p[x]/(x^{H+1}), at one fixed point z.  The height grading makes
this a ring homomorphism of the truncated series, so a == b c implies
that the images agree, in O(terms r) to map and O(H^2) to multiply.
Layer h of a nonzero a - b c maps to a homogeneous polynomial of degree
h <= H in z; if one of its coefficients is not divisible by p, a
uniformly random point is a root of it with probability at most H/p
(Schwartz, J. ACM 27, 1980; Zippel, EUROSAM 1979), the idea of
Freivalds' product check.  p is the least of the Mersenne primes
2^61 - 1, 2^127 - 1, 2^521 - 1 and 2^1279 - 1 above
max|a| + max|b| sum|c|, a bound on the size of the coefficients of
a - b c, so a nonzero one is not a multiple of p; past the last of them
the product is formed.  The point is fixed, so every run prints the
same output.
"""

from collections import defaultdict

from .datum import graded_key


class CharSeries:
    """Truncated sum of integer multiples of e^{-beta}."""

    __slots__ = ("height_bound", "rank", "terms")

    def __init__(self, height_bound, rank, terms=None):
        if height_bound < 0:
            raise ValueError(f"height bound {height_bound} is negative")
        self.height_bound = height_bound
        self.rank = rank
        self.terms = {}
        if terms:
            for exp, coef in terms.items():
                if coef and sum(exp) <= height_bound:
                    if len(exp) != rank:
                        raise ValueError("exponent length does not match the rank")
                    if min(exp, default=0) < 0:
                        raise ValueError(f"exponent {exp} leaves the cone")
                    self.terms[exp] = coef

    @classmethod
    def one(cls, height_bound, rank):
        return cls(height_bound, rank, {(0,) * rank: 1})

    def coefficient(self, exp) -> int:
        return self.terms.get(exp, 0)

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
        c0 = other.terms.get((0,) * other.rank, 0)
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

    def derivative(self) -> "CharSeries":
        """D(self): the term at e^{-gamma} scaled by ht(gamma)."""
        out = CharSeries(self.height_bound, self.rank)
        # only the constant term has height 0
        out.terms = {e: sum(e) * c for e, c in self.terms.items() if any(e)}
        return out

    @classmethod
    def from_log_derivative(cls, log) -> "CharSeries":
        """The R with constant term 1 and D(R) / R == log, the inverse of
        R.derivative().divide(R).  D(R) = R log fixes R layer by layer from
        R_0 = 1, since ht(gamma) R_gamma is the sum of R_delta
        log_{gamma-delta} over delta of smaller height; a division with a
        remainder, or a constant term in log, which no D(R) / R has, raises."""
        c0 = log.coefficient((0,) * log.rank)
        if c0:
            raise ValueError(f"constant term {c0} of log: D(R) / R has none")
        base = log.height_bound + 1
        log_layers = log._pack_layers()
        layers = {0: {0: 1}}
        for h in range(1, base):
            layer = {}
            for e, v in _layer_convolution(log_layers, layers, h).items():
                coef, rest = divmod(v, h)
                if rest:
                    exp = _unpack(e, log.rank, base)
                    raise ValueError(f"coefficient {v}/{h} at {exp} is not an integer")
                if coef:
                    layer[e] = coef
            layers[h] = layer
        return _unpack_layers(layers, log.height_bound, log.rank)


def _pack(exp, base) -> int:
    """Key of an exponent: coordinate i is the digit of base**(rank - 1 - i)."""
    key = 0
    for x in exp:
        key = key * base + x
    return key


def _unpack(key, rank, base) -> tuple:
    """Exponent of a key, the inverse of _pack."""
    exp = []
    for _ in range(rank):
        key, x = divmod(key, base)
        exp.append(x)
    return tuple(exp[::-1])


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


# ---- graded evaluation ----

# Mersenne primes; a check works mod the least one above its size bound
_PRIMES = tuple((1 << e) - 1 for e in (61, 127, 521, 1279))


def product_holds(a, b, c) -> bool:
    """Whether a == b c, by graded evaluation (see the module docstring):
    True on every exact product, and on any other False except with
    probability at most H/p over the point.  The product is formed only
    when the size bound max|a| + max|b| sum|c| reaches every prime."""
    a._check_compatible(b)
    a._check_compatible(c)
    sizes = [list(map(abs, s.terms.values())) or [0] for s in (a, b, c)]
    size = max(sizes[0]) + max(sizes[1]) * sum(sizes[2])
    p = next((p for p in _PRIMES if p > size), None)
    if p is None:
        return a == b.mul(c)
    # z_i^k mod p for k <= H, at a fixed point z from a linear
    # congruential sequence
    powers, z = [], 1
    for _ in range(a.rank):
        z = (z * 6364136223846793005 + 1442695040888963407) % p
        powers.append([pow(z, k, p) for k in range(a.height_bound + 1)])
    images = []
    for s in (a, b, c):
        image = [0] * (a.height_bound + 1)
        for e, coef in s.terms.items():
            for row, d in zip(powers, e):
                coef *= row[d]
            image[sum(e)] += coef % p
        images.append(image)
    x, y, w = images
    return all(
        (x[h] - sum(y[k] * w[h - k] for k in range(h + 1))) % p == 0 for h in range(len(x))
    )
