"""Cartan data with imaginary simple roots and a parity marking.

The matrix side is an integer matrix A whose diagonal entries are 2 (real
indices) or nonpositive even integers (imaginary indices), with nonpositive
off-diagonal entries and a positive integer symmetrizer D.  A subset of
indices is marked odd; an odd real index must have an even row.  Weights
live in the span of the fundamental weights plus one formal complement
symbol per index, realising the simple roots as
alpha_j = sum_i a_ij Lambda_i + delta_j, so a reflection never touches the
Lambda or delta coordinates and defects can be read off the root part.

Indices count from zero everywhere in this module; the JSON forms count
from one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadDiagonal,
    ImaginaryIndexReflection,
    NotSymmetrizable,
    OddReParity,
    PositiveOffDiagonal,
)

# Nonnegative integer coordinates over the simple roots.  Kept as plain
# tuples so they can key dictionaries and feed series exponents directly.
RootVector = tuple

_ZERO = Fraction(0)


def height(beta) -> int:
    """Total of the simple-root coordinates."""
    return sum(beta)


def graded_key(beta) -> tuple:
    """Sort key of the graded order: height first, then lexicographic."""
    return (sum(beta), beta)


def unit_root(n: int, i: int) -> RootVector:
    return tuple(1 if j == i else 0 for j in range(n))


def add_roots(a, b) -> RootVector:
    return tuple(x + y for x, y in zip(a, b))


def scale_root(k: int, a) -> RootVector:
    return tuple(k * x for x in a)


def _fractions(values) -> tuple:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class Weight:
    """Point of the weight space, kept in three coordinate blocks.

    fundamental_part and aux_part are coordinates over the Lambda_i and the
    complement symbols delta_i; root_part holds coordinates over the simple
    roots without expanding them.  Two weights are equal only when all
    three blocks agree, which is what keeps orbit defects recoverable.
    """

    fundamental_part: tuple
    aux_part: tuple
    root_part: tuple

    def __post_init__(self):
        object.__setattr__(self, "fundamental_part", _fractions(self.fundamental_part))
        object.__setattr__(self, "aux_part", _fractions(self.aux_part))
        object.__setattr__(self, "root_part", _fractions(self.root_part))
        if not len(self.fundamental_part) == len(self.aux_part) == len(self.root_part):
            raise ValueError("coordinate blocks disagree in length")

    @property
    def rank(self) -> int:
        return len(self.fundamental_part)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(
            tuple(a + b for a, b in zip(self.fundamental_part, other.fundamental_part)),
            tuple(a + b for a, b in zip(self.aux_part, other.aux_part)),
            tuple(a + b for a, b in zip(self.root_part, other.root_part)),
        )

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(
            tuple(a - b for a, b in zip(self.fundamental_part, other.fundamental_part)),
            tuple(a - b for a, b in zip(self.aux_part, other.aux_part)),
            tuple(a - b for a, b in zip(self.root_part, other.root_part)),
        )

    def __neg__(self) -> "Weight":
        zero = (_ZERO,) * self.rank
        return Weight(zero, zero, zero) - self

    def __mul__(self, scalar) -> "Weight":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Weight(
            tuple(scalar * a for a in self.fundamental_part),
            tuple(scalar * a for a in self.aux_part),
            tuple(scalar * a for a in self.root_part),
        )

    __rmul__ = __mul__


@dataclass(frozen=True)
class OddCartanDatum:
    """Validated matrix, symmetrizer and parity marking.

    Construction runs the full validation, so any instance in hand is a
    legal datum.
    """

    a: tuple
    d: tuple
    odd: frozenset

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.a)
        object.__setattr__(self, "a", rows)
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        object.__setattr__(self, "odd", frozenset(int(i) for i in self.odd))
        self._validate()

    def _validate(self):
        n = len(self.a)
        if any(len(row) != n for row in self.a):
            raise ValueError("matrix is not square")
        if len(self.d) != n:
            raise ValueError("symmetrizer length does not match the matrix")
        if not all(i in range(n) for i in self.odd):
            raise ValueError("odd index out of range")
        for i in range(n):
            aii = self.a[i][i]
            if aii != 2 and (aii > 0 or aii % 2 != 0):
                raise BadDiagonal(f"a[{i}][{i}] = {aii}")
            for j in range(n):
                if i != j and self.a[i][j] > 0:
                    raise PositiveOffDiagonal(f"a[{i}][{j}] = {self.a[i][j]}")
        if any(di <= 0 for di in self.d):
            raise NotSymmetrizable(f"symmetrizer {self.d} is not positive")
        for i in range(n):
            for j in range(i + 1, n):
                if self.d[i] * self.a[i][j] != self.d[j] * self.a[j][i]:
                    raise NotSymmetrizable(
                        f"d[{i}]*a[{i}][{j}] = {self.d[i] * self.a[i][j]} "
                        f"!= d[{j}]*a[{j}][{i}] = {self.d[j] * self.a[j][i]}"
                    )
        for i in self.odd:
            if self.a[i][i] == 2:
                for j in range(n):
                    if self.a[i][j] % 2 != 0:
                        raise OddReParity(f"a[{i}][{j}] = {self.a[i][j]} at odd real {i}")

    # ---- index classes ----

    @property
    def rank(self) -> int:
        return len(self.a)

    @property
    def real_indices(self) -> tuple:
        return tuple(i for i in range(self.rank) if self.a[i][i] == 2)

    @property
    def imaginary_indices(self) -> tuple:
        return tuple(i for i in range(self.rank) if self.a[i][i] <= 0)

    @property
    def isotropic_indices(self) -> tuple:
        return tuple(i for i in range(self.rank) if self.a[i][i] == 0)

    def is_real(self, i: int) -> bool:
        return self.a[i][i] == 2

    def is_isotropic(self, i: int) -> bool:
        return self.a[i][i] == 0

    def is_odd(self, i: int) -> bool:
        return i in self.odd

    def parity_of(self, beta) -> int:
        """Parity of a root-lattice vector, 0 even or 1 odd."""
        return sum(beta[i] for i in self.odd) % 2

    # ---- weight constructors ----

    def zero_weight(self) -> Weight:
        zero = (0,) * self.rank
        return Weight(zero, zero, zero)

    def fundamental_weight(self, i: int) -> Weight:
        zero = (0,) * self.rank
        return Weight(unit_root(self.rank, i), zero, zero)

    def alpha(self, i: int) -> Weight:
        """The simple root alpha_i, stored on the root coordinates."""
        zero = (0,) * self.rank
        return Weight(zero, zero, unit_root(self.rank, i))

    def weight_from_roots(self, beta) -> Weight:
        zero = (0,) * self.rank
        return Weight(zero, zero, tuple(beta))

    def rho(self) -> Weight:
        """The canonical Weyl vector, a_ii / 2 on each fundamental weight."""
        zero = (0,) * self.rank
        return Weight(tuple(Fraction(self.a[i][i], 2) for i in range(self.rank)), zero, zero)

    # ---- pairings ----

    def pair(self, i: int, w: Weight) -> Fraction:
        """Evaluate the coroot h_i on a weight."""
        acc = w.fundamental_part[i]
        for j in range(self.rank):
            acc += self.a[i][j] * w.root_part[j]
        return acc

    def pair_root(self, i: int, beta) -> int:
        """Evaluate h_i on a root-lattice vector."""
        return sum(self.a[i][j] * beta[j] for j in range(self.rank))

    def bilinear(self, beta, w: Weight) -> Fraction:
        """Symmetric form of a root-lattice vector against a weight."""
        return sum((beta[i] * self.d[i] * self.pair(i, w) for i in range(self.rank)), _ZERO)

    def root_bilinear(self, beta, gamma) -> int:
        """Symmetric form between two root-lattice vectors."""
        acc = 0
        for i in range(self.rank):
            if beta[i]:
                acc += beta[i] * self.d[i] * self.pair_root(i, gamma)
        return acc

    # ---- reflections and dominance ----

    def reflect(self, i: int, w: Weight) -> Weight:
        """Simple reflection at a real index."""
        if not self.is_real(i):
            raise ImaginaryIndexReflection(f"index {i} is imaginary")
        c = self.pair(i, w)
        root = list(w.root_part)
        root[i] -= c
        return Weight(w.fundamental_part, w.aux_part, tuple(root))

    def reflect_root(self, i: int, beta) -> tuple:
        """Simple reflection on root-lattice coordinates."""
        if not self.is_real(i):
            raise ImaginaryIndexReflection(f"index {i} is imaginary")
        c = self.pair_root(i, beta)
        out = list(beta)
        out[i] -= c
        return tuple(out)

    def is_dominant_integral(self, w: Weight) -> bool:
        """Nonnegative on every coroot, integral on real indices and even
        on odd real ones."""
        for i in range(self.rank):
            c = self.pair(i, w)
            if c < 0:
                return False
            if self.is_real(i):
                if c.denominator != 1:
                    return False
                if self.is_odd(i) and c.numerator % 2 != 0:
                    return False
        return True


def depth_below(lam: Weight, mu: Weight) -> tuple | None:
    """The root vector beta with mu = lam - beta, or None when lam - mu is
    not a nonnegative integer combination of simple roots."""
    diff = lam - mu
    if any(diff.fundamental_part) or any(diff.aux_part):
        return None
    if any(c.denominator != 1 or c < 0 for c in diff.root_part):
        return None
    return tuple(int(c) for c in diff.root_part)


def validate_datum(a, d, odd=()) -> OddCartanDatum:
    """Build a datum, raising the specific validation error on failure."""
    return OddCartanDatum(tuple(tuple(row) for row in a), tuple(d), frozenset(odd))


# ---- JSON forms, indices one-based ----


def datum_to_json(datum: OddCartanDatum) -> dict:
    return {
        "A": [list(row) for row in datum.a],
        "D": list(datum.d),
        "odd": sorted(i + 1 for i in datum.odd),
    }


def datum_from_json(obj) -> OddCartanDatum:
    if not isinstance(obj, dict) or "A" not in obj:
        raise ValueError("datum JSON needs at least the matrix under 'A'")
    a = obj["A"]
    d = obj.get("D")
    if d is None:
        d = [1] * len(a)
    odd = [int(i) - 1 for i in obj.get("odd", [])]
    return validate_datum(a, d, odd)


def weight_to_json(w: Weight) -> dict:
    def block(values):
        return {str(i + 1): str(v) for i, v in enumerate(values) if v != 0}

    return {
        "Lambda": block(w.fundamental_part),
        "delta": block(w.aux_part),
        "alpha": block(w.root_part),
    }


def weight_from_json(datum: OddCartanDatum, obj) -> Weight:
    n = datum.rank
    if not isinstance(obj, dict):
        raise ValueError("a weight must be an object of Lambda, delta and alpha blocks")

    def block(name):
        entries = obj.get(name) or {}
        if not isinstance(entries, dict):
            raise ValueError(f"weight block {name!r} must be an object")
        out = [Fraction(0)] * n
        for key, value in entries.items():
            i = int(key) - 1
            if i not in range(n):
                raise ValueError(f"index {key} out of range in weight block {name!r}")
            try:
                out[i] = Fraction(value)
            except ZeroDivisionError:
                raise ValueError(
                    f"zero denominator at index {key} in weight block {name!r}"
                ) from None
        return tuple(out)

    return Weight(block("Lambda"), block("delta"), block("alpha"))
