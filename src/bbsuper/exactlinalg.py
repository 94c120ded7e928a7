"""Exact linear algebra over the rationals and integer polynomial rings.

Two routines, one per coefficient domain.  `row_basis` eliminates rows
with Fraction (or int) entries: it keeps the first linearly independent
rows and expresses every row in them, which is what the weight-space
propagation of the oracle needs, and `rank_gauss` is its length.
`rank_bareiss` ranks matrices whose entries are Polynomials, the Gram
matrices of the generic-weight oracle, by the fraction-free Bareiss
scheme, whose divisions are exact by construction.  No floating point
enters either path.
"""
from __future__ import annotations

from fractions import Fraction


def _grlex(mono):
    return (sum(mono), mono)


class Polynomial:
    """Multivariate polynomial with integer coefficients.

    Immutable by convention; terms maps exponent tuples to nonzero ints.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        clean = {}
        for mono, coef in dict(terms).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong arity")
            if coef:
                clean[mono] = coef
        self.terms = clean

    @classmethod
    def const(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: int(value)})

    @classmethod
    def variable(cls, nvars, index):
        if index not in range(nvars):
            raise ValueError(f"variable index {index} out of range")
        mono = tuple(1 if k == index else 0 for k in range(nvars))
        return cls(nvars, {mono: 1})

    def _coerce(self, other):
        if isinstance(other, int):
            return Polynomial.const(self.nvars, other)
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("mixed arities")
            return other
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.const(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for mono, coef in other.terms.items():
            acc[mono] = acc.get(mono, 0) + coef
        return Polynomial(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                acc[mono] = acc.get(mono, 0) + ca * cb
        return Polynomial(self.nvars, acc)

    __rmul__ = __mul__

    def leading(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex)
        return mono, self.terms[mono]

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for mono in sorted(self.terms, key=_grlex, reverse=True):
            coef = self.terms[mono]
            vars_part = "*".join(
                f"t{k}" + (f"^{e}" if e > 1 else "")
                for k, e in enumerate(mono)
                if e
            )
            bits.append(f"{coef}" + (f"*{vars_part}" if vars_part else ""))
        return "Poly(" + " + ".join(bits) + ")"


def exact_div(a, b):
    """Divide a by b, requiring the remainder to vanish.

    Accepts ints and Polynomials mixed; raises ValueError when the
    division leaves a remainder and ZeroDivisionError on zero divisors.
    """
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"{a} not divisible by {b}")
        return q
    if isinstance(a, int):
        a = Polynomial.const(b.nvars, a)
    if isinstance(b, int):
        b = Polynomial.const(a.nvars, b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    lead_b, coef_b = b.leading()
    quotient = {}
    rem = dict(a.terms)
    while rem:
        mono = max(rem, key=_grlex)
        coef = rem[mono]
        diff = tuple(x - y for x, y in zip(mono, lead_b))
        if any(d < 0 for d in diff) or coef % coef_b:
            raise ValueError("inexact polynomial division")
        q = coef // coef_b
        quotient[diff] = quotient.get(diff, 0) + q
        for mb, cb in b.terms.items():
            target = tuple(x + y for x, y in zip(diff, mb))
            new = rem.get(target, 0) - q * cb
            if new:
                rem[target] = new
            else:
                rem.pop(target, None)
    return Polynomial(a.nvars, quotient)


def rank_bareiss(rows):
    """Rank by fraction-free elimination; entries may be ints or
    Polynomials over the same variables."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(nc):
        pivot_row = next((r for r in range(rank, nr) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = exact_div(pivot * m[r][c] - m[r][col] * m[rank][c], prev)
            m[r][col] = 0
        prev = pivot
        rank += 1
        if rank == nr:
            break
    return rank


def row_basis(rows):
    """The first linearly independent rows, in order, and the coordinates
    of every row in them.

    Returns (pivot_rows, coords): pivot_rows are input rows, unchanged, and
    row r equals the sum over k of coords[r][k] * pivot_rows[k] exactly.
    Entries must allow exact field arithmetic; ints and Fractions both
    work.
    """
    pivot_rows = []
    # (column, vector that is 1 there and 0 at earlier pivot columns,
    #  that vector as a combination of the pivot rows)
    echelon = []
    coords = []
    for row in rows:
        vec = list(row)
        combo = [0] * len(pivot_rows)
        for col, unit, unit_combo in echelon:
            c = vec[col]
            if c:
                for k in range(col, len(vec)):
                    if unit[k]:
                        vec[k] -= c * unit[k]
                for k, u in enumerate(unit_combo):
                    combo[k] += c * u
        lead = next((k for k, x in enumerate(vec) if x), None)
        if lead is None:
            coords.append(combo)
            continue
        inv = 1 / Fraction(vec[lead])
        echelon.append(
            (lead, [x * inv for x in vec], [-c * inv for c in combo] + [inv])
        )
        coords.append([0] * len(pivot_rows) + [1])
        pivot_rows.append(row)
    for c in coords:
        c.extend([0] * (len(pivot_rows) - len(c)))
    return pivot_rows, coords


def rank_gauss(rows):
    """Rank over the rationals: the number of pivot rows of row_basis."""
    return len(row_basis(rows)[0])
