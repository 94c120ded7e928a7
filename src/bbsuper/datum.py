"""Cartan data with imaginary simple roots and a parity marking.

The matrix side is an integer matrix A whose diagonal entries are 2 (real
indices) or nonpositive even integers (imaginary indices), with nonpositive
off-diagonal entries and a positive integer symmetrizer D.  A subset of
indices is marked odd; an odd real index must have an even row.

A weight is a plain input and output record in three coordinate blocks:
over the fundamental weights Lambda_i, over one formal complement symbol
delta_i per index, and over the simple roots, kept unexpanded.  The
engines read a weight only through its pairings <h_i, lam>.

Indices count from zero everywhere in this module; the JSON forms count
from one.
"""

import re
import sys
from math import isinf
from operator import mul


# the JSON names of Weight's blocks, in field order
_BLOCKS = ("Lambda", "delta", "alpha")


def _echo(x, form=repr, width=40) -> str:
    """form(x) as a refusal message shows it: cut after width characters."""
    text = form(x)
    return text if len(text) <= width else f"{text[:width]}... ({len(text)} characters)"


def _read_int(text) -> int:
    """int(text) if text is ASCII digits after an optional sign, spaces around
    allowed; else ValueError, also for the underscores and other digits int() takes."""
    digits = text.strip().lstrip("+-")  # int() refuses a second sign
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {_echo(text)}")
    return int(text)


def _rational(x, block, k):
    """Entry k (counted from one) of weight block `block` as Weight keeps
    it.  A string is read as Fraction reads it, through int() when it has
    no underscore (Fraction refuses those before Python 3.11); a float
    through its decimal string, so 0.1 is 1/10; a bool, NaN, an infinite
    value or anything else Fraction cannot read is refused with a message
    that names the entry; so, without echoing it, is a digit run or a
    value ("1e5000") past int's digit limit, which str() would refuse; an
    exponent far past it is refused before Fraction builds 10**exponent."""
    if type(x) is int:
        return x
    if isinstance(x, str) and "_" not in x:
        try:
            return int(x)
        except ValueError:
            pass
    where = f"at index {k} in weight block {block!r}"
    # int() gives 0, no limit, on a Python that has none
    limit = getattr(sys, "get_int_max_str_digits", int)()
    too_long = f"more than {limit} digits {where}"
    if isinstance(x, str) and limit:
        if re.search(rf"\d{{{limit + 1}}}", x.replace("_", "")):
            raise ValueError(too_long)
        # Fraction builds 10**|e| before str() can refuse the value.  Both
        # digit runs of the mantissa passed the check above, so from
        # |e| = 3 * limit a nonzero value is past the limit, and zero is 0
        d = r"\d+(?:_\d+)*"  # Fraction's digit run
        m = re.fullmatch(rf"\s*[-+]?(?=\.?\d)((?:{d})?(?:\.(?:{d})?)?)[eE][-+]?({d})\s*", x)
        if m and int(m[2]) >= 3 * limit:
            if any(int(c) for c in m[1] if c not in "._"):
                raise ValueError(too_long)
            return 0
    if isinstance(x, bool) or x != x:
        raise ValueError(f"non-numeric value {_echo(x)} {where}")
    if isinstance(x, float):
        if isinf(x):
            raise ValueError(f"infinite value {where}")
        x = repr(x)
    from fractions import Fraction

    try:
        v = Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator {where}") from None
    except (TypeError, ValueError):  # null, a list or an object, text
        raise ValueError(f"non-numeric value {_echo(x)} {where}") from None
    try:
        str(v)  # as weight_to_json writes it
    except ValueError:
        raise ValueError(too_long) from None
    return v.numerator if v.denominator == 1 else v


def _integer(x, what) -> int:
    """x as an int; a bool, or a value that int() would change, is refused
    instead of truncated."""
    try:
        n = int(x)
    except (OverflowError, ValueError, TypeError):  # inf, nan, text, null
        n = None
    if isinstance(x, bool) or n is None or n != x:
        raise ValueError(f"{what} = {_echo(x)} is not an integer")
    return n


class _Value:
    """Value semantics over __slots__: field-wise equality, hash and repr.

    Subclasses set every field once in __init__ through object.__setattr__;
    assigning to a field afterwards raises AttributeError.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    # copy and pickle rebuild through this; their default sets each field,
    # which __setattr__ refuses
    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Weight(_Value):
    """Point of the weight space, kept in three coordinate blocks.

    fundamental_part and aux_part are coordinates over the Lambda_i and the
    complement symbols delta_i; root_part holds coordinates over the simple
    roots without expanding them.  Two weights are equal only when all
    three blocks agree.  A plain record with no arithmetic: the engines
    read it through OddCartanDatum.pair.  Every entry is read as --lambda
    reads it (_rational), under the block names of the JSON form.
    """

    __slots__ = ("fundamental_part", "aux_part", "root_part")

    def __init__(self, fundamental_part, aux_part, root_part):
        blocks = (fundamental_part, aux_part, root_part)
        parts = [tuple(_rational(x, name, k) for k, x in enumerate(values, 1))
                 for name, values in zip(_BLOCKS, blocks)]
        if len(set(map(len, parts))) != 1:
            raise ValueError("coordinate blocks disagree in length")
        for field, values in zip(self.__slots__, parts):
            object.__setattr__(self, field, values)


class OddCartanDatum(_Value):
    """Validated matrix, symmetrizer and parity marking.

    Construction runs the full validation, so any instance in hand is a
    legal datum.  Every entry must be an integer: a bool or a value with a
    fractional part is refused, never truncated.
    """

    __slots__ = ("a", "d", "odd")

    def __init__(self, a, d, odd=()):
        rows = tuple(
            tuple(_integer(x, f"a[{i}][{j}]") for j, x in enumerate(row))
            for i, row in enumerate(a)
        )
        object.__setattr__(self, "a", rows)
        object.__setattr__(self, "d", tuple(_integer(x, f"d[{i}]") for i, x in enumerate(d)))
        object.__setattr__(self, "odd", frozenset(_integer(i, "odd index") for i in odd))
        self._validate()

    def _validate(self):
        n = len(self.a)
        if not n:
            raise ValueError("matrix is empty")
        if any(len(row) != n for row in self.a):
            raise ValueError("matrix is not square")
        if len(self.d) != n:
            raise ValueError("symmetrizer length does not match the matrix")
        # odd indices are named as the JSON form lists them, from one
        for i in sorted(self.odd):
            if i not in range(n):
                raise ValueError(f"odd index {_echo(i + 1)} out of range 1..{n}")
        for i in range(n):
            aii = self.a[i][i]
            if aii != 2 and (aii > 0 or aii % 2 != 0):
                raise ValueError(
                    f"a[{i}][{i}] = {_echo(aii)}: a diagonal entry must be 2 or a nonpositive "
                    "even integer"
                )
            for j in range(n):
                if i != j and self.a[i][j] > 0:
                    raise ValueError(
                        f"a[{i}][{j}] = {_echo(self.a[i][j])}: an off-diagonal entry must be "
                        "nonpositive"
                    )
        if any(di <= 0 for di in self.d):
            raise ValueError(f"symmetrizer D = {_echo(list(self.d))}: every entry must be positive")
        for i in range(n):
            for j in range(i + 1, n):
                if self.d[i] * self.a[i][j] != self.d[j] * self.a[j][i]:
                    raise ValueError(
                        f"d[{i}]*a[{i}][{j}] = {_echo(self.d[i] * self.a[i][j])} != "
                        f"d[{j}]*a[{j}][{i}] = {_echo(self.d[j] * self.a[j][i])}: D*A must be "
                        "symmetric"
                    )
        for i in self.odd:
            if self.a[i][i] == 2:
                for j in range(n):
                    if self.a[i][j] % 2 != 0:
                        raise ValueError(f"a[{i}][{j}] = {_echo(self.a[i][j])}: odd index {i + 1} "
                                         "is real, so its row must be even")

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

    # ---- weight constructor ----

    def zero_weight(self) -> Weight:
        zero = (0,) * self.rank
        return Weight(zero, zero, zero)

    # ---- pairings ----

    def pair(self, i: int, w: Weight):
        """Evaluate the coroot h_i on a weight of the rank's length, as an int or a Fraction."""
        if len(w.root_part) != self.rank:
            raise ValueError(f"weight has length {len(w.root_part)}, need the rank {self.rank}")
        return w.fundamental_part[i] + self.pair_root(i, w.root_part)

    def pair_root(self, i: int, beta) -> int:
        """Evaluate h_i on a root-lattice vector."""
        return sum(map(mul, self.a[i], beta))

    def root_bilinear(self, beta, gamma) -> int:
        """Symmetric form between two root-lattice vectors."""
        rows = zip(beta, self.d, self.a)
        return sum(b * di * sum(map(mul, row, gamma)) for b, di, row in rows if b)

    # ---- dominance ----

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


# ---- JSON forms, indices one-based ----


def datum_from_json(obj) -> OddCartanDatum:
    if not isinstance(obj, dict) or "A" not in obj:
        raise ValueError("datum JSON needs at least the matrix under 'A'")
    for key in obj:
        if key not in ("A", "D", "odd"):
            raise ValueError(f"unknown datum field {_echo(key)}: use A, D or odd")
    a = obj["A"]
    if not isinstance(a, list):
        raise ValueError(f"datum field 'A' must be a list of rows, got {_echo(a)}")
    for row in a:
        if not isinstance(row, list):
            raise ValueError(f"datum field 'A' must be a list of rows, got row {_echo(row)}")
    d, odd = obj.get("D"), obj.get("odd")
    for name, value in (("D", d), ("odd", odd)):
        if value is not None and not isinstance(value, list):
            raise ValueError(f"datum field {name!r} must be a list, got {_echo(value)}")
    if d is None:
        d = [1] * len(a)
    odd = [_integer(i, "odd index") - 1 for i in odd or ()]
    return OddCartanDatum(a, d, odd)


def weight_to_json(w: Weight) -> dict:
    def block(values):
        return {str(i + 1): str(v) for i, v in enumerate(values) if v != 0}

    return {name: block(values) for name, values in zip(_BLOCKS, w._fields())}


def weight_from_json(datum: OddCartanDatum, obj) -> Weight:
    n = datum.rank
    if not isinstance(obj, dict):
        raise ValueError("a weight must be an object of Lambda, delta and alpha blocks")
    for key in obj:
        if key not in _BLOCKS:
            raise ValueError(f"unknown weight block {_echo(key)}: use Lambda, delta or alpha")

    def block(name):
        entries = obj.get(name)
        if entries is None:
            entries = {}
        elif not isinstance(entries, dict):
            raise ValueError(f"weight block {name!r} must be an object")
        given = {}
        for key, value in entries.items():
            try:
                i = _read_int(key) - 1
            except ValueError:
                raise ValueError(
                    f"index {_echo(key)} is not an integer in weight block {name!r}"
                ) from None
            if i not in range(n):
                raise ValueError(f"index {_echo(key, str)} out of range in weight block {name!r}")
            if i in given:  # "1" and "01"
                raise ValueError(f"index {i + 1} given twice in weight block {name!r}")
            given[i] = value
        return [given.get(i, 0) for i in range(n)]

    return Weight(*map(block, _BLOCKS))
