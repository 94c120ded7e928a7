"""Root multiplicities solved from the logarithm of the denominator identity.

The specialized numerator N_0 at highest weight zero equals the product
over positive roots of (1-e^{-beta})^m for even beta and (1+e^{-beta})^{-m}
for odd beta.  With D the height derivation, which scales e^{-gamma} by
ht(gamma), the log-derivative L = D(N_0) / N_0 is an integer series
and, by the product form,

    -L_gamma = sum over k | gamma of eps_k(gamma/k) ht(gamma/k) m_{gamma/k},

where eps_k(beta) is 1 for even beta and (-1)^{k+1} for odd beta.  The
k = 1 term isolates ht(gamma) m_gamma, so one pass in graded order solves
every multiplicity by Moebius inversion, as in Kang's superdimension
formula.  A negative or non-integral multiplicity aborts: neither can
happen for a valid datum, and rounding or clamping would silently corrupt
every later height.
"""

from collections import namedtuple
from math import gcd

from .charformula import numerator_series
from .datum import OddCartanDatum, graded_key, height
from .series import CharSeries, log_sign


class RootEntry(namedtuple("RootEntry", "mult parity is_real")):
    __slots__ = ()


class RootTable:
    """Multiplicities of the positive roots up to a height bound."""

    __slots__ = ("height_bound", "entries")

    def __init__(self, height_bound, entries):
        self.height_bound = height_bound
        self.entries = dict(entries)

    def items_sorted(self):
        return sorted(self.entries.items(), key=lambda kv: graded_key(kv[0]))

    def __repr__(self):
        return f"RootTable(H={self.height_bound}, {len(self.entries)} roots)"


def _mult_from_log(beta, log_coef: int, entries) -> int:
    """m_beta from the log-derivative coefficient L_beta and the entries
    already solved at the proper divisors beta/k."""
    h = height(beta)
    total = -log_coef
    g = gcd(*beta)
    for k in range(2, g + 1):
        if g % k:
            continue
        entry = entries.get(tuple(x // k for x in beta))
        if entry is not None:
            total -= log_sign(entry.parity, k) * (h // k) * entry.mult
    m, rest = divmod(total, h)
    if rest:
        raise ValueError(f"multiplicity {total}/{h} at exponent {beta} is not an integer")
    if m < 0:
        raise ValueError(f"multiplicity {m} at exponent {beta} is negative")
    return m


def solve_multiplicities(datum: OddCartanDatum, height_bound: int) -> RootTable:
    """Solve every multiplicity below the bound from L = D(N_0) / N_0."""
    rank = datum.rank
    numerator = numerator_series(datum, datum.zero_weight(), height_bound)
    derived = CharSeries(
        height_bound, rank, {e: height(e) * c for e, c in numerator.terms.items()}
    )
    log_terms = derived.divide(numerator).terms
    candidates = [set() for _ in range(height_bound + 1)]
    for gamma in log_terms:
        candidates[height(gamma)].add(gamma)
    entries = {}
    for h in range(1, height_bound + 1):
        for gamma in sorted(candidates[h]):
            m = _mult_from_log(gamma, log_terms.get(gamma, 0), entries)
            if not m:
                continue
            # a root is real exactly when its norm is positive
            is_real = datum.root_bilinear(gamma, gamma) > 0
            entries[gamma] = RootEntry(m, datum.parity_of(gamma), is_real)
            # a multiple of a root can be a root even where L vanishes
            for k in range(2, height_bound // h + 1):
                candidates[k * h].add(tuple(k * x for x in gamma))
    return RootTable(height_bound, entries)


def roots_to_json(table: RootTable) -> list:
    return [
        {
            "root": list(beta),
            "mult": entry.mult,
            "parity": "odd" if entry.parity else "even",
            "class": "real" if entry.is_real else "imaginary",
        }
        for beta, entry in table.items_sorted()
    ]
