"""Root multiplicities solved from the logarithm of the denominator identity.

The specialized numerator N_0 at highest weight zero equals the product
over positive roots of (1-e^{-beta})^m for even beta and (1+e^{-beta})^{-m}
for odd beta.  With D the height derivation, which scales e^{-gamma} by
ht(gamma), the log-derivative L = D(N_0) / N_0 is an integer series, the
sum of series.root_log_terms over the roots.  The solver peels it in
graded order: at gamma, what the roots found below ht(gamma) leave of
L_gamma is -ht(gamma) m_gamma, and a new root subtracts its own terms
from the heights above, which also reaches every multiple of it where L
vanishes.  A negative or non-integral multiplicity aborts: neither can
happen for a valid datum, and rounding or clamping would silently corrupt
every later height.
"""

from collections import defaultdict, namedtuple

from .charformula import numerator_series
from .datum import OddCartanDatum, graded_key, height
from .series import CharSeries, root_log_terms


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


def solve_multiplicities(datum: OddCartanDatum, height_bound: int) -> RootTable:
    """Solve every multiplicity below the bound from L = D(N_0) / N_0."""
    numerator = numerator_series(datum, datum.zero_weight(), height_bound)
    derived = CharSeries(
        height_bound, datum.rank, {e: height(e) * c for e, c in numerator.terms.items()}
    )
    # unexplained[h] holds what the roots found below height h leave of L there
    unexplained = [defaultdict(int) for _ in range(height_bound + 1)]
    for gamma, c in derived.divide(numerator).terms.items():
        unexplained[height(gamma)][gamma] = c
    entries = {}
    for h in range(1, height_bound + 1):
        for gamma in sorted(unexplained[h]):
            total = -unexplained[h][gamma]
            m, rest = divmod(total, h)
            if rest:
                raise ValueError(f"multiplicity {total}/{h} at exponent {gamma} is not an integer")
            if m < 0:
                raise ValueError(f"multiplicity {m} at exponent {gamma} is negative")
            if not m:
                continue
            # a root is real exactly when its norm is positive
            is_real = datum.root_bilinear(gamma, gamma) > 0
            entry = entries[gamma] = RootEntry(m, datum.parity_of(gamma), is_real)
            for multiple, c in root_log_terms(gamma, entry, height_bound):
                unexplained[height(multiple)][multiple] -= c
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
