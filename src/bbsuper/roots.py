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
from .datum import OddCartanDatum, graded_key
from .series import denominator_R, graded_check, json_list, root_log_terms, table_log_terms, unpack


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

    def rows_json(self, indent="") -> str:
        """cli._render of roots_to_json(self) at indent, written straight
        from the table."""
        rows = [("real" if e.is_real else "imaginary", e.mult, "odd" if e.parity else "even") + beta
                for beta, e in self.items_sorted()]
        keys = ('"class": "%s"', '"mult": %d', '"parity": "%s"', '"root"')
        return json_list(indent, keys, rows)


def solve_multiplicities(datum: OddCartanDatum, height_bound: int, numerator=None) -> RootTable:
    """Solve every multiplicity below the bound from L = D(N_0) / N_0, on
    packed exponents; only the roots found are unpacked.  numerator is
    N_0 at the same bound, when the caller has it."""
    if numerator is None:
        numerator = numerator_series(datum, datum.zero_weight(), height_bound)
    log = numerator.log_derivative()
    base = height_bound + 1
    # unexplained[h] holds what the roots found below height h leave of L there
    unexplained = [defaultdict(int, log.get(h, ())) for h in range(base)]
    entries = {}
    for h in range(1, base):
        layer = unexplained[h]
        # keys of one height sort as their exponents do
        for key in sorted(layer):
            total = -layer[key]
            if not total:
                continue
            gamma = unpack(key, datum.rank, base)
            m, rest = divmod(total, h)
            if rest:
                raise ValueError(f"multiplicity {total}/{h} at exponent {gamma} is not an integer")
            if m < 0:
                raise ValueError(f"multiplicity {m} at exponent {gamma} is negative")
            # a root is real exactly when its norm is positive
            is_real = datum.root_bilinear(gamma, gamma) > 0
            entry = entries[gamma] = RootEntry(m, datum.parity_of(gamma), is_real)
            # its term at k = 1 is what it explains; k gamma for k >= 2 lies
            # in the window only while 2 h <= H, and k key packs it
            if 2 * h <= height_bound:
                for k, c in enumerate(root_log_terms(h, entry, height_bound)[1:], 2):
                    unexplained[k * h][k * key] -= c
    return RootTable(height_bound, entries)


def denominator_residual_terms(datum, table, numerator) -> int:
    """Terms of series.denominator_R(datum, table, H) - numerator, at the
    numerator's height bound H.

    Both series have constant term 1, so they agree exactly when
    D(numerator) = numerator L, L the sum of the table's root_log_terms.
    That is checked as series.product_holds checks a product; every
    coefficient of L is at most H times the sum of the multiplicities in
    size.  denominator_R runs only when the check fails or cannot be made.
    A failed check proves the residual nonzero, so the count is then at
    least 1, even where a faulty product finds no term.
    """
    h_max = numerator.height_bound
    holds = None
    if numerator.coefficient((0,) * datum.rank) == 1:
        sizes = list(map(abs, numerator.terms.values()))
        mults = sum(abs(entry.mult) for entry in table.entries.values())
        derived = ((e, sum(e) * c) for e, c in numerator.terms.items())
        holds = graded_check(h_max * (max(sizes) + mults * sum(sizes)), datum.rank, h_max,
                             derived, table_log_terms(table, h_max), numerator.terms.items())
    if holds:
        return 0
    residual = len((denominator_R(datum, table, h_max) - numerator).terms)
    return residual if residual or holds is None else 1


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
