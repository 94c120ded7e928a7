"""Root tables: multiplicities solved from the logarithm of the
denominator identity, and the denominator built back from a table.

The specialized numerator N_0 at highest weight zero equals the product
over positive roots of (1-e^{-beta})^m for even beta and (1+e^{-beta})^{-m}
for odd beta.  With D the height derivation, which scales e^{-gamma} by
ht(gamma), the log-derivative L = D(N_0) / N_0 is an integer series, the
sum of root_log_terms over the roots.  The solver peels it in graded
order: at gamma, what the roots found below ht(gamma) leave of L_gamma
is -ht(gamma) m_gamma, and a new root subtracts its own terms from the
heights above, which also reaches every multiple of it where L
vanishes.  A negative or non-integral multiplicity aborts: neither can
happen for a valid datum, and rounding or clamping would silently
corrupt every later height.

The way back also starts from root_log_terms: table_log sums them over
a table, denominator_R turns that sum into the product through
CharSeries.from_log_derivative, and denominator_residual_terms checks
D(N_0) = N_0 L through series.product_holds.  Besides this module, only
cli._root_rows, which writes the table out, reads a table's records.
"""

from collections import defaultdict, namedtuple

from .charformula import numerator_series
from .datum import OddCartanDatum, graded_key
from .series import CharSeries, product_holds, unpack


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


def root_log_terms(h, entry, height_bound) -> list:
    """[c_1, c_2, ...]: a root beta of height h and multiplicity m adds
    c_k = -eps_k m h to the log-derivative L = D(R)/R of the denominator
    at k beta, for every k >= 1 with k beta in the window; eps_k = -1 for
    an odd root at even k and 1 otherwise."""
    coef = -entry.mult * h
    return [-coef if entry.parity and k % 2 == 0 else coef
            for k in range(1, height_bound // h + 1)]


def table_log(datum, table, height_bound) -> CharSeries:
    """L = D(R)/R of the table's denominator R, the sum of its roots'
    root_log_terms.  The table is read only through entries and
    height_bound, unsorted; a root past the window or of multiplicity 0
    adds nothing.  Each other root is checked once, as CharSeries checks
    an exponent; its multiples then need no check."""
    if table.height_bound < height_bound:
        raise ValueError(f"root table stops at height {table.height_bound}, need {height_bound}")
    log = defaultdict(int)
    for beta, entry in table.entries.items():
        h = sum(beta)
        if not entry.mult or h > height_bound:
            continue
        if len(beta) != datum.rank:
            raise ValueError("exponent length does not match the rank")
        if min(beta) < 0:
            raise ValueError(f"exponent {beta} leaves the cone")
        log[beta] -= entry.mult * h
        # as in the solver, only a root with 2 h <= H has terms past k = 1
        if 2 * h <= height_bound:
            for k, coef in enumerate(root_log_terms(h, entry, height_bound)[1:], 2):
                log[tuple([k * x for x in beta])] += coef
    out = CharSeries(height_bound, datum.rank)
    out.terms = {e: c for e, c in log.items() if c}
    return out


def denominator_R(datum, table, height_bound) -> CharSeries:
    """Product over the root table of (1-e^{-beta})^m for even roots and
    (1+e^{-beta})^{-m} for odd ones, built from its log-derivative."""
    return CharSeries.from_log_derivative(table_log(datum, table, height_bound))


def denominator_residual_terms(datum, table, numerator) -> int:
    """Terms of denominator_R(datum, table, H) - numerator, H the
    numerator's height bound.  Both have constant term 1, so they agree
    exactly when D(numerator) = numerator L, L the table_log, which
    series.product_holds checks; denominator_R runs only when it fails.
    The count is then at least 1, even where a faulty product finds no
    term."""
    h_max = numerator.height_bound
    if numerator.coefficient((0,) * datum.rank) == 1:
        derived = CharSeries(h_max, datum.rank, {e: sum(e) * c for e, c in numerator.terms.items()})
        if product_holds(derived, numerator, table_log(datum, table, h_max)):
            return 0
    return max(len((denominator_R(datum, table, h_max) - numerator).terms), 1)

