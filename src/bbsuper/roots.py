"""Root tables: multiplicities solved from the logarithm of the
denominator identity, and the denominator built back from a table.

The specialized numerator N_0 at highest weight zero equals the product
over positive roots of (1-e^{-beta})^m for even beta and (1+e^{-beta})^{-m}
for odd beta.  With D the height derivation, which scales e^{-gamma} by
ht(gamma), the log-derivative L = D(N_0) / N_0 is an integer series: a
root beta of height h adds -m h at beta and root_log_multiples at k beta
for k >= 2.  The solver peels L in graded order: at gamma, what the roots
found below ht(gamma) leave of L_gamma is -ht(gamma) m_gamma, and a new
root subtracts its multiples from the heights above, which also reaches
every multiple of it where L vanishes.  A negative or non-integral
multiplicity aborts: neither can happen for a valid datum, and rounding
or clamping would silently corrupt every later height.

The way back expands each root the same way: table_log sums a table's
terms, denominator_R turns that sum into the product through
CharSeries.from_log_derivative, and denominator_residual_terms checks
D(N_0) = N_0 L through series.product_holds.  Every series here holds
exponent tuples.  Besides this module, only cli._root_rows reads a
table's records, and writes them in the graded order the solver fills.
"""

from collections import defaultdict, namedtuple

from .charformula import numerator_series
from .datum import OddCartanDatum
from .series import CharSeries, product_holds


RootEntry = namedtuple("RootEntry", "mult parity is_real")


# solve_multiplicities fills entries in graded order, the order the rows
# of roots and denom-check are written in
RootTable = namedtuple("RootTable", "height_bound entries")


def solve_multiplicities(datum: OddCartanDatum, height_bound: int, numerator=None) -> RootTable:
    """Solve every multiplicity below the bound from L = D(N_0) / N_0.
    numerator is N_0 at the same bound and rank, when the caller has it."""
    if numerator is None:
        numerator = numerator_series(datum, datum.zero_weight(), height_bound)
    numerator._check_compatible(CharSeries(height_bound, datum.rank))
    log = numerator.derivative().divide(numerator)
    # unexplained[h] holds what the roots found below height h leave of L there
    unexplained = [defaultdict(int) for _ in range(height_bound + 1)]
    for gamma, c in log.terms.items():
        unexplained[sum(gamma)][gamma] = c
    entries = {}
    for h in range(1, height_bound + 1):
        layer = unexplained[h]
        # exponents of one height sort in graded order
        for gamma in sorted(layer):
            total = -layer[gamma]
            if not total:
                continue
            m, rest = divmod(total, h)
            if rest:
                raise ValueError(f"multiplicity {total}/{h} at exponent {gamma} is not an integer")
            if m < 0:
                raise ValueError(f"multiplicity {m} at exponent {gamma} is negative")
            # a root is real iff its norm is positive; a real root, a W-image of
            # alpha_i or of 2 alpha_i for an odd real i, has multiplicity one
            is_real = m == 1 and datum.root_bilinear(gamma, gamma) > 0
            entry = entries[gamma] = RootEntry(m, datum.parity_of(gamma), is_real)
            # its term at k = 1 is what it explains; a root past H/2 has no
            # other multiple in the window
            if 2 * h <= height_bound:
                for multiple, c in root_log_multiples(gamma, h, entry, height_bound):
                    unexplained[sum(multiple)][multiple] -= c
    return RootTable(height_bound, entries)


def root_log_multiples(beta, h, entry, height_bound):
    """Yield (k beta, c_k) for every k >= 2 with k beta in the window: a
    root beta of height h > 0 and multiplicity m adds c_k = -eps_k m h to
    the log-derivative L = D(R)/R of the denominator at k beta, for every
    k >= 1; eps_k = -1 for an odd root at even k and 1 otherwise.  A root
    with 2 h > H yields nothing, so both callers skip it."""
    coef = -entry.mult * h
    for k in range(2, height_bound // h + 1):
        yield tuple([k * x for x in beta]), -coef if entry.parity and k % 2 == 0 else coef


def table_log(datum, table, height_bound) -> CharSeries:
    """L = D(R)/R of the table's denominator R, each root's term -m h at
    itself and its root_log_multiples.  The table is read only through
    entries and height_bound, unsorted; a root past the window or of
    multiplicity 0 adds nothing.  Each other root is checked once, as
    CharSeries checks an exponent, and refused at height 0; its multiples
    then need no check."""
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
        if not h:
            raise ValueError(f"exponent {beta} has height 0 and is not a root")
        log[beta] -= entry.mult * h
        if 2 * h <= height_bound:
            for multiple, coef in root_log_multiples(beta, h, entry, height_bound):
                log[multiple] += coef
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
        if product_holds(numerator.derivative(), numerator, table_log(datum, table, h_max)):
            return 0
    return max(len((denominator_R(datum, table, h_max) - numerator).terms), 1)

