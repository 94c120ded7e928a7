"""Exact linear algebra over the rationals, in integer arithmetic.

One elimination routine: `row_basis` eliminates sparse rows, mappings
from column to an int entry, keeps the first linearly independent rows
and expresses every row in them, which is what the weight-space
propagation of the oracle needs, for a numeric and for a generic highest
weight alike; the number of rows it keeps is the rank.  A rational row
is passed scaled to integers, as the oracle builds each row over the lcm
of the denominators it reads.  It is fraction-free, integer-preserving
elimination after Bareiss (Math. Comp. 22, 1968): no Fraction is built
and no floating point enters.
"""

from math import gcd


def _combine(u, vec, c, unit):
    """u * vec - c * unit, with zero entries dropped."""
    out = {k: u * x for k, x in vec.items()}
    for k, y in unit.items():
        x = out.get(k, 0) - c * y
        if x:
            out[k] = x
        else:
            del out[k]
    return out


def row_basis(rows):
    """The first linearly independent rows, in order, and the coordinates
    of every row in them.

    Each row maps columns (any mutually comparable keys) to int entries;
    missing columns and zero entries both read as zero.
    Returns (pivot_rows, coords): pivot_rows are input rows, unchanged,
    and coords[r] is (num, den) in lowest terms, num mapping pivot indices
    k to nonzero ints and den a positive int, with den * row r equal to
    the sum of num[k] * pivot_rows[k] exactly.  Each new pivot is taken at
    its smallest nonzero column.
    """
    pivot_rows = []
    # (column, integer vector nonzero there and 0 at earlier pivot columns,
    #  minus that vector as a combination of the pivot rows)
    echelon = []
    coords = []
    for row in rows:
        # vec == den * row - sum(combo[k] * pivot_rows[k]), all in integers
        vec = {col: x for col, x in row.items() if x}
        den = 1
        combo = {}
        for col, unit, unit_combo in echelon:
            c = vec.get(col)
            if c:
                g = gcd(unit[col], c)
                u, c = unit[col] // g, c // g
                vec, combo = _combine(u, vec, c, unit), _combine(u, combo, c, unit_combo)
                g = gcd(den * u, *vec.values(), *combo.values())
                den = den * u // g
                if g != 1:
                    vec = {k: x // g for k, x in vec.items()}
                    combo = {k: x // g for k, x in combo.items()}
        if vec:
            combo[len(pivot_rows)] = -den
            echelon.append((min(vec), vec, combo))
            combo, den = {len(pivot_rows): 1}, 1
            pivot_rows.append(row)
        elif den < 0:
            combo, den = {k: -x for k, x in combo.items()}, -den
        coords.append((combo, den))
    return pivot_rows, coords
