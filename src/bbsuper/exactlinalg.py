"""Exact linear algebra over the rationals.

One elimination routine: `row_basis` eliminates sparse rows, mappings
from column to a Fraction (or int) entry, keeps the first linearly
independent rows and expresses every row in them, which is what the
weight-space propagation of the oracle needs, for a numeric and for a
generic highest weight alike; the number of rows it keeps is the rank.
No floating point enters.
"""
from __future__ import annotations

from fractions import Fraction


def row_basis(rows):
    """The first linearly independent rows, in order, and the coordinates
    of every row in them.

    Each row maps columns (any mutually comparable keys) to entries;
    missing columns and zero entries both read as zero.  Returns
    (pivot_rows, coords): pivot_rows are input rows, unchanged, and
    coords[r] maps pivot indices k to nonzero coefficients with row r equal
    to the sum of coords[r][k] * pivot_rows[k] exactly.  Each new pivot is
    taken at its smallest nonzero column.  Entries must allow exact field
    arithmetic; ints and Fractions both work.
    """
    pivot_rows = []
    # (column, vector that is 1 there and 0 at earlier pivot columns,
    #  that vector as a combination of the pivot rows)
    echelon = []
    coords = []
    for row in rows:
        vec = {col: x for col, x in row.items() if x}
        combo = {}
        for col, unit, unit_combo in echelon:
            c = vec.get(col)
            if c:
                for k, u in unit.items():
                    x = vec.get(k, 0) - c * u
                    if x:
                        vec[k] = x
                    else:
                        del vec[k]
                for k, u in unit_combo.items():
                    x = combo.get(k, 0) + c * u
                    if x:
                        combo[k] = x
                    else:
                        del combo[k]
        if not vec:
            coords.append(combo)
            continue
        lead = min(vec)
        inv = 1 / Fraction(vec[lead])
        unit_combo = {k: -c * inv for k, c in combo.items()}
        unit_combo[len(pivot_rows)] = inv
        echelon.append((lead, {k: x * inv for k, x in vec.items()}, unit_combo))
        coords.append({len(pivot_rows): 1})
        pivot_rows.append(row)
    return pivot_rows, coords
