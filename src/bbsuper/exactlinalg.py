"""Exact linear algebra over the rationals.

One elimination routine: `row_basis` eliminates rows with Fraction (or
int) entries, keeps the first linearly independent rows and expresses
every row in them, which is what the weight-space propagation of the
oracle needs, for a numeric and for a generic highest weight alike.
`rank_gauss` is its length.  No floating point enters.
"""
from __future__ import annotations

from fractions import Fraction


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
