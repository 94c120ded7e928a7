"""Weight-space dimensions of highest-weight modules from the defining
relations alone.

The irreducible quotient L(lam) is computed by propagation in graded
order.  The radical of the contravariant form is the maximal submodule,
so a vector of positive depth vanishes in L(lam) exactly when every
raising generator e_{jk} sends it to zero there.  Each weight space is
therefore spanned by f_{il} applied to the bases already found below it,
and a candidate is recorded by the coordinates of its e-images, which the
commutation rule e_{jk} f_{il} = s f_{il} e_{jk} + [(j,k) = (i,l)] l h_i
reads off the bases and the stored f matrices of lower cells.  Those rows
are sparse, keyed by generator, h-part and basis index.  Their rank is
the dimension; the first independent candidates become the basis, each
kept as its own row of e-images, and the coordinates of every candidate
in that basis become the new f matrices.

The generic (Verma) dimension, for lam None, runs the same pass with the
highest weight left symbolic: each pairing <h_i, lam - gamma> =
t_i - <h_i, gamma> is kept as two integers, its t_i-coefficient and its
constant, so every e-image is t_j A + B with A and B rational and no
polynomial ring is needed.  No multiplicity table and no formula output
enters either path, which is what makes the result an independent check.
"""

from itertools import combinations_with_replacement
from math import lcm
from operator import sub

from .datum import OddCartanDatum, Weight
from .exactlinalg import row_basis


def _generators(datum, beta):
    """Generators (i, l) with l alpha_i <= beta; real indices carry l = 1."""
    return [
        (i, l)
        for i in range(datum.rank)
        for l in range(1, (min(beta[i], 1) if datum.is_real(i) else beta[i]) + 1)
    ]


def _minus(beta, i, l):
    return beta[:i] + (beta[i] - l,) + beta[i + 1 :]


def _h_parts(datum, pairings, i, gamma):
    """<h_i, lam - gamma> as (integer parts, denominator): one part for a
    numeric lam, given by its pairings; for pairings None (generic lam),
    its t_i-coefficient and its constant."""
    shift = datum.pair_root(i, gamma)
    if pairings is None:
        return (1, -shift), 1
    p = pairings[i]
    return (p.numerator - shift * p.denominator,), p.denominator


def irreducible_dims(datum: OddCartanDatum, lam: Weight | None, height_bound: int) -> dict:
    """{offset: dim L(lam)} over weight_window, in window order; lam None
    gives the generic weight, whose L is the Verma module.  The window is
    closed under lowering and graded, so the cells below beta are done
    when beta is reached.

    basis[beta] lists the first independent candidates, integer multiples
    of f_{il} b, each stored as its row of e-images: key (j, k, part, c)
    holds the coefficient of basis vector c at beta - k alpha_j in part
    `part` of e_{jk} applied to it.  A numeric lam has one part; for lam
    None the image is t_j A + B, stored as part 0 (A) and part 1 (B).
    f_mat[gamma, i, l] holds, for each basis vector at gamma, the
    coordinates (num, den) of its f_{il}-image in the basis at
    gamma + l alpha_i, as row_basis gives them.  Everything is an integer:
    a candidate row is scaled by the lcm of the denominators it reads.
    """
    pairings = None if lam is None else [datum.pair(i, lam) for i in range(datum.rank)]
    basis = {}
    f_mat = {}
    for beta in weight_window(datum.rank, height_bound):
        if not any(beta):
            basis[beta] = [{}]
            continue
        rows = []
        slots = []
        for i, l in _generators(datum, beta):
            gamma = _minus(beta, i, l)
            images = f_mat[gamma, i, l] = []
            odd_i = datum.is_odd(i)
            h_parts, h_den = _h_parts(datum, pairings, i, gamma)
            for b, vec in enumerate(basis[gamma]):
                # s f_{il} e_{jk} b, through the cell below gamma
                reads = [
                    (j, k, part, -x if odd_i and datum.is_odd(j) else x,
                     f_mat[_minus(gamma, j, k), i, l][c])
                    for (j, k, part, c), x in vec.items()
                ]
                scale = lcm(h_den, *(den for *_, (_, den) in reads))
                row = {}
                for j, k, part, x, (num, den) in reads:
                    x *= scale // den
                    for t, y in num.items():
                        key = (j, k, part, t)
                        row[key] = row.get(key, 0) + x * y
                for part, h in enumerate(h_parts):
                    key = (i, l, part, b)
                    row[key] = row.get(key, 0) + l * h * (scale // h_den)
                rows.append(row)
                slots.append((images, scale))
        basis[beta], coords = row_basis(rows)
        for (num, den), (images, scale) in zip(coords, slots):
            images.append((num, den * scale))
    return {beta: len(vecs) for beta, vecs in basis.items()}


def weight_window(rank: int, height_bound: int):
    """All cone offsets up to the height bound in graded lex order.  An
    offset of height h is fixed by its rank - 1 partial sums, a
    nondecreasing run in 0..h (stars and bars), and runs in lex order give
    offsets in lex order."""
    window = []
    for h in range(height_bound + 1):
        for sums in combinations_with_replacement(range(h + 1), rank - 1):
            cuts = (0, *sums, h)
            window.append(tuple(map(sub, cuts[1:], cuts)))
    return window
