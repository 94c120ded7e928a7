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

The generic (Verma) dimension runs the same pass with the highest weight
left symbolic: each pairing <h_i, lam - gamma> = t_i - <h_i, gamma> is
kept as two rationals, its t_i-coefficient and its constant, so every
e-image is t_j A + B with A and B rational and no polynomial ring is
needed.  No multiplicity table and no formula output enters either path,
which is what makes the result an independent check.
"""
from __future__ import annotations

import os
from collections import namedtuple
from itertools import islice, product

from .datum import OddCartanDatum, Weight, depth_below, graded_key, height
from .errors import Unreachable
from .exactlinalg import row_basis

ENV_CAP = "BBSUPER_CAP"


class OracleCaps(namedtuple("OracleCaps", "max_height", defaults=(6,))):
    """Resource ceiling: no oracle cell deeper than max_height."""

    __slots__ = ()


def caps_from_env(env=None) -> OracleCaps:
    """Default caps, overridden by BBSUPER_CAP as one integer, or as two
    ("a,b", the older length and height form) that cap at their minimum."""
    if env is None:
        env = os.environ
    raw = env.get(ENV_CAP)
    if raw is None:
        return OracleCaps()
    parts = [p.strip() for p in raw.split(",")]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse {ENV_CAP}={raw!r}") from None
    if len(values) not in (1, 2):
        raise ValueError(f"{ENV_CAP} takes one or two integers, got {raw!r}")
    if min(values) < 1:
        raise ValueError(f"{ENV_CAP} takes positive integers, got {raw!r}")
    return OracleCaps(min(values))


def _resolve_caps(caps) -> OracleCaps:
    return caps if caps is not None else caps_from_env()


def _check_height(h, caps):
    if h > caps.max_height:
        raise Unreachable(
            f"height {h} exceeds cap {caps.max_height}; raise {ENV_CAP} to go deeper"
        )


def _generators(datum, beta):
    """Generators (i, l) with l alpha_i <= beta; real indices carry l = 1."""
    return [
        (i, l)
        for i in range(datum.rank)
        for l in range(1, (min(beta[i], 1) if datum.is_real(i) else beta[i]) + 1)
    ]


def _minus(beta, i, l):
    return beta[:i] + (beta[i] - l,) + beta[i + 1 :]


def _h_parts(datum, lam, i, gamma):
    """<h_i, lam - gamma> as its parts: one number for a numeric lam; for
    lam None (generic), its t_i-coefficient and its constant."""
    shift = datum.pair_root(i, gamma)
    if lam is None:
        return (1, -shift)
    return (datum.pair(i, lam) - shift,)


def _propagate(datum, lam, cells) -> dict:
    """dim L(lam) at every cell, or the generic (Verma) dimension for lam
    None; cells must be closed under lowering and listed in graded order.

    basis[beta] lists the first independent candidates f_{il} b, each
    stored as its row of e-images: key (j, k, part, c) holds the
    coefficient of basis vector c at beta - k alpha_j in part `part` of
    e_{jk} applied to it.  A numeric lam has one part; for lam None the
    image is t_j A + B, stored as part 0 (A) and part 1 (B), all over the
    rationals.  f_mat[gamma, (i, l)] holds, for each basis vector at
    gamma, the coordinates {index: coefficient} of its f_{il}-image in
    the basis at gamma + l alpha_i.
    """
    basis = {}
    f_mat = {}
    for beta in cells:
        if not any(beta):
            basis[beta] = [{}]
            continue
        gens = _generators(datum, beta)
        rows = []
        for i, l in gens:
            gamma = _minus(beta, i, l)
            odd_i = datum.is_odd(i)
            h_parts = _h_parts(datum, lam, i, gamma)
            for b, vec in enumerate(basis[gamma]):
                row = {}
                # s f_{il} e_{jk} b, through the cell below gamma
                for (j, k, part, c), x in vec.items():
                    if odd_i and datum.is_odd(j):
                        x = -x
                    for t, y in f_mat[_minus(gamma, j, k), (i, l)][c].items():
                        key = (j, k, part, t)
                        row[key] = row.get(key, 0) + x * y
                for part, h in enumerate(h_parts):
                    key = (i, l, part, b)
                    row[key] = row.get(key, 0) + l * h
                rows.append(row)
        basis[beta], coords = row_basis(rows)
        coords = iter(coords)
        for i, l in gens:
            gamma = _minus(beta, i, l)
            f_mat[gamma, (i, l)] = list(islice(coords, len(basis[gamma])))
    return {beta: len(vecs) for beta, vecs in basis.items()}


def _window_dims(datum, lam, height_bound, caps):
    caps = _resolve_caps(caps)
    # the window is graded, so its first cell over the cap is that deep
    _check_height(min(height_bound, caps.max_height + 1), caps)
    cells = weight_window(datum.rank, height_bound)
    dims = _propagate(datum, lam, cells)
    return [dims[beta] for beta in cells]


def _box_dim(datum, lam, beta, caps):
    _check_height(height(beta), _resolve_caps(caps))
    box = sorted(product(*(range(b + 1) for b in beta)), key=graded_key)
    return _propagate(datum, lam, box)[beta]


def irreducible_dims(datum: OddCartanDatum, lam: Weight, height_bound: int, caps=None) -> list:
    """dim L(lam) at every cell of weight_window, in window order.

    The height bound is checked against the caps before any work starts.
    """
    return _window_dims(datum, lam, height_bound, caps)


def irreducible_dim(datum: OddCartanDatum, lam: Weight, mu: Weight, caps=None) -> int:
    """dim of the irreducible quotient at weight mu, by propagation over
    the box of cells below lam - mu.

    Weights outside the cone under lam have dimension zero.
    """
    beta = depth_below(lam, mu)
    return 0 if beta is None else _box_dim(datum, lam, beta, caps)


def generic_dims(datum: OddCartanDatum, height_bound: int, caps=None) -> list:
    """Verma dimension for generic highest weight at every cell of
    weight_window, in window order.

    The height bound is checked against the caps before any work starts.
    """
    return _window_dims(datum, None, height_bound, caps)


def generic_dim(datum: OddCartanDatum, beta, caps=None) -> int:
    """Verma dimension at depth beta for generic highest weight, by
    propagation over the box of cells below beta."""
    beta = tuple(int(b) for b in beta)
    if any(b < 0 for b in beta):
        raise ValueError(f"{beta} is not in the positive cone")
    return _box_dim(datum, None, beta, caps)


def weight_window(rank: int, height_bound: int):
    """All cone offsets up to the height bound in graded lex order."""
    out = []
    for h in range(height_bound + 1):
        layer = []

        def collect(prefix, left):
            if len(prefix) == rank - 1:
                layer.append(tuple(prefix) + (left,))
                return
            for c in range(left + 1):
                collect(prefix + [c], left - c)

        collect([], h)
        out.extend(sorted(layer))
    return out
