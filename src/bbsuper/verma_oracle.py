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

The all-word Gram matrix (gram_matrix, pair_with_cell) stays, for a
numeric highest weight, as the reference the tests compare against.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from .datum import OddCartanDatum, Weight, depth_below, graded_key, height
from .errors import BadGeneratorIndex, Unreachable
from .exactlinalg import row_basis

ENV_CAP = "BBSUPER_CAP"


@dataclass(frozen=True)
class OracleCaps:
    """Resource ceiling: no oracle cell deeper than max_height."""

    max_height: int = 6


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


@dataclass(frozen=True)
class FMonomial:
    """Ordered product of lowering generators, outermost first."""

    factors: tuple
    degree: tuple
    parity: int

    @classmethod
    def from_factors(cls, datum: OddCartanDatum, factors) -> "FMonomial":
        factors = tuple((int(i), int(l)) for i, l in factors)
        degree = [0] * datum.rank
        parity = 0
        for i, l in factors:
            if i not in range(datum.rank) or l < 1:
                raise BadGeneratorIndex(f"no generator ({i}, {l})")
            if l != 1 and datum.is_real(i):
                raise BadGeneratorIndex(f"real index {i} only carries level 1")
            degree[i] += l
            parity ^= 1 if datum.is_odd(i) else 0
        return cls(factors, tuple(degree), parity)


def _word_degree(rank, factors):
    deg = [0] * rank
    for i, l in factors:
        deg[i] += l
    return tuple(deg)


def _word_parity(datum, factors):
    p = 0
    for i, _ in factors:
        p ^= 1 if datum.is_odd(i) else 0
    return p


def _check_cell(beta, caps):
    h = height(beta)
    if h > caps.max_height:
        raise Unreachable(
            f"height {h} exceeds cap {caps.max_height}; raise {ENV_CAP} to go deeper"
        )


def enumerate_f_monomials(datum: OddCartanDatum, beta, caps=None) -> list:
    """Every ordered word of generators whose degrees sum to beta.

    Order matters and no relations are imposed, so the list spans the
    weight space with repetition of dependent vectors.  Deterministic:
    words are generated with the leading letter ascending.
    """
    caps = _resolve_caps(caps)
    beta = tuple(int(b) for b in beta)
    if any(b < 0 for b in beta):
        raise ValueError(f"{beta} is not in the positive cone")
    _check_cell(beta, caps)
    rank = datum.rank
    out = []

    def build(remaining, acc):
        if not any(remaining):
            out.append(tuple(acc))
            return
        for i in range(rank):
            if remaining[i] == 0:
                continue
            top = 1 if datum.is_real(i) else remaining[i]
            for l in range(1, top + 1):
                left = list(remaining)
                left[i] -= l
                acc.append((i, l))
                build(left, acc)
                acc.pop()

    build(list(beta), [])
    return [
        FMonomial(w, _word_degree(rank, w), _word_parity(datum, w)) for w in out
    ]


def _apply_e(datum, i, l, state, pairing):
    """One raising step on a combination of words.

    state maps factor tuples to coefficients; pairing(index, offset)
    must return the evaluation of h_index against the highest weight
    shifted down by the offset root vector.
    """
    odd_i = datum.is_odd(i)
    rank = datum.rank
    out = {}
    for word, coef in state.items():
        prefix_parity = 0
        for a, (j, k) in enumerate(word):
            if j == i and k == l:
                tail = word[a + 1 :]
                value = pairing(i, _word_degree(rank, tail))
                sign = -1 if odd_i and prefix_parity else 1
                contribution = coef * (sign * l) * value
                if contribution:
                    shorter = word[:a] + tail
                    total = out.get(shorter, 0) + contribution
                    if total:
                        out[shorter] = total
                    else:
                        del out[shorter]
            if datum.is_odd(j):
                prefix_parity ^= 1
    return out


def lower_with_e(datum: OddCartanDatum, i, l, word, lam: Weight) -> dict:
    """Expansion of e_{il} applied to (word)v_lam, as a combination of
    shorter monomials."""
    factors = word.factors if isinstance(word, FMonomial) else tuple(word)
    state = _apply_e(datum, i, l, {factors: Fraction(1)}, _pairing_fn(datum, lam))
    return {
        FMonomial.from_factors(datum, w): c for w, c in state.items()
    }


def _pairing_fn(datum, lam):
    if lam is None:
        raise ValueError(
            "word pairings need a numeric highest weight; "
            "generic dimensions come from generic_dims"
        )

    def pairing(idx, offset):
        return datum.pair(idx, lam) - datum.pair_root(idx, offset)

    return pairing


@dataclass(frozen=True)
class GramCell:
    """Pairing matrix of every spanning word against every other at one
    weight-space depth, for a numeric highest weight."""

    lam: object
    beta: tuple
    monomials: tuple
    gram: tuple


def _pair_against(datum, letters, state, pairing):
    for i, l in letters:
        if not state:
            break
        state = _apply_e(datum, i, l, state, pairing)
    return state.get((), 0)


def gram_matrix(datum: OddCartanDatum, lam, beta, caps=None) -> GramCell:
    """Pairings of all spanning words at depth beta.

    Entry [a][b] pairs word a against word b by raising with a's letters
    in order, which realizes the reversed word under the transpose
    anti-involution acting on b.
    """
    pairing = _pairing_fn(datum, lam)
    monomials = enumerate_f_monomials(datum, beta, caps)
    rows = []
    for ma in monomials:
        row = []
        for mb in monomials:
            entry = _pair_against(datum, ma.factors, {mb.factors: Fraction(1)}, pairing)
            row.append(entry)
        rows.append(tuple(row))
    return GramCell(lam, tuple(beta), tuple(monomials), tuple(rows))


def pair_with_cell(datum, lam, beta, combo, caps=None) -> list:
    """Pairing of each spanning word at depth beta against a fixed
    combination of words, given as a mapping from factor tuples (or
    FMonomials) to coefficients."""
    pairing = _pairing_fn(datum, lam)
    monomials = enumerate_f_monomials(datum, beta, caps)
    state0 = {}
    for w, c in combo.items():
        factors = w.factors if isinstance(w, FMonomial) else tuple(w)
        state0[factors] = state0.get(factors, 0) + Fraction(c)
    return [
        _pair_against(datum, ma.factors, dict(state0), pairing) for ma in monomials
    ]


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
    cells = weight_window(datum.rank, height_bound)
    for beta in cells:
        _check_cell(beta, caps)
    dims = _propagate(datum, lam, cells)
    return [dims[beta] for beta in cells]


def _box_dim(datum, lam, beta, caps):
    _check_cell(beta, _resolve_caps(caps))
    box = sorted(product(*(range(b + 1) for b in beta)), key=graded_key)
    return _propagate(datum, lam, box)[beta]


def irreducible_dims(datum: OddCartanDatum, lam: Weight, height_bound: int, caps=None) -> list:
    """dim L(lam) at every cell of weight_window, in window order.

    Every cell is checked against the caps before any work starts.
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

    Every cell is checked against the caps before any work starts.
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


# relation vectors, for kernel checks


def _ad_f(datum, i, combo):
    # ad f x = f x - (-1)^{|f||x|} x f on word combinations
    fi = (i, 1)
    odd_i = datum.is_odd(i)
    out = {}

    def bump(word, c):
        if c:
            total = out.get(word, 0) + c
            if total:
                out[word] = total
            else:
                del out[word]

    for word, c in combo.items():
        bump((fi,) + word, c)
        sign = -1 if odd_i and _word_parity(datum, word) else 1
        bump(word + (fi,), -sign * c)
    return out


def serre_vector(datum: OddCartanDatum, i: int, j: int, l: int) -> dict:
    """The combination (ad f_i)^(1 - l a_ij) applied to f_{jl}, which the
    defining relations kill whenever i is real and differs from (j, l)."""
    if i not in range(datum.rank) or j not in range(datum.rank) or l < 1:
        raise BadGeneratorIndex(f"no generator pair ({i}; {j}, {l})")
    if not datum.is_real(i):
        raise BadGeneratorIndex(f"index {i} must be real")
    if datum.is_real(j) and l != 1:
        raise BadGeneratorIndex(f"real index {j} only carries level 1")
    if (i, 1) == (j, l):
        raise BadGeneratorIndex("relation requires distinct generators")
    combo = {((j, l),): 1}
    for _ in range(1 - l * datum.a[i][j]):
        combo = _ad_f(datum, i, combo)
    return combo


def orthogonality_vector(datum: OddCartanDatum, first, second) -> dict:
    """The supercommutator [f_first, f_second], which the relations kill
    whenever the two indices pair to zero."""
    (i, l), (j, k) = first, second
    for idx, lvl in (first, second):
        if idx not in range(datum.rank) or lvl < 1:
            raise BadGeneratorIndex(f"no generator ({idx}, {lvl})")
        if datum.is_real(idx) and lvl != 1:
            raise BadGeneratorIndex(f"real index {idx} only carries level 1")
    if datum.a[i][j] != 0:
        raise BadGeneratorIndex(f"indices {i}, {j} are not orthogonal")
    sign = -1 if datum.is_odd(i) and datum.is_odd(j) else 1
    combo = {((i, l), (j, k)): 1}
    other = ((j, k), (i, l))
    combo[other] = combo.get(other, 0) - sign
    return {w: c for w, c in combo.items() if c}
