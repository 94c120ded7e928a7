"""Reference computations that the tests compare the package against.

None of this runs on a CLI path; it lives here so that the package
compiles only what its subcommands use.

- The all-word Gram matrix of a Verma module at a numeric highest weight
  (enumerate_f_monomials, lower_with_e, gram_matrix, pair_with_cell): a
  brute-force oracle over every ordered word of lowering generators.
- The relation vectors serre_vector and orthogonality_vector, which the
  defining relations kill.
- one_series, the series 1; binomial_factor, one factor of the
  denominator product expanded alone; and series_product, series_quotient
  and root_product, the truncated product, quotient and denominator
  product on exponent tuples, one term at a time, without the package's
  packed layers.
- casimir_shift, depth_below, is_primitive_candidate and
  s_lambda_series, the ingredients of the character formula taken one at
  a time.
- supports_by_brute_force, the supports and their signs from every level
  vector on the eligible indices, with the signs counted by
  signed_distinct_partition_sum and signed_partition_sum, beside the
  plain counts count_partitions and count_distinct_partitions.
- character_structure_faults, W-invariance and the Verma bounds of a
  character series, necessary conditions that reach past the oracle.
- row_basis_fraction, the elimination that the package's fraction-free
  row_basis replaced, over Fraction, and rank_gauss, the rank of dense
  rows such as a Gram matrix by that elimination.
- unit_root, fundamental_weight, weight_difference, rho and reflect:
  root vectors and weight arithmetic that the package leaves out, since
  its engines read a weight only through its pairings.
- orbit_words and act_on_root: a shortest reflection word for each orbit
  element, found by reflecting lam + rho itself, and its replay on root
  coordinates.
- numerator_by_images, the alternating numerator formed from one orbit
  of lam + rho with every support of supports_by_brute_force moved by w,
  against which the package's one walk per support is checked.
- roots_to_json, series_to_json and character_result_to_json, the
  documents of roots, char and denom-check built as dicts, one key at a
  time, which the CLI's row writer must render alike; roots_to_json sorts
  the table in graded order itself.
"""
from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb

from bbsuper.charformula import enumerate_supports, eligible_indices, numerator_series
from bbsuper.datum import OddCartanDatum, Weight, weight_to_json
from bbsuper.series import CharSeries, graded_key

# the deepest cell whose words enumerate_f_monomials lists by default: the
# all-word Gram matrices grow past thousands of words soon after
MAX_WORD_HEIGHT = 6


class BadGeneratorIndex(ValueError):
    """A generator label (i, l) outside the admissible index set."""


class WordCapExceeded(Exception):
    """A cell deeper than the height cap of enumerate_f_monomials."""


# ---- words and Gram matrices (verma_oracle) ----


class FMonomial(namedtuple("FMonomial", "factors degree parity")):
    """Ordered product of lowering generators, outermost first."""

    __slots__ = ()

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


def enumerate_f_monomials(datum: OddCartanDatum, beta, max_height=MAX_WORD_HEIGHT) -> list:
    """Every ordered word of generators whose degrees sum to beta.

    Order matters and no relations are imposed, so the list spans the
    weight space with repetition of dependent vectors.  Deterministic:
    words are generated with the leading letter ascending.
    """
    beta = tuple(int(b) for b in beta)
    if any(b < 0 for b in beta):
        raise ValueError(f"{beta} is not in the positive cone")
    if sum(beta) > max_height:
        raise WordCapExceeded(f"height {sum(beta)} exceeds cap {max_height}")
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
            "generic dimensions come from irreducible_dims with lam None"
        )

    def pairing(idx, offset):
        return datum.pair(idx, lam) - datum.pair_root(idx, offset)

    return pairing


class GramCell(namedtuple("GramCell", "lam beta monomials gram")):
    """Pairing matrix of every spanning word against every other at one
    weight-space depth, for a numeric highest weight."""

    __slots__ = ()


def _pair_against(datum, letters, state, pairing):
    for i, l in letters:
        if not state:
            break
        state = _apply_e(datum, i, l, state, pairing)
    return state.get((), 0)


def gram_matrix(datum: OddCartanDatum, lam, beta, max_height=MAX_WORD_HEIGHT) -> GramCell:
    """Pairings of all spanning words at depth beta.

    Entry [a][b] pairs word a against word b by raising with a's letters
    in order, which realizes the reversed word under the transpose
    anti-involution acting on b.
    """
    pairing = _pairing_fn(datum, lam)
    monomials = enumerate_f_monomials(datum, beta, max_height)
    rows = []
    for ma in monomials:
        row = []
        for mb in monomials:
            entry = _pair_against(datum, ma.factors, {mb.factors: Fraction(1)}, pairing)
            row.append(entry)
        rows.append(tuple(row))
    return GramCell(lam, tuple(beta), tuple(monomials), tuple(rows))


def pair_with_cell(datum, lam, beta, combo, max_height=MAX_WORD_HEIGHT) -> list:
    """Pairing of each spanning word at depth beta against a fixed
    combination of words, given as a mapping from factor tuples (or
    FMonomials) to coefficients."""
    pairing = _pairing_fn(datum, lam)
    monomials = enumerate_f_monomials(datum, beta, max_height)
    state0 = {}
    for w, c in combo.items():
        factors = w.factors if isinstance(w, FMonomial) else tuple(w)
        state0[factors] = state0.get(factors, 0) + Fraction(c)
    return [
        _pair_against(datum, ma.factors, dict(state0), pairing) for ma in monomials
    ]


# ---- relation vectors (verma_oracle) ----


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


# ---- series (series) ----


def one_series(height_bound, rank) -> CharSeries:
    """The series 1, e^0 alone."""
    return CharSeries(height_bound, rank, {(0,) * rank: 1})


def binomial_factor(beta, mult, sign, exponent_sign, height_bound, rank) -> CharSeries:
    """Expansion of (1 + sign*e^{-beta})^(exponent_sign*mult).

    sign and exponent_sign are +1 or -1; mult is a nonnegative integer.
    Generalized binomial coefficients keep everything in the integers.
    """
    if sign not in (1, -1) or exponent_sign not in (1, -1):
        raise ValueError("sign arguments must be +1 or -1")
    h = sum(beta)
    if h <= 0:
        raise ValueError("factor exponent must have positive height")
    power = exponent_sign * mult
    terms = {}
    k = 0
    while k * h <= height_bound:
        if power >= 0 and k > power:
            break
        if power >= 0:
            c = comb(power, k)
        else:
            c = (-1) ** k * comb(-power + k - 1, k)
        terms[tuple(k * x for x in beta)] = c * sign**k
        k += 1
    return CharSeries(height_bound, rank, terms)


def series_product(a, b, bound) -> dict:
    """Product of two {exponent tuple: coefficient} maps, truncated at
    height bound, zeros dropped."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= bound:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def series_quotient(a, b, bound, rank) -> dict:
    """The map q with series_product(q, b, bound) == a, solved one exponent
    at a time in order of height; the constant term of b is 1 or -1."""
    c0 = b[(0,) * rank]
    q = {}
    window = [e for e in product(range(bound + 1), repeat=rank) if sum(e) <= bound]
    for gamma in sorted(window, key=sum):
        rest = a.get(gamma, 0)
        for delta, c in b.items():
            below = tuple(g - d for g, d in zip(gamma, delta))
            if any(delta) and min(below) >= 0:
                rest -= c * q.get(below, 0)
        q[gamma] = c0 * rest
    return {e: c for e, c in q.items() if c}


def root_product(table, rank, bound) -> dict:
    """Product over the table of (1 - e^{-beta})^m for even roots and
    (1 + e^{-beta})^{-m} for odd ones, one factor at a time."""
    acc = {(0,) * rank: 1}
    for beta, entry in table.entries.items():
        sign = 1 if entry.parity else -1
        factor = binomial_factor(beta, entry.mult, sign, -sign, bound, rank)
        acc = series_product(acc, factor.terms, bound)
    return acc


# ---- formula ingredients (charformula) ----


def s_lambda_series(datum, lam, height_bound) -> CharSeries:
    """The untwisted support sum as a series."""
    return CharSeries(height_bound, datum.rank, enumerate_supports(datum, lam, height_bound))


@cache
def signed_distinct_partition_sum(n, largest=None):
    """Sum of (-1)^(number of parts) over partitions of n into distinct
    parts, expanding prod (1 - q^k) term by term."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    total = 0
    for k in range(1, min(n, largest) + 1):
        total -= signed_distinct_partition_sum(n - k, k - 1)
    return total


@cache
def count_partitions(n, largest=None):
    """The number of partitions of n into parts at most largest."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(count_partitions(n - k, k) for k in range(1, min(n, largest) + 1))


def count_distinct_partitions(n, largest=None):
    """The number of partitions of n into distinct parts at most largest."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(count_distinct_partitions(n - k, k - 1) for k in range(1, min(n, largest) + 1))


def signed_partition_sum(n, largest=None):
    """Sum of (-1)^(number of parts) over all partitions of n, expanding
    prod (1 + q^l)^(-1) term by term."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    total = 0
    for k in range(1, min(n, largest) + 1):
        total -= signed_partition_sum(n - k, k)
    return total


def _level_vectors(count, budget):
    """Every vector of count nonnegative levels with total at most budget."""
    if not count:
        yield ()
        return
    for n in range(budget + 1):
        for rest in _level_vectors(count - 1, budget - n):
            yield (n,) + rest


def supports_by_brute_force(datum, lam, budget) -> dict:
    """{s: sign} over every level vector s on the eligible indices whose
    nonzero levels sit on pairwise orthogonal simple roots and total at
    most the budget.  The sign is the product over the support of -1 at a
    non-isotropic index and the signed count of partitions of the level,
    into distinct parts at an even isotropic index and into any parts at
    an odd one; zero signs are dropped."""
    elig = eligible_indices(datum, lam)
    n = datum.rank
    even = [signed_distinct_partition_sum(level) for level in range(budget + 1)]
    odd = [signed_partition_sum(level) for level in range(budget + 1)]
    clash = {(a, b) for a, b in combinations(elig, 2)
             if datum.root_bilinear(unit_root(n, a), unit_root(n, b))}
    out = {}
    for levels in _level_vectors(len(elig), budget):
        support = [i for i, level in zip(elig, levels) if level]
        if clash.intersection(combinations(support, 2)):
            continue
        sign = 1
        s = [0] * n
        for i, level in zip(elig, levels):
            if level:
                s[i] = level
                if not datum.is_isotropic(i):
                    sign = -sign
                else:
                    sign *= (odd if datum.is_odd(i) else even)[level]
        if sign:
            out[tuple(s)] = sign
    return out


def character_structure_faults(datum, lam, series) -> tuple:
    """(W-pairs compared, faults) of series as the character of L(lam),
    lam dominant integral, under two necessary conditions that cost one
    pass over its terms at any height:

    - W-invariance: at each real index i the coefficient at beta equals
      the one at beta + <h_i, lam - beta> alpha_i, the offset of
      s_i(lam - beta), whenever both lie in the window;
    - bounds: 0 <= coefficient <= the Verma coefficient, that of 1 / N_0.

    Each fault is a line naming its exponent; a character has none."""
    bound, rank = series.height_bound, series.rank
    faults = []
    pairs = 0
    for i in datum.real_indices:
        level = datum.pair(i, lam)
        for beta, coef in series.terms.items():
            shift = level - datum.pair_root(i, beta)
            mirror = beta[:i] + (beta[i] + shift,) + beta[i + 1 :]
            if shift == 0 or mirror[i] < 0 or sum(mirror) > bound:
                continue
            pairs += 1
            if series.coefficient(mirror) != coef:
                faults.append(f"W: {coef} at {beta}, {series.coefficient(mirror)} at {mirror}")
    n0 = numerator_series(datum, datum.zero_weight(), bound)
    verma = one_series(bound, rank).divide(n0)
    for beta, coef in series.terms.items():
        if not 0 <= coef <= verma.coefficient(beta):
            faults.append(f"bounds: {coef} at {beta}, Verma {verma.coefficient(beta)}")
    return pairs, faults


def casimir_shift(datum, i: int, l: int) -> int:
    """Commutation constant (l^2 - l) (alpha_i, alpha_i) of the level-l
    generator against the quadratic Casimir operator."""
    if i not in range(datum.rank):
        raise BadGeneratorIndex(f"index {i} out of range")
    if l < 1:
        raise BadGeneratorIndex(f"level {l} must be positive")
    if datum.is_real(i) and l != 1:
        raise BadGeneratorIndex(f"real index {i} admits only level 1")
    return (l * l - l) * datum.d[i] * datum.a[i][i]


def row_basis_fraction(rows):
    """The first linearly independent rows and the coordinates of every
    row in them, as exactlinalg.row_basis, but by Gauss-Jordan elimination
    over Fraction: coords[r] maps pivot indices to nonzero Fractions whose
    combination of the pivot rows is row r itself."""
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


def rank_gauss(rows) -> int:
    """Rank over the rationals of dense rows (sequences of entries): the
    number of rows that row_basis_fraction keeps."""
    return len(row_basis_fraction([dict(enumerate(r)) for r in rows])[0])


# ---- weight arithmetic (datum) ----


def unit_root(n: int, i: int) -> tuple:
    """The unit vector i of length n, as alpha_i in root coordinates."""
    return tuple(1 if j == i else 0 for j in range(n))


def fundamental_weight(datum, i: int) -> Weight:
    """Lambda_i at the datum's rank."""
    zero = (0,) * datum.rank
    return Weight(unit_root(datum.rank, i), zero, zero)


def weight_difference(lam: Weight, mu: Weight) -> Weight:
    """lam - mu, block by block."""
    blocks = zip(
        (lam.fundamental_part, lam.aux_part, lam.root_part),
        (mu.fundamental_part, mu.aux_part, mu.root_part),
    )
    return Weight(*(tuple(a - b for a, b in zip(x, y)) for x, y in blocks))


def rho(datum) -> Weight:
    """The canonical Weyl vector, a_ii / 2 on each fundamental weight."""
    zero = (0,) * datum.rank
    return Weight(tuple(Fraction(datum.a[i][i], 2) for i in range(datum.rank)), zero, zero)


def reflect(datum, i: int, w: Weight) -> Weight:
    """The simple reflection at a real index i: w - <h_i, w> alpha_i."""
    root = list(w.root_part)
    root[i] -= datum.pair(i, w)
    return Weight(w.fundamental_part, w.aux_part, tuple(root))


def depth_below(lam: Weight, mu: Weight) -> tuple | None:
    """The root vector beta with mu = lam - beta, or None when lam - mu is
    not a nonnegative integer combination of simple roots."""
    diff = weight_difference(lam, mu)
    if any(diff.fundamental_part) or any(diff.aux_part):
        return None
    if any(c.denominator != 1 or c < 0 for c in diff.root_part):
        return None
    return tuple(int(c) for c in diff.root_part)


def orbit_words(datum, lam, height_bound) -> dict:
    """{defect: shortest reflection word} over the orbit of lam + rho below
    the height bound, found by reflecting the weight itself breadth first.
    A word lists reflection indices outermost first, so its rightmost
    letter acts first."""
    start = weight_difference(lam, weight_difference(datum.zero_weight(), rho(datum)))
    words = {(0,) * datum.rank: ()}
    queue = deque([((), start)])
    while queue:
        word, mu = queue.popleft()
        for i in datum.real_indices:
            image = reflect(datum, i, mu)
            defect = depth_below(start, image)
            if sum(defect) <= height_bound and defect not in words:
                words[defect] = (i,) + word
                queue.append(((i,) + word, image))
    return words


def act_on_root(datum, word, beta) -> tuple:
    """w(beta) for the reflection word w, rightmost letter first, through
    reflect on the weight whose root part is beta."""
    zero = (0,) * datum.rank
    mu = Weight(zero, zero, tuple(beta))
    for i in reversed(word):
        mu = reflect(datum, i, mu)
    return mu.root_part


def numerator_by_images(datum, lam, height_bound) -> tuple:
    """(N_lam, number of terms) as the sum over the orbit words w of lam +
    rho and the supports s of sign(w) sign(s) e^{-(defect(w) + w(s))},
    cut at the height bound.  Each w(alpha_i) at an eligible index i is
    replayed from the word and must stay in the positive cone."""
    supports = supports_by_brute_force(datum, lam, height_bound)
    acc = {}
    terms = 0
    for defect, word in orbit_words(datum, lam, height_bound).items():
        images = {}
        for i in eligible_indices(datum, lam):
            images[i] = act_on_root(datum, word, unit_root(datum.rank, i))
            assert min(images[i]) >= 0, f"{word}: w(alpha_{i}) = {images[i]} leaves the cone"
        for s, sign in supports.items():
            exp = list(defect)
            for i, level in enumerate(s):
                if level:
                    exp = [e + level * x for e, x in zip(exp, images[i])]
            if sum(exp) <= height_bound:
                key = tuple(exp)
                acc[key] = acc.get(key, 0) + (-1) ** len(word) * sign
                terms += 1
    return CharSeries(height_bound, datum.rank, acc), terms


def is_primitive_candidate(datum, lam, mu) -> bool:
    """Whether mu could carry a primitive vector: mu equals lam, or the
    difference is the weight of an orthogonal support for lam."""
    coords = depth_below(lam, mu)
    if coords is None:
        return False
    support = [i for i, c in enumerate(coords) if c]
    if not support:
        return True
    elig = set(eligible_indices(datum, lam))
    if not set(support) <= elig:
        return False
    n = datum.rank
    for a in support:
        for b in support:
            if a < b and datum.root_bilinear(unit_root(n, a), unit_root(n, b)) != 0:
                return False
    return True


# ---- documents as dicts (cli) ----


def roots_to_json(table) -> list:
    return [
        {
            "root": list(beta),
            "mult": entry.mult,
            "parity": "odd" if entry.parity else "even",
            "class": "real" if entry.is_real else "imaginary",
        }
        for beta, entry in sorted(table.entries.items(), key=lambda kv: graded_key(kv[0]))
    ]


def series_to_json(series: CharSeries) -> dict:
    return {
        "height_bound": series.height_bound,
        "terms": [{"exp": list(e), "coef": str(c)} for e, c in series.items_sorted()],
    }


def character_result_to_json(result, lam) -> dict:
    return {
        "character": {
            "base": weight_to_json(lam),
            **series_to_json(result.series),
        },
        "diagnostics": {
            "orbit_size": result.orbit_size,
            "support_terms": result.support_terms,
            "residual_terms": result.residual_terms,
        },
    }
