"""Randomized agreement of the series kernel's product, quotient and
one-pass denominator with term-by-term references on exponent tuples
(rank at most 4, height at most 6), of the kernel's log-derivative with
its inverse, of the log-derivative solver with
the denominator it inverts, of the log-derivative solver and the
character quotient with the naive root-by-root product over small valid
data (rank at most 3, height at most 6), of the propagated oracle with
the all-word Gram rank and the formula on small windows (about half of
the data with an infinite real Weyl group), and of the
generic (Verma) dimensions with the inverted denominator, and of the
root table, the character and both oracle modes with themselves under a
relabelling of the simple indices, of the CLI's JSON documents with
json.dumps of the reference dict builders, and of the table
format of roots, char and denom-check with the rows of their JSON
documents."""
import json
import re
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbsuper import charformula, roots
from bbsuper.charformula import CharacterResult, irreducible_character, numerator_series
from bbsuper.cli import _COMMANDS, _format
from bbsuper.datum import OddCartanDatum, Weight, graded_key
from bbsuper.roots import RootEntry, RootTable, denominator_R, solve_multiplicities
from bbsuper.series import CharSeries
from bbsuper.verma_oracle import irreducible_dims

from reference import (
    character_result_to_json,
    character_structure_faults,
    gram_matrix,
    rank_gauss,
    root_product,
    roots_to_json,
    series_product,
    series_quotient,
)

# Fixed examples keep the suite reproducible and within a few seconds.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def datums(draw, max_rank=3, block=((), ())):
    """Symmetrizable data with valid diagonals and odd real rows even.  A
    given block (A, D) of even indices takes the first rows; the rest are
    drawn."""
    fixed_a, fixed_d = block
    k = len(fixed_d)
    rank = draw(st.integers(max(k, 1), max_rank))
    diag = [fixed_a[i][i] for i in range(k)]
    diag += [draw(st.sampled_from([2, 0, -2, -4])) for _ in range(k, rank)]
    d = list(fixed_d) + [draw(st.sampled_from([1, 2])) for _ in range(k, rank)]
    odd = [i for i in range(k, rank) if draw(st.booleans())]
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = diag[i]
        for j in range(i):
            if i < k:
                a[i][j], a[j][i] = fixed_a[i][j], fixed_a[j][i]
                continue
            step = lcm(d[i], d[j])
            if (i in odd and diag[i] == 2) or (j in odd and diag[j] == 2):
                step *= 2
            s = -draw(st.integers(0, 2)) * step
            a[i][j] = s // d[i]
            a[j][i] = s // d[j]
    return OddCartanDatum(a, d, odd=odd)


# Real blocks (A, D) whose Weyl group is infinite: the affine A2^(1) cycle
# of the acceptance datum aff, and real pairs with a_ij a_ji = 4 (affine
# A1^(1) and A2^(2)), 8 and 9.
INFINITE_W_BLOCKS = [
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [1, 1, 1]),
    ([[2, -2], [-2, 2]], [1, 1]),
    ([[2, -1], [-4, 2]], [4, 1]),
    ([[2, -2], [-4, 2]], [2, 1]),
    ([[2, -3], [-3, 2]], [1, 1]),
]


def infinite_weyl_datums():
    """Data of rank at most 4 whose real Weyl group is infinite: one of
    INFINITE_W_BLOCKS, then indices drawn as datums draws them."""
    return st.sampled_from(INFINITE_W_BLOCKS).flatmap(lambda block: datums(4, block))


def dominant(datum, levels):
    levels = [
        2 * c if datum.is_real(i) and datum.is_odd(i) else c
        for i, c in enumerate(levels[: datum.rank])
    ]
    zero = (0,) * datum.rank
    return Weight(levels, zero, zero)


@st.composite
def exponents(draw, rank, bound):
    """Exponents of height at most bound.  The first coordinate drawn takes
    all of the bound about once in bound + 1 draws: the carry boundary of
    the kernel's packed keys."""
    exp = [0] * rank
    room = bound
    for i in draw(st.permutations(range(rank))):
        exp[i] = draw(st.integers(0, room))
        room -= exp[i]
    return tuple(exp)


@st.composite
def root_tables(draw):
    """(rank, table): arbitrary tables, not necessarily of any datum, with
    rows and parities free."""
    rank = draw(st.integers(1, 4))
    bound = draw(st.integers(0, 6))
    exps = exponents(rank, bound).filter(any)
    rows = draw(st.dictionaries(exps, st.tuples(st.integers(1, 3), st.integers(0, 1)), max_size=6))
    entries = {e: RootEntry(m, p, False) for e, (m, p) in rows.items()}
    return rank, RootTable(bound, entries)


@st.composite
def datum_root_tables(draw):
    """(datum, table): 1 to 6 cone vectors up to height 6 with
    multiplicities 1 to 3, parity and class taken from the datum as the
    solver takes them (real: multiplicity one and a positive norm); an odd
    root beta may also get a root at 2 beta."""
    datum = draw(datums())
    vectors = exponents(datum.rank, 6).filter(any)
    betas = draw(st.lists(vectors, min_size=1, max_size=6, unique=True))
    doubles = [tuple(2 * x for x in b) for b in betas if datum.parity_of(b) and sum(b) <= 3]
    betas += [d for d in doubles if d not in betas and draw(st.booleans())]
    mults = {b: draw(st.integers(1, 3)) for b in betas}
    entries = {
        b: RootEntry(m, datum.parity_of(b), m == 1 and datum.root_bilinear(b, b) > 0)
        for b, m in mults.items()
    }
    return datum, RootTable(6, entries)


@st.composite
def series_pairs(draw):
    """(bound, rank, a, b): two term maps with negative and zero
    coefficients; b has constant term 1 or -1, so a can be divided by it."""
    rank = draw(st.integers(1, 4))
    bound = draw(st.integers(0, 6))
    terms = st.dictionaries(exponents(rank, bound), st.integers(-3, 3), max_size=8)
    a, b = draw(terms), draw(terms)
    b[(0,) * rank] = draw(st.sampled_from([1, -1]))
    return bound, rank, a, b


@PROPERTY
@given(series_pairs())
@example((3, 2, {(3, 0): 2, (2, 0): -1, (0, 2): 0}, {(0, 0): -1, (1, 0): 3, (0, 3): 1}))
def test_mul_and_divide_match_tuple_reference(case):
    bound, rank, a, b = case
    x, y = CharSeries(bound, rank, a), CharSeries(bound, rank, b)
    assert x.mul(y).terms == series_product(x.terms, y.terms, bound)
    assert x.divide(y).terms == series_quotient(x.terms, y.terms, bound, rank)
    # from_log_derivative inverts L = D(n)/n on n = +-y, whose constant
    # term is 1
    n = CharSeries(bound, rank, {e: b[(0,) * rank] * c for e, c in b.items()})
    log = dict(n.derivative().divide(n).terms)
    assert CharSeries.from_log_derivative(CharSeries(bound, rank, log)) == n
    # 1 more in L at a height-2 exponent leaves an odd 2 R there
    if bound >= 2:
        e = (2,) + (0,) * (rank - 1)
        log[e] = log.get(e, 0) + 1
        message = f"/2 at {re.escape(str(e))} is not an integer"
        with pytest.raises(ValueError, match=message):
            CharSeries.from_log_derivative(CharSeries(bound, rank, log))


@PROPERTY
@given(datums(), st.integers(1, 6))
def test_solved_table_multiplies_out_to_numerator(datum, bound):
    table = solve_multiplicities(datum, bound)
    numerator = numerator_series(datum, datum.zero_weight(), bound)
    assert root_product(table, datum.rank, bound) == numerator.terms


@PROPERTY
@given(root_tables())
def test_denominator_matches_naive_product(rank_and_table):
    # the datum only supplies the rank and the zero weight
    n, table = rank_and_table
    d = OddCartanDatum([[2 if i == j else 0 for j in range(n)] for i in range(n)], [1] * n)
    bound = table.height_bound
    assert denominator_R(d, table, bound).terms == root_product(table, n, bound)


@PROPERTY
@given(datum_root_tables())
# an odd root of multiplicity 2 at beta leaves L = 0 at 2 beta, where the
# even root of multiplicity 1 must still be found
@example((
    OddCartanDatum([[0]], [1], odd=[0]),
    RootTable(6, {(1,): RootEntry(2, 1, False), (2,): RootEntry(1, 0, False)}),
))
def test_solver_inverts_denominator(case):
    # solve_multiplicities peels L = D(N)/N of N = denominator_R(table)
    # back into the table
    datum, table = case
    product = denominator_R(datum, table, table.height_bound)
    assert solve_multiplicities(datum, table.height_bound, product).entries == table.entries


@PROPERTY
@given(datums(), st.integers(1, 6), st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_character_quotient_has_no_residual(datum, bound, levels):
    lam = dominant(datum, levels)
    result = irreducible_character(datum, lam, bound)
    assert result.residual_terms == 0
    table = solve_multiplicities(datum, bound)
    numerator = numerator_series(datum, lam, bound)
    assert result.series.mul(denominator_R(datum, table, bound)).terms == numerator.terms


@PROPERTY
@given(datums(), st.integers(1, 4))
def test_solve_truncation_coherent(datum, bound):
    deep = solve_multiplicities(datum, bound + 2).entries
    shallow = solve_multiplicities(datum, bound).entries
    assert {b: e for b, e in deep.items() if sum(b) <= bound} == shallow


# Window height by rank: the all-word Gram reference grows fast with it,
# and the generic properties below use the same windows.
ORACLE_HEIGHT = {1: 5, 2: 4, 3: 3}
# The deeper windows where the oracle meets the formula alone; rank 4 at
# height 5 takes up to about 0.15 s an example, most of it the oracle.
FORMULA_HEIGHT = {1: 8, 2: 6, 3: 5, 4: 5}


@PROPERTY
@given(
    datums(max_rank=4) | infinite_weyl_datums(),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
def test_oracle_matches_gram_rank_and_formula(datum, levels):
    lam = dominant(datum, levels)
    bound = FORMULA_HEIGHT[datum.rank]
    dims = irreducible_dims(datum, lam, bound)
    character = irreducible_character(datum, lam, bound).series
    for beta, dim in dims.items():
        assert dim == character.coefficient(beta), beta
        # rank 4 has no Gram window
        if sum(beta) <= ORACLE_HEIGHT.get(datum.rank, -1):
            assert dim == rank_gauss(gram_matrix(datum, lam, beta).gram), beta


@settings(PROPERTY, max_examples=25)
@given(
    datums(max_rank=4) | infinite_weyl_datums(),
    st.integers(10, 16),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
def test_character_structure_past_the_oracle(datum, bound, levels):
    # heights the oracle does not reach; lam moves at a real index, so
    # some W-pair is compared
    lam = dominant(datum, levels)
    assume(any(datum.pair(i, lam) for i in datum.real_indices))
    series = irreducible_character(datum, lam, bound).series
    pairs, faults = character_structure_faults(datum, lam, series)
    assert pairs and not faults, faults[:5]


@PROPERTY
@given(datums())
def test_generic_dims_match_inverted_denominator(datum):
    # the oracle reads no table; the reference here is the formula side
    bound = ORACLE_HEIGHT[datum.rank]
    denominator = denominator_R(datum, solve_multiplicities(datum, bound), bound)
    verma = CharSeries.one(bound, datum.rank).divide(denominator)
    dims = irreducible_dims(datum, None, bound)
    assert dims == {beta: verma.coefficient(beta) for beta in dims}


@PROPERTY
@given(datums(), st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_generic_dims_bound_irreducible_dims(datum, levels):
    bound = ORACLE_HEIGHT[datum.rank]
    generic = irreducible_dims(datum, None, bound)
    irreducible = irreducible_dims(datum, dominant(datum, levels), bound)
    for beta, d in irreducible.items():
        assert generic[beta] >= d, beta


def json_text(doc, columns, rows):
    return _format(doc, "json", columns, rows)


def canonical(reference):
    return json.dumps(reference, indent=2, sort_keys=True)


@PROPERTY
@given(datums(), st.integers(0, 6), st.lists(st.integers(0, 2), min_size=3, max_size=3))
# height 0: no root, an empty list
@example(OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1]), 0, [1, 0, 0])
def test_flat_writers_match_render(datum, bound, levels):
    # roots, denom-check and char write root rows and series terms through
    # one template per list: each document must be what json.dumps makes
    # of the dicts that the references build one key at a time
    def document(command, lam=None):
        return json_text(*_COMMANDS[command][0](datum, lam, bound))

    table = solve_multiplicities(datum, bound)
    assert document("roots") == canonical(roots_to_json(table))
    zero = datum.zero_weight()
    residual = denominator_R(datum, table, bound) - numerator_series(datum, zero, bound)
    assert document("denom-check") == canonical({
        "height": bound,
        "residual_terms": len(residual.terms),
        "ok": not residual.terms,
        "roots": roots_to_json(table),
    })
    lam = dominant(datum, levels)
    result = irreducible_character(datum, lam, bound)
    assert document("char", lam) == canonical(character_result_to_json(result))


def drawn_values(data, rank, bound):
    """A series, a root table and oracle dimensions of the given rank and
    bound, with negative and many-digit coefficients, multiplicities and
    dimensions, and maybe empty; the dimensions agree with the series on
    its own terms."""
    values = st.integers(-10**30, 10**30)
    terms = data.draw(st.dictionaries(exponents(rank, bound), values, max_size=8))
    rows = data.draw(st.dictionaries(
        exponents(rank, bound).filter(any),
        st.tuples(st.integers(1, 10**30), st.integers(0, 1), st.booleans()),
        max_size=8,
    )) if bound else {}
    # the solver fills a table in graded order, which the writer keeps
    table = RootTable(bound, {e: RootEntry(*rows[e]) for e in sorted(rows, key=graded_key)})
    series = CharSeries(bound, rank, terms)
    dims = {**series.terms, **data.draw(st.dictionaries(exponents(rank, bound), values,
                                                        max_size=4))}
    return series, table, dims


def drawn_documents(datum, bound, series, table, dims, residual):
    """{command: (doc, columns, rows)} of char, roots, denom-check and
    compare, their engines patched to return the drawn values."""
    zero = datum.zero_weight()
    result = CharacterResult(series, zero, 1, 1, residual)
    with patch.object(charformula, "irreducible_character", lambda *args: result), \
            patch.object(roots, "solve_multiplicities", lambda *args: table), \
            patch.object(roots, "denominator_residual_terms", lambda *args: residual), \
            patch("bbsuper.verma_oracle.irreducible_dims", lambda *args: dims):
        return {command: _COMMANDS[command][0](datum, zero, bound)
                for command in ("char", "roots", "denom-check", "compare")}


@PROPERTY
@given(st.integers(1, 4), st.integers(0, 6), st.data())
def test_flat_writers_match_render_on_drawn_values(rank, bound, data):
    # negative and many-digit coefficients and multiplicities, and an
    # empty series
    series, table, dims = drawn_values(data, rank, bound)
    datum = OddCartanDatum([[2 * (i == j) for j in range(rank)] for i in range(rank)], [1] * rank)
    docs = drawn_documents(datum, bound, series, table, dims, 0)
    result = CharacterResult(series, datum.zero_weight(), 1, 1, 0)
    assert json_text(*docs["char"]) == canonical(character_result_to_json(result))
    assert json_text(*docs["roots"]) == canonical(roots_to_json(table))
    # compare's differences hold the vector between two other cells
    differences = [{"mu_offset": list(beta), "formula": series.coefficient(beta), "oracle": dim}
                   for beta, dim in dims.items() if series.coefficient(beta) != dim]
    assert json_text(*docs["compare"]) == canonical({
        "height": bound, "cells": len(dims), "matches": not differences,
        "differences": differences,
    })


def table_cells(text):
    """The header and the body cells of a --format table, each line cut
    at the columns of its rule line."""
    header, rule, *body = text.split("\n")
    starts = [m.start() for m in re.finditer("-+", rule)]
    ends = starts[1:] + [None]
    return header.split(), [[line[a:b].rstrip() for a, b in zip(starts, ends)] for line in body]


# where each document holds its rows
ROWS_AT = {"roots": (), "denom-check": ("roots",), "char": ("character", "terms"),
           "compare": ("differences",)}


def assert_table_holds_json_rows(command, doc, columns, rows):
    header, body = table_cells(_format(doc, "table", columns, rows))
    listed = json.loads(json_text(doc, columns, rows))
    for key in ROWS_AT[command]:
        listed = listed[key]
    assert header == list(columns)
    assert body == [[c if isinstance(c, str) else json.dumps(c) for c in map(row.get, header)]
                    for row in listed], command


@PROPERTY
@given(datums(), st.integers(0, 6), st.lists(st.integers(0, 2), min_size=3, max_size=3),
       st.data())
@example(OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1]), 0, [1, 0, 0], None)
def test_table_holds_the_json_rows(datum, bound, levels, data):
    # both formats of roots, denom-check and char read one row list: the
    # table's body shows the JSON document's rows, in order, cell for cell,
    # on real data and on drawn values with negative and 30-digit ones
    lam = dominant(datum, levels)
    for command in ("roots", "denom-check", "char"):
        assert_table_holds_json_rows(command, *_COMMANDS[command][0](datum, lam, bound))
    if data is not None:
        series, table, dims = drawn_values(data, datum.rank, bound)
        for command, document in drawn_documents(datum, bound, series, table, dims, 1).items():
            assert_table_holds_json_rows(command, *document)


def relabel(datum, lam, perm):
    """The datum and highest weight with position k holding original index
    perm[k], as the benchmark relabels its inputs."""
    a = [[datum.a[i][j] for j in perm] for i in perm]
    d = [datum.d[i] for i in perm]
    odd = [k for k, i in enumerate(perm) if i in datum.odd]
    zero = (0,) * datum.rank
    return OddCartanDatum(a, d, odd=odd), Weight([lam.fundamental_part[i] for i in perm], zero, zero)


def unrelabel(perm, keyed):
    """A mapping keyed by relabelled root vectors, keyed by the original ones."""
    out = {}
    for beta, value in keyed.items():
        back = [0] * len(perm)
        for k, x in enumerate(beta):
            back[perm[k]] = x
        out[tuple(back)] = value
    return out


@PROPERTY
@given(datums(), st.data())
def test_relabelling_maps_back(datum, data):
    # the orbit walk, the solver and the oracle's pivot order all run in
    # index order, which the fixed examples never permute
    perm = data.draw(st.permutations(range(datum.rank)))
    lam = dominant(datum, data.draw(st.lists(st.integers(0, 2), min_size=3, max_size=3)))
    bound = ORACLE_HEIGHT[datum.rank] + 1
    other, other_lam = relabel(datum, lam, perm)
    assert unrelabel(perm, solve_multiplicities(other, bound).entries) == (
        solve_multiplicities(datum, bound).entries
    )
    assert unrelabel(perm, irreducible_character(other, other_lam, bound).series.terms) == (
        irreducible_character(datum, lam, bound).series.terms
    )
    assert unrelabel(perm, irreducible_dims(other, other_lam, bound)) == (
        irreducible_dims(datum, lam, bound)
    )
    assert unrelabel(perm, irreducible_dims(other, None, bound)) == (
        irreducible_dims(datum, None, bound)
    )
