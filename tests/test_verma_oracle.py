"""Gram oracle: spanning words, raising action, ranks, relation kernels."""
import ast
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from bbsuper import exactlinalg, verma_oracle
from bbsuper.charformula import irreducible_character, numerator_series
from bbsuper.datum import OddCartanDatum, Weight, weight_from_json
from bbsuper.roots import denominator_R, solve_multiplicities
from bbsuper.series import graded_key
from bbsuper.verma_oracle import irreducible_dims, weight_window

from reference import (
    BadGeneratorIndex,
    FMonomial,
    WordCapExceeded,
    count_distinct_partitions,
    count_partitions,
    enumerate_f_monomials,
    fundamental_weight,
    gram_matrix,
    lower_with_e,
    one_series,
    orthogonality_vector,
    pair_with_cell,
    rank_gauss,
    rho,
    serre_vector,
    unit_root,
)

WIDE = 12


def sl2():
    return OddCartanDatum([[2]], [1])


def osp12():
    return OddCartanDatum([[2]], [1], odd=[0])


def even_iso():
    return OddCartanDatum([[0]], [1])


def odd_iso():
    return OddCartanDatum([[0]], [1], odd=[0])


def free_imag():
    return OddCartanDatum([[-2]], [1])


# ---- word enumeration ----


def test_enumerate_counts_and_order():
    assert [m.factors for m in enumerate_f_monomials(sl2(), (2,))] == [((0, 1), (0, 1))]
    words = enumerate_f_monomials(even_iso(), (3,))
    assert [m.factors for m in words] == [
        ((0, 1), (0, 1), (0, 1)),
        ((0, 1), (0, 2)),
        ((0, 2), (0, 1)),
        ((0, 3),),
    ]
    mixed = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    assert len(enumerate_f_monomials(mixed, (2, 3))) == 25
    assert enumerate_f_monomials(sl2(), (0,))[0].factors == ()


def test_enumerate_monomial_metadata():
    mixed = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    for m in enumerate_f_monomials(mixed, (1, 3)):
        rebuilt = FMonomial.from_factors(mixed, m.factors)
        assert rebuilt == m
        assert m.degree == (1, 3)
    parities = {m.factors: m.parity for m in enumerate_f_monomials(mixed, (0, 2))}
    # one odd letter keeps the word odd, two keep it even
    assert parities[((1, 2),)] == 1
    assert parities[((1, 1), (1, 1))] == 0


def test_from_factors_guards():
    with pytest.raises(BadGeneratorIndex):
        FMonomial.from_factors(sl2(), [(0, 2)])
    with pytest.raises(BadGeneratorIndex):
        FMonomial.from_factors(sl2(), [(1, 1)])
    with pytest.raises(BadGeneratorIndex):
        FMonomial.from_factors(sl2(), [(0, 0)])


def test_enumerate_caps():
    with pytest.raises(WordCapExceeded):
        enumerate_f_monomials(sl2(), (7,))
    assert len(enumerate_f_monomials(sl2(), (7,), WIDE)) == 1
    with pytest.raises(WordCapExceeded):
        enumerate_f_monomials(sl2(), (7,), 6)
    with pytest.raises(ValueError):
        enumerate_f_monomials(sl2(), (-1,))


# ---- raising action ----


def test_lower_with_e_sl2():
    d = sl2()
    lam = Weight((2,), (0,), (0,))
    one = FMonomial.from_factors(d, [(0, 1)])
    out = lower_with_e(d, 0, 1, one, lam)
    assert out == {FMonomial.from_factors(d, []): Fraction(2)}
    two = FMonomial.from_factors(d, [(0, 1), (0, 1)])
    out = lower_with_e(d, 0, 1, two, lam)
    assert out == {one: Fraction(2)}


def test_lower_with_e_level_mismatch_vanishes():
    d = even_iso()
    word = FMonomial.from_factors(d, [(0, 2)])
    assert lower_with_e(d, 0, 1, word, fundamental_weight(d, 0)) == {}


def test_lower_with_e_odd_sign():
    # e f f v on the odd real index: the second position crosses one odd
    # letter, so its term enters with a minus sign
    d = osp12()
    lam = Weight((2,), (0,), (0,))
    two = FMonomial.from_factors(d, [(0, 1), (0, 1)])
    out = lower_with_e(d, 0, 1, two, lam)
    assert out == {FMonomial.from_factors(d, [(0, 1)]): Fraction(-2)}


# ---- frozen Gram cells ----


def test_gram_osp12_cells():
    d = osp12()
    lam = Weight((2,), (0,), (0,))
    assert gram_matrix(d, lam, (1,)).gram == ((Fraction(2),),)
    assert gram_matrix(d, lam, (2,)).gram == ((Fraction(-4),),)
    assert gram_matrix(d, lam, (3,)).gram == ((Fraction(0),),)


def test_gram_sl2_singular_vector():
    d = sl2()
    lam = Weight((2,), (0,), (0,))
    assert gram_matrix(d, lam, (3,)).gram == ((Fraction(0),),)


def test_gram_odd_iso_level_blocks():
    d = odd_iso()
    lam = fundamental_weight(d, 0)
    cell = gram_matrix(d, lam, (2,))
    assert cell.gram == (
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2)),
    )


def test_gram_generic_weight_rejected():
    # generic dimensions come from propagation, not from word pairings
    d = sl2()
    with pytest.raises(ValueError, match="lam None"):
        gram_matrix(d, None, (2,))
    with pytest.raises(ValueError, match="lam None"):
        pair_with_cell(d, None, (1,), {((0, 1),): 1})
    with pytest.raises(ValueError, match="lam None"):
        lower_with_e(d, 0, 1, ((0, 1),), None)


def test_gram_even_symmetric():
    d = OddCartanDatum([[2, -1], [-1, 2]], [1, 1])
    lam = Weight((1, 1), (0, 0), (0, 0))
    cell = gram_matrix(d, lam, (1, 1))
    assert len(cell.monomials) == 2
    assert cell.gram[0][1] == cell.gram[1][0]


# ---- dimensions ----


def values(dims):
    return list(dims.values())


def test_irreducible_dims_rank_one_families():
    d = sl2()
    lam = Weight((2,), (0,), (0,))
    assert values(irreducible_dims(d, lam, 4)) == [1, 1, 1, 0, 0]
    o = osp12()
    lam = Weight((2,), (0,), (0,))
    assert values(irreducible_dims(o, lam, 3)) == [1, 1, 1, 0]


def test_irreducible_dim_degenerate_offsets():
    # the height-0 window is the highest weight alone; the trivial module
    # is zero below it
    d = sl2()
    assert irreducible_dims(d, fundamental_weight(d, 0), 0) == {(0,): 1}
    assert irreducible_dims(d, d.zero_weight(), 3) == {(0,): 1, (1,): 0, (2,): 0, (3,): 0}


def test_dims_are_keyed_by_offset_in_window_order():
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    assert list(irreducible_dims(d, fundamental_weight(d, 0), 4)) == weight_window(2, 4)
    assert list(irreducible_dims(d, None, 4)) == weight_window(2, 4)


def test_even_iso_dims_are_partitions():
    d = even_iso()
    dims = irreducible_dims(d, fundamental_weight(d, 0), 6)
    assert values(dims) == [count_partitions(n) for n in range(7)]


def test_odd_iso_dims():
    d = odd_iso()
    assert values(irreducible_dims(d, d.zero_weight(), 6)) == [1] + [0] * 6
    dims = irreducible_dims(d, fundamental_weight(d, 0), 6)
    assert values(dims) == [count_distinct_partitions(n) for n in range(7)]


def test_irreducible_dims_deep_windows():
    # deep enough that the all-word Gram matrices would hold thousands of words
    d = even_iso()
    lam = fundamental_weight(d, 0)
    assert values(irreducible_dims(d, lam, 12)) == [count_partitions(n) for n in range(13)]
    o = odd_iso()
    lam = fundamental_weight(o, 0)
    assert values(irreducible_dims(o, lam, 12)) == [
        count_distinct_partitions(n) for n in range(13)
    ]


def test_irreducible_dims_agree_with_single_cells():
    # each cell against the rank of its own all-word Gram matrix
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    lam = Weight((1, 1), (0, 0), (0, 0))
    assert irreducible_dims(d, lam, 4) == {
        beta: rank_gauss(gram_matrix(d, lam, beta).gram) for beta in weight_window(d.rank, 4)
    }


R2 = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
R3 = OddCartanDatum([[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], [1, 1, 1], odd=[1])


@pytest.mark.parametrize("datum, height", [(R2, 5), (R3, 3)], ids=["r2", "r3"])
@pytest.mark.parametrize(
    "doc",
    [
        {"Lambda": {"1": "1", "2": "1/2"}},
        {"Lambda": {"1": "2", "2": "-1/3"}, "alpha": {"1": "1/2"}},
        # not dominant: a negative pairing at the real index
        {"Lambda": {"1": "-1", "2": "-1/3"}},
    ],
    ids=["half", "minus-third", "non-dominant"],
)
def test_rational_weights_match_gram_rank(datum, height, doc):
    # fractional pairings <h_i, lam> enter the integer rows through their
    # denominators, which no integral weight exercises
    lam = weight_from_json(datum, doc)
    dims = irreducible_dims(datum, lam, height)
    assert dims == {beta: rank_gauss(gram_matrix(datum, lam, beta).gram) for beta in dims}


def test_irreducible_dims_match_formula_rank3_deep():
    # every cell of a rank-3 window two levels deeper than the property tests,
    # where the e-image rows are a few percent nonzero
    d = OddCartanDatum([[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], [1, 1, 1], odd=[1])
    lam = fundamental_weight(d, 0)
    window = weight_window(d.rank, 7)
    assert len(window) == 120
    character = irreducible_character(d, lam, 7).series
    assert irreducible_dims(d, lam, 7) == {beta: character.coefficient(beta) for beta in window}


R4 = OddCartanDatum(
    [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], [1, 1, 1, 1], odd=[2]
)


@pytest.mark.parametrize(
    "datum, lam, height, cells",
    [(R4, Weight((1, 1, 0, 0), (0,) * 4, (0,) * 4), 8, 495), (R3, None, 7, 120)],
    ids=["numeric-r4-h8", "generic-r3-h7"],
)
def test_oracle_matches_formula_at_depth(datum, lam, height, cells):
    # every cell at the depths the oracle's elimination is timed at: the
    # irreducible character for a numeric weight, the inverted N_0 for the
    # generic one
    if lam is None:
        n0 = numerator_series(datum, datum.zero_weight(), height)
        series = one_series(height, datum.rank).divide(n0)
    else:
        series = irreducible_character(datum, lam, height).series
    window = weight_window(datum.rank, height)
    assert len(window) == cells
    assert irreducible_dims(datum, lam, height) == {
        beta: series.coefficient(beta) for beta in window
    }


def test_irreducible_dims_caps():
    # the engine takes any height; the CLI holds the cap
    d = sl2()
    lam = fundamental_weight(d, 0)
    assert values(irreducible_dims(d, lam, 7)) == [1, 1] + [0] * 6


def test_generic_dims_free_case():
    d = free_imag()
    assert values(irreducible_dims(d, None, 5)) == [1, 1, 2, 4, 8, 16]
    assert values(irreducible_dims(d, None, 9)) == [1] + [2 ** (n - 1) for n in range(1, 10)]


def test_generic_matches_pbw_series():
    # the generic dimensions must reproduce the inverted denominator, which
    # ties the product R of the solved table to the defining relations; a
    # table with the other parity split at an odd imaginary index gives the
    # same R, so the table itself is not tied
    for a, dd, odd in [
        ([[-2]], [1], []),
        ([[0]], [1], [0]),
        ([[2, -1], [-1, 0]], [1, 1], [1]),
    ]:
        d = OddCartanDatum(a, dd, odd=odd)
        table = solve_multiplicities(d, numerator_series(d, d.zero_weight(), 4))
        verma = one_series(4, d.rank).divide(denominator_R(d, table))
        for beta, dim in irreducible_dims(d, None, 4).items():
            assert dim == verma.coefficient(beta), (a, odd, beta)


# ---- relation vectors in the kernel ----


def test_serre_vector_a2_shape():
    d = OddCartanDatum([[2, -1], [-1, 2]], [1, 1])
    combo = serre_vector(d, 0, 1, 1)
    f, g = (0, 1), (1, 1)
    assert combo == {(f, f, g): 1, (f, g, f): -2, (g, f, f): 1}


def test_serre_vector_guards():
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    with pytest.raises(BadGeneratorIndex):
        serre_vector(d, 1, 0, 1)
    with pytest.raises(BadGeneratorIndex):
        serre_vector(d, 0, 0, 1)
    with pytest.raises(BadGeneratorIndex):
        serre_vector(d, 0, 0, 2)


def test_serre_vectors_lie_in_kernel():
    cases = [
        ([[2, -1], [-1, 2]], [1, 1], [], 0, 1, 1),
        ([[2, -1], [-1, 2]], [1, 1], [], 1, 0, 1),
        ([[2, -1], [-1, 0]], [1, 1], [1], 0, 1, 1),
        ([[2, -2], [-1, 0]], [1, 2], [0], 0, 1, 1),
        ([[2, -1], [-1, -2]], [1, 1], [], 0, 1, 2),
    ]
    for a, dd, odd, i, j, l in cases:
        d = OddCartanDatum(a, dd, odd=odd)
        combo = serre_vector(d, i, j, l)
        beta = [0] * d.rank
        for idx, lvl in next(iter(combo)):
            beta[idx] += lvl
        for lam in (d.zero_weight(), fundamental_weight(d, 0), rho(d)):
            values = pair_with_cell(d, lam, tuple(beta), combo)
            assert all(v == 0 for v in values), (a, odd, i, j, l)


def test_orthogonality_vectors_lie_in_kernel():
    pairs = OddCartanDatum([[0, 0], [0, 0]], [1, 1], odd=[1])
    combo = orthogonality_vector(pairs, (0, 1), (1, 2))
    assert combo == {((0, 1), (1, 2)): 1, ((1, 2), (0, 1)): -1}
    both_odd = OddCartanDatum([[0, 0], [0, 0]], [1, 1], odd=[0, 1])
    anti = orthogonality_vector(both_odd, (0, 1), (1, 1))
    assert anti == {((0, 1), (1, 1)): 1, ((1, 1), (0, 1)): 1}
    for d, combo, beta in [
        (pairs, combo, (1, 2)),
        (both_odd, anti, (1, 1)),
    ]:
        for lam in (d.zero_weight(), rho(d), fundamental_weight(d, 1)):
            values = pair_with_cell(d, lam, beta, combo)
            assert all(v == 0 for v in values)


def test_orthogonality_vector_guards():
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    with pytest.raises(BadGeneratorIndex):
        orthogonality_vector(d, (0, 1), (1, 1))


# ---- misc ----


def package_imports(module):
    """Modules of the package that a source file imports, by their names
    inside the package."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add(node.module or "")
            elif node.module and node.module.split(".")[0] == "bbsuper":
                found.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            found.update(
                a.name.partition(".")[2] for a in node.names if a.name.split(".")[0] == "bbsuper"
            )
    return found


def test_oracle_reads_no_formula_or_root_table():
    # compare means something only while the oracle is built from the
    # defining relations alone
    assert package_imports(verma_oracle) <= {"datum", "exactlinalg"}
    assert package_imports(exactlinalg) == set()


def test_weight_window_order():
    assert weight_window(2, 2) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    assert weight_window(1, 3) == [(0,), (1,), (2,), (3,)]
    for rank in (3, 4):
        for bound in range(6):
            cone = (b for b in product(range(bound + 1), repeat=rank) if sum(b) <= bound)
            assert weight_window(rank, bound) == sorted(cone, key=graded_key)
    # no recursion per index: height 1 at rank 1100 is the origin, then
    # the unit roots in lex order
    window = weight_window(1100, 1)
    assert window == [(0,) * 1100] + [unit_root(1100, i) for i in reversed(range(1100))]
