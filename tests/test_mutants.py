"""Faults planted in one engine function, and the checks that must see
them: the residual of `char` and the `ok` of `denom-check`, which decide
by graded evaluation and so share no pair loop with the division they
check; `denom-check`'s `ok` again for a solver that peels only the first
term of each root, since it sums the table's L apart from the solver;
and `compare`'s exit 2 for an orbit cut at 8 elements, for a wrong sign
at an odd isotropic level, for a support enumeration that stops at the
first zero level, for an oracle that commutes odd generators as even
ones and for an elimination step of the oracle that adds where it should
subtract, which the oracle sees, or makes, apart from the formula.  The
equal-height pair skip, which the exact residual cannot see, also fails
`compare`, the structure checks and the solver's integrality check.
Also that those checks form no full product on their success path, and
that a failing check still counts the exact residual."""
import json
from collections import defaultdict

import pytest

import bbsuper.charformula as charformula
import bbsuper.exactlinalg as exactlinalg
import bbsuper.roots as roots
import bbsuper.series as series
import bbsuper.verma_oracle as verma_oracle
from bbsuper.charformula import irreducible_character, numerator_series
from bbsuper.cli import main
from bbsuper.datum import OddCartanDatum, datum_from_json, weight_from_json
from bbsuper.roots import (
    RootEntry,
    RootTable,
    denominator_R,
    denominator_residual_terms,
    solve_multiplicities,
)
from bbsuper.series import CharSeries, product_holds
from reference import character_structure_faults

R4 = {"A": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], "odd": [3]}
R4_LAMBDA = {"Lambda": {"1": "1", "2": "1"}}
R3 = {"A": [[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], "odd": [2]}
R2 = {"A": [[2, -1], [-1, 0]], "odd": [2]}
LAMBDA_1 = {"Lambda": {"1": "1"}}
# real block affine A2^(1): an infinite Weyl group
AFF = {"A": [[2, -1, -1, -1], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, -2]]}
# the first prime of the graded evaluation
P = 2**61 - 1


def write_pair(tmp_path, name, datum, lam):
    """Paths of the datum and weight files, as --datum and --lambda read them."""
    paths = tmp_path / f"{name}.json", tmp_path / f"{name}-lambda.json"
    paths[0].write_text(json.dumps(datum))
    paths[1].write_text(json.dumps(lam))
    return tuple(map(str, paths))


@pytest.fixture
def r4_files(tmp_path):
    return write_pair(tmp_path, "r4", R4, R4_LAMBDA)


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out or "null")


def skip_equal_heights(a, b, h):
    """_layer_convolution without the pairs whose two factors have one
    positive height: a fault that divide and mul make alike, so the
    product of a wrong quotient still gives the numerator back."""
    layer = defaultdict(int)
    for k in range(h + 1):
        if k and 2 * k == h:
            continue
        for ea, ca in a.get(k, {}).items():
            for eb, cb in b.get(h - k, {}).items():
                layer[ea + eb] += ca * cb
    return layer


def test_equal_height_mutant_shows_in_the_residual(capsys, monkeypatch, r4_files):
    datum_doc = datum_from_json(R4)
    lam = weight_from_json(datum_doc, R4_LAMBDA)
    honest = irreducible_character(datum_doc, lam, 5).series
    assert not character_structure_faults(datum_doc, lam, honest)[1]
    monkeypatch.setattr(series, "_layer_convolution", skip_equal_heights)
    numerator = numerator_series(datum_doc, lam, 5)
    denom = numerator_series(datum_doc, datum_doc.zero_weight(), 5)
    quotient = numerator.divide(denom)
    assert quotient != honest
    # the exact residual runs through the same faulty pair loop and is blind
    assert not (numerator - quotient.mul(denom)).terms
    # W-invariance and the Verma bounds see it
    assert len(character_structure_faults(datum_doc, lam, quotient)[1]) == 147
    datum, lam_path = r4_files
    argv = ["--datum", datum, "--lambda", lam_path, "--height", "5"]
    code, doc = run_json(capsys, ["char", *argv])
    assert code == 0
    assert doc["diagnostics"]["residual_terms"] > 0
    code, doc = run_json(capsys, ["compare", *argv])
    assert (code, doc["matches"]) == (2, False)
    # the solver's log division misses the pair 2 alpha_4 = alpha_4 + alpha_4
    assert main(["roots", "--datum", datum, "--height", "4"]) == 1
    err = capsys.readouterr().err
    assert "multiplicity 1/2 at exponent (0, 0, 0, 2) is not an integer" in err


def refuse(*args, **kwargs):
    raise AssertionError("a check formed a full product")


def test_success_paths_form_no_product(capsys, monkeypatch, r4_files):
    monkeypatch.setattr(CharSeries, "mul", refuse)
    monkeypatch.setattr(roots, "denominator_R", refuse)
    datum, lam = r4_files
    code, doc = run_json(capsys, ["char", "--datum", datum, "--lambda", lam, "--height", "8"])
    assert (code, doc["diagnostics"]["residual_terms"]) == (0, 0)
    code, doc = run_json(capsys, ["denom-check", "--datum", datum, "--height", "8"])
    assert (code, doc["residual_terms"], doc["ok"]) == (0, 0, True)


def test_checks_run_no_pair_loop(monkeypatch):
    d = datum_from_json(R4)
    lam = weight_from_json(d, R4_LAMBDA)
    numerator = numerator_series(d, lam, 8)
    denom = numerator_series(d, d.zero_weight(), 8)
    quotient = numerator.divide(denom)
    table = solve_multiplicities(d, 8)
    monkeypatch.setattr(series, "_layer_convolution", refuse)
    assert product_holds(numerator, quotient, denom)
    assert denominator_residual_terms(d, table, denom) == 0


def test_failed_checks_count_the_exact_residual(monkeypatch):
    d = datum_from_json(R4)
    table = solve_multiplicities(d, 6)
    denom = numerator_series(d, d.zero_weight(), 6)
    # one multiplicity one too large
    beta, entry = next(iter(table.entries.items()))
    wrong = RootTable(6, {**table.entries, beta: entry._replace(mult=entry.mult + 1)})
    exact = len((denominator_R(d, wrong, 6) - denom).terms)
    assert exact > 0
    assert denominator_residual_terms(d, wrong, denom) == exact
    lam = weight_from_json(d, R4_LAMBDA)
    numerator = numerator_series(d, lam, 6)
    quotient = numerator.divide(denom) - CharSeries(6, 4, {(1, 1, 0, 0): 1})
    assert not product_holds(numerator, quotient, denom)
    # a faulty product that finds no term: the failed check still counts 1
    monkeypatch.setattr(roots, "denominator_R", lambda *args: denom)
    assert denominator_residual_terms(d, wrong, denom) == 1


def test_coefficients_past_a_prime(monkeypatch):
    # a - b c = p e^{-2} maps to zero mod p = 2^61 - 1; b's coefficient p
    # puts the size bound past p, so the check works mod 2^127 - 1
    c = CharSeries(2, 1, {(0,): 1, (1,): -1})
    b = CharSeries(2, 1, {(0,): 1, (1,): P})
    a = b.mul(c)
    products = []
    mul = CharSeries.mul
    monkeypatch.setattr(CharSeries, "mul", lambda *args: products.append(1) or mul(*args))
    assert product_holds(a, b, c)
    assert not product_holds(a - CharSeries(2, 1, {(2,): P}), b, c)
    assert not products
    # past 2^1279 - 1, the last prime, the product is formed
    b = CharSeries(2, 1, {(0,): 1, (1,): 2**1279})
    a = mul(b, c)
    assert product_holds(a, b, c)
    assert not product_holds(a - CharSeries(2, 1, {(2,): 1}), b, c)
    assert len(products) == 2
    # the same for a multiplicity past the last prime, where denominator_R
    # decides
    d = OddCartanDatum([[-2]], [1])
    table = RootTable(2, {(1,): RootEntry(2**1279, 0, False)})
    product = denominator_R(d, table, 2)
    assert denominator_residual_terms(d, table, product) == 0
    assert denominator_residual_terms(d, table, product - CharSeries(2, 1, {(2,): 1})) == 1
    # between the primes on the denominator side: one root of multiplicity
    # m = 2^30 gives L = -m e^{-1} - m e^{-2} and N_0 = 1 - m e^{-1} +
    # C(m, 2) e^{-2}, so the bound max|D(N_0)| + max|N_0| sum|L| is about
    # 2^90 and the check works mod 2^127 - 1
    m = 2**30
    table = RootTable(2, {(1,): RootEntry(m, 0, False)})
    product = CharSeries(2, 1, {(0,): 1, (1,): -m, (2,): m * (m - 1) // 2})
    monkeypatch.setattr(CharSeries, "mul", refuse)
    monkeypatch.setattr(roots, "denominator_R", refuse)
    assert denominator_residual_terms(d, table, product) == 0
    # N_0 one term off by p = 2^61 - 1 gives D(N_0) - N_0 L = -2 p e^{-2},
    # which 2^61 - 1 would not see
    monkeypatch.setattr(roots, "denominator_R", denominator_R)
    assert denominator_residual_terms(d, table, product - CharSeries(2, 1, {(2,): P})) == 1


def peel_first_terms(rounding):
    """solve_multiplicities without the terms at k beta, k >= 2, that a new
    root beta subtracts from the heights above.  A simple root then leaves
    half its multiplicity at twice itself, which the solver's own check
    refuses; with rounding, the remainder is dropped instead."""

    def solve(datum, height_bound, numerator=None):
        if numerator is None:
            numerator = numerator_series(datum, datum.zero_weight(), height_bound)
        log = numerator.derivative().divide(numerator).terms
        entries = {}
        for h in range(1, height_bound + 1):
            for gamma, value in sorted((e, c) for e, c in log.items() if sum(e) == h):
                m, rest = divmod(-value, h)
                if rest and not rounding:
                    raise ValueError(f"multiplicity {-value}/{h} at exponent {gamma} is not an integer")
                if m < 0:
                    raise ValueError(f"multiplicity {m} at exponent {gamma} is negative")
                is_real = datum.root_bilinear(gamma, gamma) > 0
                entries[gamma] = RootEntry(m, datum.parity_of(gamma), is_real)
        return RootTable(height_bound, entries)

    return solve


def test_first_term_peel_fails_the_denominator_check(capsys, monkeypatch, r4_files):
    datum, _ = r4_files
    argv = ["--datum", datum, "--height", "6"]
    monkeypatch.setattr(roots, "solve_multiplicities", peel_first_terms(rounding=False))
    assert main(["roots", *argv]) == 1
    assert "(0, 0, 0, 2) is not an integer" in capsys.readouterr().err
    # rounded, the peel runs through, and only table_log, which sums every
    # k of each root, tells the table from N_0
    monkeypatch.setattr(roots, "solve_multiplicities", peel_first_terms(rounding=True))
    code, doc = run_json(capsys, ["roots", *argv])
    assert code == 0 and doc
    code, doc = run_json(capsys, ["denom-check", *argv])
    assert (code, doc["ok"]) == (0, False)
    assert doc["residual_terms"] > 0


def test_orbit_cut_fails_compare(capsys, monkeypatch, tmp_path):
    datum, lam = tmp_path / "aff.json", tmp_path / "lam.json"
    datum.write_text(json.dumps(AFF))
    lam.write_text(json.dumps({"Lambda": {"1": "1"}}))
    argv = ["--datum", str(datum), "--lambda", str(lam), "--height", "8"]
    walk = charformula.orbit_frontier
    monkeypatch.setattr(charformula, "orbit_frontier",
                        lambda *args: dict(list(walk(*args).items())[:8]))
    monkeypatch.setenv("BBSUPER_CAP", "8")
    # the character's own residual divides by the same cut N_0 and is blind
    code, doc = run_json(capsys, ["char", *argv])
    assert (code, doc["diagnostics"]["residual_terms"]) == (0, 0)
    code, doc = run_json(capsys, ["compare", *argv])
    assert (code, doc["matches"]) == (2, False)
    assert doc["differences"]


def test_odd_isotropic_sign_fails_compare(capsys, monkeypatch, tmp_path):
    # an odd isotropic index takes its signs from 1 / prod (1 + q^k); with
    # the step ignored they come from prod (1 - q^k), wrong from level 2 on
    table = charformula._euler_table
    monkeypatch.setattr(charformula, "_euler_table", lambda bound, step: table(bound, 1))
    for name, datum, lam in (("r2", R2, LAMBDA_1), ("r3", R3, LAMBDA_1), ("r4", R4, R4_LAMBDA)):
        datum_path, lam_path = write_pair(tmp_path, name, datum, lam)
        argv = ["--datum", datum_path, "--height", "3"]
        code, doc = run_json(capsys, ["compare", *argv, "--lambda", lam_path])
        assert (code, doc["matches"]) == (2, False), name
        # N_0 and the solver share the numerator, and the character divides
        # by that N_0, so neither check on the formula side is alarmed
        code, doc = run_json(capsys, ["denom-check", *argv])
        assert (code, doc["ok"]) == (0, True), name
        code, doc = run_json(capsys, ["char", *argv, "--lambda", lam_path])
        assert (code, doc["diagnostics"]["residual_terms"]) == (0, 0), name


def test_adding_elimination_step_fails_compare(capsys, monkeypatch, tmp_path):
    # row_basis eliminates with u * vec - c * unit; this step adds instead
    combine = exactlinalg._combine
    monkeypatch.setattr(exactlinalg, "_combine", lambda u, vec, c, unit: combine(u, vec, -c, unit))
    for name, datum, lam, height in (("r4", R4, R4_LAMBDA, "3"), ("r2", R2, LAMBDA_1, "4")):
        datum_path, lam_path = write_pair(tmp_path, name, datum, lam)
        argv = ["--datum", datum_path, "--lambda", lam_path, "--height", height]
        code, doc = run_json(capsys, ["compare", *argv])
        assert (code, doc["matches"]) == (2, False), name


def test_zero_level_break_fails_compare(capsys, monkeypatch, tmp_path):
    # enumerate_supports skips a level whose sign factor is zero; this
    # mutant stops the level loop there instead, as a `break` would: every
    # factor past the first zero level reads zero.  The odd isotropic
    # index's factors are 1, -1, 0, -1, ..., so its supports at level 3
    # and above are lost
    table = charformula._euler_table

    def cut(bound, step):
        factors = table(bound, step)
        first = factors.index(0, 1) if 0 in factors[1:] else len(factors)
        return factors[:first] + [0] * (len(factors) - first)

    monkeypatch.setattr(charformula, "_euler_table", cut)
    datum_path, lam_path = write_pair(tmp_path, "r4", R4, R4_LAMBDA)
    argv = ["--datum", datum_path, "--lambda", lam_path, "--height", "3"]
    assert run_json(capsys, ["compare", *argv])[0] == 0
    for name, datum, lam in (("r2", R2, LAMBDA_1), ("r4", R4, R4_LAMBDA)):
        datum_path, lam_path = write_pair(tmp_path, name, datum, lam)
        argv = ["--datum", datum_path, "--height", "4"]
        code, doc = run_json(capsys, ["compare", *argv, "--lambda", lam_path])
        assert (code, doc["matches"]) == (2, False), name
        # the solver and the character read the same wrong N_0
        code, doc = run_json(capsys, ["denom-check", *argv])
        assert (code, doc["ok"]) == (0, True), name
        code, doc = run_json(capsys, ["char", *argv, "--lambda", lam_path])
        assert (code, doc["diagnostics"]["residual_terms"]) == (0, 0), name


def test_even_commutation_sign_fails_compare(capsys, monkeypatch, tmp_path):
    # _propagate commutes e_{jk} past f_{il} with the sign -1 when i and j
    # are both odd; it reads the parity nowhere else, so running it on the
    # datum with no odd index is the oracle that ignores that sign
    propagate = verma_oracle._propagate

    def propagate_even(datum, lam, cells):
        return propagate(OddCartanDatum(datum.a, datum.d), lam, cells)

    monkeypatch.setattr(verma_oracle, "_propagate", propagate_even)
    for name, datum, lam in (("r2", R2, LAMBDA_1), ("r3", R3, LAMBDA_1), ("r4", R4, R4_LAMBDA)):
        datum_path, lam_path = write_pair(tmp_path, name, datum, lam)
        argv = ["--datum", datum_path, "--height", "3"]
        code, doc = run_json(capsys, ["compare", *argv, "--lambda", lam_path])
        assert (code, doc["matches"]) == (2, False), name
        # the formula side runs no oracle code
        code, doc = run_json(capsys, ["denom-check", *argv])
        assert (code, doc["ok"]) == (0, True), name
        code, doc = run_json(capsys, ["char", *argv, "--lambda", lam_path])
        assert (code, doc["diagnostics"]["residual_terms"]) == (0, 0), name
