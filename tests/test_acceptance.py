"""Acceptance gate: every criterion exact, one printed line each."""
import json
import random
import time
from math import lcm

import pytest

from bbsuper.charformula import irreducible_character, numerator_series
from bbsuper.datum import OddCartanDatum, Weight
from bbsuper.roots import denominator_R, solve_multiplicities
from bbsuper.series import CharSeries
from bbsuper.verma_oracle import irreducible_dims

from reference import (
    casimir_shift,
    character_structure_faults,
    pair_with_cell,
    roots_to_json,
    s_lambda_series,
    series_to_json,
    serre_vector,
)

DEEP = 12


def report(number, name, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {number} ({name}): {status}")
    assert not problems, problems[:10]


def check(problems, condition, label):
    if not condition:
        problems.append(label)


# independent combinatorial references


def count_partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(count_partitions(n - k, min(k, n - k)) for k in range(1, min(n, largest) + 1))


def count_distinct_partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(
        count_distinct_partitions(n - k, min(k - 1, n - k)) for k in range(1, min(n, largest) + 1)
    )


def test_criterion_1_sl2_family():
    start = time.perf_counter()
    problems = []
    d = OddCartanDatum([[2]], [1])
    for m in range(6):
        lam = Weight((m,), (0,), (0,))
        series = irreducible_character(d, lam, 12).series
        dims = irreducible_dims(d, lam, 12, DEEP)
        for k in range(13):
            expected = 1 if k <= m else 0
            check(problems, series.coefficient((k,)) == expected, f"coef m={m} k={k}")
            check(problems, dims[(k,)] == expected, f"oracle m={m} k={k}")
    elapsed = time.perf_counter() - start
    check(problems, elapsed < 1.0, f"runtime {elapsed:.2f}s")
    report(1, "sl2 family", problems)


def test_criterion_2_osp12_family():
    start = time.perf_counter()
    problems = []
    d = OddCartanDatum([[2]], [1], odd=[0])
    for m in range(4):
        lam = Weight((2 * m,), (0,), (0,))
        series = irreducible_character(d, lam, 12).series
        dims = irreducible_dims(d, lam, 12, DEEP)
        for k in range(13):
            expected = 1 if k <= 2 * m else 0
            check(problems, series.coefficient((k,)) == expected, f"coef m={m} k={k}")
            check(problems, dims[(k,)] == expected, f"oracle m={m} k={k}")
    elapsed = time.perf_counter() - start
    check(problems, elapsed < 1.0, f"runtime {elapsed:.2f}s")
    report(2, "osp(1|2) family", problems)


def test_criterion_3_even_isotropic():
    start = time.perf_counter()
    problems = []
    d = OddCartanDatum([[0]], [1])
    table = solve_multiplicities(d, 10)
    for l in range(1, 11):
        check(problems, table.entries[(l,)].mult == 1, f"mult at {l}")
    residual = denominator_R(d, table, 10) - numerator_series(d, d.zero_weight(), 10)
    check(problems, not residual.terms, "denominator residual")

    zero = d.zero_weight()
    flat = irreducible_character(d, zero, 10).series
    check(problems, flat.terms == {(0,): 1}, "character at pairing 0")

    lam = d.fundamental_weight(0)
    series = irreducible_character(d, lam, 6).series
    partitions = [count_partitions(n) for n in range(7)]
    check(problems, partitions == [1, 1, 2, 3, 5, 7, 11], "reference partitions")
    dims = irreducible_dims(d, lam, 6)
    for n in range(7):
        check(problems, series.coefficient((n,)) == partitions[n], f"coef at {n}")
        check(problems, dims[(n,)] == partitions[n], f"oracle at {n}")
    elapsed = time.perf_counter() - start
    check(problems, elapsed < 5.0, f"runtime {elapsed:.2f}s")
    report(3, "rank-1 even isotropic", problems)


def test_criterion_4_even_non_isotropic():
    start = time.perf_counter()
    problems = []
    d = OddCartanDatum([[-2]], [1])
    table = solve_multiplicities(d, 8)
    mults = [table.entries[(n,)].mult for n in range(1, 9)]
    check(problems, mults == [1, 1, 2, 3, 6, 9, 18, 30], "multiplicity run")
    for bound in range(1, 9):
        total = sum(
            dd * table.entries[(dd,)].mult for dd in range(1, bound + 1) if bound % dd == 0
        )
        check(problems, total == 2**bound - 1, f"divisor sum at {bound}")
    verma = CharSeries.one(5, 1).divide(denominator_R(d, table, 5))
    dims = irreducible_dims(d, None, 5)
    for n in range(6):
        check(problems, dims[(n,)] == verma.coefficient((n,)), f"symbolic rank at {n}")
    elapsed = time.perf_counter() - start
    check(problems, elapsed < 30.0, f"runtime {elapsed:.2f}s")
    report(4, "rank-1 even non-isotropic", problems)


def test_criterion_5_odd_isotropic():
    start = time.perf_counter()
    problems = []
    d = OddCartanDatum([[0]], [1], odd=[0])
    # invert the distinct-partition counting series independently
    distinct = [count_distinct_partitions(n) for n in range(6)]
    inverse = [1]
    for n in range(1, 6):
        inverse.append(-sum(distinct[k] * inverse[n - k] for k in range(1, n + 1)))
    check(problems, inverse == [1, -1, 0, -1, 1, -1], "reference inversion")
    s = s_lambda_series(d, d.zero_weight(), 5)
    for n in range(6):
        check(problems, s.coefficient((n,)) == inverse[n], f"support coef at {n}")

    zero = d.zero_weight()
    series = irreducible_character(d, zero, 6).series
    check(problems, series.terms == {(0,): 1}, "character is 1")
    dims = irreducible_dims(d, zero, 6)
    for n in range(7):
        check(problems, dims[(n,)] == (1 if n == 0 else 0), f"oracle at {n}")
    elapsed = time.perf_counter() - start
    check(problems, elapsed < 5.0, f"runtime {elapsed:.2f}s")
    report(5, "rank-1 odd isotropic", problems)


def test_criterion_6_rank2_mixed():
    start = time.perf_counter()
    problems = []
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    lam = d.fundamental_weight(0)
    series = irreducible_character(d, lam, 5).series
    for beta, oracle in irreducible_dims(d, lam, 5).items():
        check(
            problems,
            series.coefficient(beta) == oracle,
            f"cell {beta}: formula {series.coefficient(beta)} oracle {oracle}",
        )
    elapsed = time.perf_counter() - start
    check(problems, elapsed < 60.0, f"runtime {elapsed:.2f}s")
    report(6, "rank-2 mixed", problems)


# criterion 7: randomized property suite


def random_datum(rng):
    rank = rng.randint(1, 3)
    diag = [rng.choice([2, 0, -2, -4]) for _ in range(rank)]
    d = [rng.choice([1, 2]) for _ in range(rank)]
    odd = sorted(i for i in range(rank) if rng.random() < 0.45)
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = diag[i]
    for i in range(rank):
        for j in range(i + 1, rank):
            k = rng.choice([0, 0, 1, 1, 2])
            step = lcm(d[i], d[j])
            if (i in odd and diag[i] == 2) or (j in odd and diag[j] == 2):
                step *= 2
            s = -k * step
            a[i][j] = s // d[i]
            a[j][i] = s // d[j]
    return OddCartanDatum(a, d, odd=odd)


def random_dominant(datum, rng):
    levels = []
    for i in range(datum.rank):
        c = rng.randint(0, 2)
        if datum.is_real(i) and datum.is_odd(i):
            c *= 2
        levels.append(c)
    zero = (0,) * datum.rank
    return Weight(levels, zero, zero)


def test_criterion_7_property_suite():
    problems = []
    serre_checked = 0
    for seed in range(50):
        rng = random.Random(seed)
        datum = random_datum(rng)
        height = rng.randint(2, 5)
        table = solve_multiplicities(datum, height)

        residual = denominator_R(datum, table, height) - numerator_series(
            datum, datum.zero_weight(), height
        )
        check(problems, not residual.terms, f"seed {seed}: residual")

        lam = random_dominant(datum, rng)
        series = irreducible_character(datum, lam, height).series
        check(problems, series.coefficient((0,) * datum.rank) == 1, f"seed {seed}: head")
        # W-invariance and 0 <= coefficient <= Verma, whose 1 / N_0 is
        # 1 / R since the residual above is empty
        _, faults = character_structure_faults(datum, lam, series)
        problems += [f"seed {seed}: {fault}" for fault in faults]

        for i in datum.real_indices:
            for j in range(datum.rank):
                if j == i:
                    continue
                for l in ([1] if datum.is_real(j) else [1, 2]):
                    span = (1 - l * datum.a[i][j]) + l
                    if span > 5:
                        continue
                    combo = serre_vector(datum, i, j, l)
                    beta = [0] * datum.rank
                    for idx, lvl in next(iter(combo)):
                        beta[idx] += lvl
                    values = pair_with_cell(datum, lam, tuple(beta), combo)
                    check(
                        problems,
                        all(v == 0 for v in values),
                        f"seed {seed}: serre ({i};{j},{l}) outside kernel",
                    )
                    serre_checked += 1

        for i in range(datum.rank):
            check(problems, casimir_shift(datum, i, 1) == 0, f"seed {seed}: shift level 1")
            if datum.is_isotropic(i):
                for l in range(1, 5):
                    check(
                        problems,
                        casimir_shift(datum, i, l) == 0,
                        f"seed {seed}: isotropic shift l={l}",
                    )
    check(problems, serre_checked >= 25, f"only {serre_checked} Serre combos exercised")
    report(7, "randomized properties", problems)


def test_criterion_8_truncation_coherence():
    problems = []
    jobs = [
        ([[2]], [1], [], [0, 2, 5], 12),
        ([[2]], [1], [0], [0, 4, 6], 12),
        ([[0]], [1], [], [0, 1], 6),
        ([[-2]], [1], [], [0], 8),
        ([[0]], [1], [0], [0], 6),
        ([[2, -1], [-1, 0]], [1, 1], [1], [(1, 0)], 5),
    ]
    for a, dd, odd, lams, height in jobs:
        datum = OddCartanDatum(a, dd, odd=odd)
        shallow_table = solve_multiplicities(datum, height)
        deep_table = solve_multiplicities(datum, height + 3)
        check(
            problems,
            {b: e for b, e in deep_table.entries.items() if sum(b) <= height}
            == shallow_table.entries,
            f"{a} odd={odd}: table truncation",
        )
        check(
            problems,
            json.dumps([r for r in roots_to_json(deep_table) if sum(r["root"]) <= height])
            == json.dumps(roots_to_json(shallow_table)),
            f"{a} odd={odd}: table serialization",
        )
        zero = (0,) * datum.rank
        for coeffs in lams:
            lam = Weight(coeffs if isinstance(coeffs, tuple) else (coeffs,), zero, zero)
            shallow = irreducible_character(datum, lam, height).series
            deep = irreducible_character(datum, lam, height + 3).series
            # the constructor drops the terms above its height bound
            deep = CharSeries(height, datum.rank, deep.terms)
            check(
                problems,
                deep == shallow,
                f"{a} odd={odd} lam={coeffs}: series truncation",
            )
            check(
                problems,
                json.dumps(series_to_json(deep)) == json.dumps(series_to_json(shallow)),
                f"{a} odd={odd} lam={coeffs}: series serialization",
            )
    report(8, "truncation coherence", problems)


def test_criterion_9_character_structure_past_the_oracle():
    # r4 far beyond the oracle's reach (height 6 by default): the character
    # is W-invariant and lies between 0 and the Verma character, and the
    # Verma character in its place breaks W-invariance
    datum = OddCartanDatum(
        [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], [1] * 4, odd=[2]
    )
    lam = Weight((1, 1, 0, 0), (0,) * 4, (0,) * 4)
    problems = []
    height = 24
    series = irreducible_character(datum, lam, height).series
    pairs, faults = character_structure_faults(datum, lam, series)
    problems += faults
    check(problems, pairs > 5000, f"only {pairs} W-pairs compared at height {height}")
    verma = CharSeries.one(12, 4).divide(numerator_series(datum, datum.zero_weight(), 12))
    check(problems, character_structure_faults(datum, lam, verma)[1], "Verma character passes")
    report(9, "character structure past the oracle", problems)


# criterion 10: real blocks with infinite Weyl groups, (A, D, 0-based odd)
# with lam = Lambda_1, and the fewest W-pairs the structure check compares
INFINITE_W = {
    # affine A2^(1) beside a non-isotropic imaginary index
    "aff": ([[2, -1, -1, -1], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, -2]], [1] * 4, [], 8000),
    # the same real block beside an odd isotropic index
    "affodd": (
        [[2, -1, -1, -2], [-1, 2, -1, 0], [-1, -1, 2, 0], [-1, 0, 0, 0]], [1, 1, 1, 2], [3], 9000
    ),
    # all real and indefinite
    "ind3": ([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]], [1] * 3, [], 1300),
}


@pytest.mark.parametrize("name", INFINITE_W)
def test_criterion_10_infinite_weyl_groups(name):
    a, dd, odd, min_pairs = INFINITE_W[name]
    datum = OddCartanDatum(a, dd, odd=odd)
    lam = datum.fundamental_weight(0)
    problems = []
    series = irreducible_character(datum, lam, 8).series
    for beta, oracle in irreducible_dims(datum, lam, 8, 8).items():
        check(
            problems,
            series.coefficient(beta) == oracle,
            f"cell {beta}: formula {series.coefficient(beta)} oracle {oracle}",
        )
    height = 24
    series = irreducible_character(datum, lam, height).series
    pairs, faults = character_structure_faults(datum, lam, series)
    problems += faults
    check(problems, pairs >= min_pairs, f"only {pairs} W-pairs compared at height {height}")
    report(10, f"infinite Weyl group {name}", problems)
