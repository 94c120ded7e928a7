"""Command-line surface: parsing, exit codes, canonical output."""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from bbsuper.charformula import irreducible_character
from bbsuper.cli import _ROWS, _format, main
from bbsuper.datum import OddCartanDatum, Weight, weight_to_json
from bbsuper.series import CharSeries
from bbsuper.verma_oracle import irreducible_dims

from reference import gram_matrix, rank_gauss


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def sl2_files(tmp_path):
    datum = write_json(tmp_path / "datum.json", {"A": [[2]], "D": [1]})
    lam = write_json(tmp_path / "lam.json", weight_to_json(Weight((2,), (0,), (0,))))
    return datum, lam


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_echoes_classes(tmp_path, capsys):
    datum = write_json(
        tmp_path / "d.json", {"A": [[2, -1], [-1, 0]], "D": [1, 1], "odd": [2]}
    )
    code, out, err = run(capsys, ["validate", "--datum", datum])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "valid": True,
        "rank": 2,
        "D": [1, 1],
        "real": [1],
        "imaginary": [2],
        "isotropic": [2],
        "odd": [2],
    }


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"A": [[3]], "D": [1]},
         "a[0][0] = 3: a diagonal entry must be 2 or a nonpositive even integer"),
        ({"A": [[2, 1], [1, 2]]}, "a[0][1] = 1: an off-diagonal entry must be nonpositive"),
        ({"A": [[2, -1], [-2, 2]]},
         "d[0]*a[0][1] = -1 != d[1]*a[1][0] = -2: D*A must be symmetric"),
        ({"A": [[2]], "D": [0]}, "symmetrizer D = [0]: every entry must be positive"),
        # odd indices are named as the document lists them, from one
        ({"A": [[2, -1], [-1, 2]], "odd": [1]},
         "a[0][1] = -1: odd index 1 is real, so its row must be even"),
        ({"A": [[2]], "odd": [0]}, "odd index 0 out of range 1..1"),
        ({"A": [[2]], "odd": [2]}, "odd index 2 out of range 1..1"),
        ({"A": [[2]], "D": [1, 1]}, "symmetrizer length does not match the matrix"),
        ({}, "datum JSON needs at least the matrix under 'A'"),
    ],
    ids=["diagonal", "off-diagonal", "symmetric", "positive-D", "odd-row", "odd-0", "odd-n+1",
         "D-length", "no-A"],
)
def test_validate_rejects_bad_datum(tmp_path, capsys, doc, message):
    datum = write_json(tmp_path / "d.json", doc)
    code, out, err = run(capsys, ["validate", "--datum", datum])
    assert (code, out) == (1, "")
    assert err == f"error: {datum}: {message}\n"


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"A": 5}, "'A'"),
        ({"A": [5]}, "'A'"),
        ({"A": "2"}, "'A'"),
        ({"A": {}}, "'A'"),
        ({"A": [[2]], "D": 1}, "'D'"),
        ({"A": [[2]], "odd": 3}, "'odd'"),
    ],
)
def test_validate_rejects_datum_shapes(tmp_path, capsys, doc, field):
    datum = write_json(tmp_path / "d.json", doc)
    code, out, err = run(capsys, ["validate", "--datum", datum])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"datum field {field} must be a list" in err


def test_validate_rejects_unknown_datum_field(tmp_path, capsys):
    # a misspelled "odd" used to validate as a datum with no odd index
    datum = write_json(tmp_path / "d.json", {"A": [[2]], "Odd": [1]})
    code, out, err = run(capsys, ["validate", "--datum", datum])
    assert (code, out) == (1, "")
    assert err == f"error: {datum}: unknown datum field 'Odd': use A, D or odd\n"


def test_validate_reads_null_odd_as_absent(tmp_path, capsys):
    datum = write_json(tmp_path / "d.json", {"A": [[2, -1], [-1, 0]], "D": None, "odd": None})
    code, out, err = run(capsys, ["validate", "--datum", datum])
    assert (code, err) == (0, "")
    assert json.loads(out)["odd"] == []


@pytest.mark.parametrize(
    "doc",
    [
        {"A": [[2.9]]},
        {"A": [[2]], "D": [1.7]},
        {"A": [[2]], "odd": [1.2]},
        {"A": [[2, False], [False, 2]]},
        {"A": [[2]], "D": [True]},
        {"A": [[2]], "odd": [True]},
        {"A": [["2"]]},
        {"A": [[float("inf")]]},
        {"A": [[float("nan")]]},
        {"A": [[2]], "D": [float("nan")]},
        {"A": [[None]]},
    ],
)
def test_validate_rejects_non_integral_entries(tmp_path, capsys, doc):
    datum = write_json(tmp_path / "d.json", doc)
    code, out, err = run(capsys, ["validate", "--datum", datum])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not an integer" in err


def test_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, ["validate", "--datum", str(tmp_path / "nope.json")])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"A": [[2]\n,, ]}')
    code, _, err = run(capsys, ["validate", "--datum", str(bad)])
    assert code == 1
    assert "bad.json:2" in err
    # files that fail to decode outside the JSON grammar: bytes that are
    # not UTF-8, an integer over int's 4300-digit limit, and arrays nested
    # past the recursion limit
    for name, content, reason in (
        ("latin1.json", b'{"A": [[2]], "odd": ["\xff"]}', "can't decode byte 0xff"),
        ("long.json", b'{"A": [[' + b"9" * 5000 + b"]]}", "Exceeds the limit (4300"),
        ("deep.json", b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ):
        path = tmp_path / name
        path.write_bytes(content)
        code, out, err = run(capsys, ["validate", "--datum", str(path)])
        assert (code, out) == (1, ""), name
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, name
        assert reason in err, name


def test_roots_json(tmp_path, capsys, sl2_files):
    datum, _ = sl2_files
    code, out, _ = run(capsys, ["roots", "--datum", datum, "--height", "4"])
    assert code == 0
    assert json.loads(out) == [
        {"root": [1], "mult": 1, "parity": "even", "class": "real"}
    ]


def test_char_json(tmp_path, capsys, sl2_files):
    datum, lam = sl2_files
    code, out, _ = run(
        capsys, ["char", "--datum", datum, "--lambda", lam, "--height", "4"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["character"]["terms"] == [
        {"exp": [0], "coef": "1"},
        {"exp": [1], "coef": "1"},
        {"exp": [2], "coef": "1"},
    ]
    assert doc["diagnostics"]["residual_terms"] == 0
    assert doc["character"]["base"] == {"Lambda": {"1": "2"}, "alpha": {}, "delta": {}}


def test_residual_sees_a_wrong_quotient(capsys, sl2_files, monkeypatch):
    # the residual is the one check that divide's own recurrence reproduces
    # the numerator, so one stray term in the quotient must show in it
    divide = CharSeries.divide

    def off_by_one_term(self, other):
        q = divide(self, other)
        return q - CharSeries(q.height_bound, q.rank, {(q.height_bound,) + (0,) * (q.rank - 1): 1})

    monkeypatch.setattr(CharSeries, "divide", off_by_one_term)
    d = OddCartanDatum([[2]], [1])
    assert irreducible_character(d, Weight((2,), (0,), (0,)), 4).residual_terms > 0
    datum, lam = sl2_files
    code, out, _ = run(
        capsys, ["char", "--datum", datum, "--lambda", lam, "--height", "4"]
    )
    assert code == 0
    assert json.loads(out)["diagnostics"]["residual_terms"] > 0


def test_denom_check_free_case(tmp_path, capsys):
    datum = write_json(tmp_path / "d.json", {"A": [[-2]], "D": [1]})
    code, out, _ = run(capsys, ["denom-check", "--datum", datum, "--height", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["residual_terms"] == 0
    assert [r["mult"] for r in doc["roots"]] == [1, 1, 2, 3, 6, 9]


def test_oracle_json(tmp_path, capsys, sl2_files):
    datum, lam = sl2_files
    code, out, _ = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "3"]
    )
    assert code == 0
    assert json.loads(out) == [
        {"mu_offset": [0], "dim": 1},
        {"mu_offset": [1], "dim": 1},
        {"mu_offset": [2], "dim": 1},
        {"mu_offset": [3], "dim": 0},
    ]


def test_oracle_symbolic(tmp_path, capsys):
    # generic mode needs no weight file
    datum = write_json(tmp_path / "d.json", {"A": [[-2]], "D": [1]})
    code, out, _ = run(
        capsys,
        ["oracle", "--datum", datum, "--height", "3", "--symbolic"],
    )
    assert code == 0
    assert [cell["dim"] for cell in json.loads(out)] == [1, 1, 2, 4]


def test_oracle_cap_exit(tmp_path, capsys, sl2_files):
    datum, lam = sl2_files
    code, _, err = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "7"]
    )
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "command, extra", [("oracle", []), ("oracle", ["--symbolic"]), ("compare", [])]
)
def test_cap_checked_before_any_work(capsys, sl2_files, monkeypatch, command, extra):
    import bbsuper.charformula as charformula
    import bbsuper.verma_oracle as oracle

    def never(*args, **kwargs):
        raise AssertionError("called over the cap")

    monkeypatch.setattr(oracle, "weight_window", never)
    monkeypatch.setattr(charformula, "irreducible_character", never)
    datum, lam = sl2_files
    argv = [command, "--datum", datum, "--height", "7"] + (extra or ["--lambda", lam])
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == "resource cap: height 7 exceeds cap 6; raise BBSUPER_CAP to go deeper\n"


@pytest.mark.parametrize(
    "command, extra, height",
    [
        pytest.param("roots", [], 10, id="roots"),
        pytest.param("char", ["--lambda", "zero.json"], 10, id="char"),
        pytest.param("denom-check", [], 10, id="denom-check"),
        # the caps come before the engines, so also before the dominance check
        pytest.param("char", ["--lambda", "minus.json"], 10, id="char-non-dominant"),
        # inside the oracle's default height cap
        pytest.param("oracle", ["--lambda", "zero.json"], 6, id="oracle"),
        pytest.param("oracle", ["--symbolic"], 6, id="oracle-symbolic"),
        pytest.param("compare", ["--lambda", "zero.json"], 6, id="compare"),
    ],
)
def test_formula_budget_checked_before_any_work(tmp_path, capsys, monkeypatch, command, extra,
                                                height):
    import bbsuper.charformula as charformula
    import bbsuper.verma_oracle as oracle

    def never(*args, **kwargs):
        raise AssertionError("called over the budget")

    monkeypatch.setattr(charformula, "enumerate_supports", never)
    monkeypatch.setattr(oracle, "weight_window", never)
    # the A_30 chain: C(40, 30) * 30 window cells times rank at height 10,
    # and C(36, 30) * 30 = 58,433,760 at height 6
    monkeypatch.chdir(tmp_path)
    n = 30
    chain = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    write_json(tmp_path / "chain.json", {"A": chain})
    write_json(tmp_path / "zero.json", {})
    write_json(tmp_path / "minus.json", {"Lambda": {"1": "-1"}})
    argv = [command, "--datum", "chain.json", "--height", str(height), *extra]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == (
        f"resource cap: height {height} at rank 30 spans more window cells times rank"
        " than the window budget 10000000\n"
    )


@pytest.mark.parametrize("digits", ["1" + "0" * 2199, "9" * 4300], ids=["2200", "4300"])
@pytest.mark.parametrize("command", ["roots", "char", "denom-check"])
def test_huge_height_gives_one_cap_line(tmp_path, capsys, monkeypatch, command, digits):
    # every height that --height reads gives one short line: it shows the
    # height cut and no count, whose digits at rank 2 are about twice the
    # height's, past int's limit for str()
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "r2.json", {"A": [[2, -1], [-1, 0]], "odd": [2]})
    write_json(tmp_path / "zero.json", {})
    argv = [command, "--datum", "r2.json", "--height", digits]
    code, out, err = run(capsys, argv + (["--lambda", "zero.json"] if command == "char" else []))
    assert (code, out) == (3, "")
    assert err == (
        f"resource cap: height {digits[:40]}... ({len(digits)} characters) at rank 2 spans"
        " more window cells times rank than the window budget 10000000\n"
    )


@pytest.mark.parametrize(
    "a, height, rank",
    [
        # C(65, 4) * 61 = 41,299,440 window cells times height
        pytest.param([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], 61, 4,
                     id="r4"),
        # 6326 * 6325 = 40,011,950, long before the multiplicities of
        # free pass int's digit limit near height 14300
        pytest.param([[-2]], 6325, 1, id="free"),
    ],
)
@pytest.mark.parametrize("command", ["roots", "char", "denom-check"])
def test_time_budget_checked_before_any_work(tmp_path, capsys, monkeypatch, command, a, height,
                                             rank):
    import bbsuper.charformula as charformula

    def never(*args, **kwargs):
        raise AssertionError("called over the budget")

    monkeypatch.setattr(charformula, "enumerate_supports", never)
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "d.json", {"A": a})
    write_json(tmp_path / "zero.json", {})
    argv = [command, "--datum", "d.json", "--height", str(height)]
    code, out, err = run(capsys, argv + (["--lambda", "zero.json"] if command == "char" else []))
    assert (code, out) == (3, "")
    assert err == (
        f"resource cap: height {height} at rank {rank} spans more window cells times height"
        " than the time budget 40000000\n"
    )


@pytest.mark.parametrize("command", ["roots", "char", "denom-check", "oracle", "compare"])
def test_time_budget_lets_the_last_height_run(monkeypatch, command):
    from bbsuper.cli import _over_cap

    # above both heights, so that the oracle meets the same budgets
    monkeypatch.setenv("BBSUPER_CAP", "6400")
    # r4 spans 38,122,560 window cells times height at 60, free 39,999,300 at 6324
    assert _over_cap(command, 4, 60) is None
    assert _over_cap(command, 1, 6324) is None
    assert _over_cap(command, 4, 61) and _over_cap(command, 1, 6325)


def test_oracle_cap_env_override(tmp_path, capsys, sl2_files, monkeypatch):
    datum, lam = sl2_files
    # surrounding spaces are allowed
    for cap in ("12", " 8 "):
        monkeypatch.setenv("BBSUPER_CAP", cap)
        code, out, _ = run(
            capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "7"]
        )
        assert code == 0
        assert [cell["dim"] for cell in json.loads(out)] == [1, 1, 1, 0, 0, 0, 0, 0]


def test_oracle_symbolic_caps(tmp_path, capsys, monkeypatch):
    datum = write_json(tmp_path / "d.json", {"A": [[-2]], "D": [1]})
    argv = ["oracle", "--datum", datum, "--height", "7", "--symbolic"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "cap" in err
    monkeypatch.setenv("BBSUPER_CAP", "8")
    code, out, _ = run(capsys, argv)
    assert code == 0
    # the free algebra: compositions of n
    assert [cell["dim"] for cell in json.loads(out)] == [1, 1, 2, 4, 8, 16, 32, 64]


@pytest.mark.parametrize(
    "cap", ["eight", "4,0", "10,6", "8,", "5,9", "1,2,3", "a", "10, 6", "1_0", "\u0668"]
)
def test_oracle_cap_env_malformed(capsys, sl2_files, monkeypatch, cap):
    # BBSUPER_CAP is one integer in ASCII digits; a two-integer form is not
    # read, nor an underscore or another script's digit, which int() takes
    monkeypatch.setenv("BBSUPER_CAP", cap)
    datum, lam = sl2_files
    code, out, err = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse BBSUPER_CAP={cap!r}\n"


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_oracle_cap_env_nonpositive(capsys, sl2_files, monkeypatch, cap):
    monkeypatch.setenv("BBSUPER_CAP", cap)
    datum, lam = sl2_files
    code, _, err = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert code == 1
    assert "positive" in err


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["roots", "--height", " 3 "], ["roots", "--height", "3"]),
        (["roots", "--height=+3"], ["roots", "--height", "3"]),
        (["roots", "--height", "-0"], ["roots", "--height", "0"]),
        (["oracle", "--symbolic", "--height", "2", "--jobs", "+2"],
         ["oracle", "--symbolic", "--height", "2"]),
        (["char", "--lambda", "pad.json", "--height", "3"],
         ["char", "--lambda", "l.json", "--height", "3"]),
    ],
    ids=["height-spaces", "height-sign", "height-minus-zero", "jobs-sign", "weight-key-zero"],
)
def test_integer_text_keeps_sign_and_spaces(tmp_path, capsys, monkeypatch, argv, plain):
    # spaces around the digits, one sign and leading zeros still read as
    # the integer they spell
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "d.json", {"A": [[2]]})
    write_json(tmp_path / "l.json", {"Lambda": {"1": "2"}})
    write_json(tmp_path / "pad.json", {"Lambda": {" 01": "2"}})
    results = [run(capsys, [a[0], "--datum", "d.json", *a[1:]]) for a in (argv, plain)]
    assert results[0] == results[1] and results[0][0] == 0


def test_cap_is_read_only_by_the_cli(capsys, sl2_files, monkeypatch):
    monkeypatch.setenv("BBSUPER_CAP", "1")
    d = OddCartanDatum([[2]], [1])
    lam = Weight((2,), (0,), (0,))
    assert irreducible_dims(d, lam, 3) == {(0,): 1, (1,): 1, (2,): 1, (3,): 0}
    datum, lam_path = sl2_files
    code, out, err = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam_path, "--height", "3"]
    )
    assert (code, out) == (3, "")
    assert err == "resource cap: height 2 exceeds cap 1; raise BBSUPER_CAP to go deeper\n"


def test_only_the_formula_side_needs_dominance(tmp_path, capsys):
    d = OddCartanDatum([[2, -1], [-1, 0]], [1, 1], odd=[1])
    zero = (0, 0)
    minus_lambda1 = Weight((-1, 0), zero, zero)
    for lam in (
        minus_lambda1,
        Weight((0, Fraction(-1, 2)), zero, zero),
        Weight((Fraction(1, 2), -3), zero, zero),
    ):
        dims = irreducible_dims(d, lam, 4)
        assert len(dims) == 15
        assert dims == {beta: rank_gauss(gram_matrix(d, lam, beta).gram) for beta in dims}
    datum = write_json(tmp_path / "r2.json", {"A": [[2, -1], [-1, 0]], "odd": [2]})
    lam = write_json(tmp_path / "lam.json", weight_to_json(minus_lambda1))
    for command, expected in (("oracle", 0), ("char", 1), ("compare", 1)):
        argv = [command, "--datum", datum, "--lambda", lam, "--height", "4"]
        assert run(capsys, argv)[0] == expected, command


@pytest.mark.parametrize("value", ["-1", "1/2"], ids=["negative", "half"])
@pytest.mark.parametrize("command", ["char", "compare"])
def test_non_dominant_weight_is_one_line_error(tmp_path, capsys, command, value):
    # Lambda_1 pairs with the real coroot h_1 of r2, which needs a
    # nonnegative integer there
    datum = write_json(tmp_path / "r2.json", {"A": [[2, -1], [-1, 0]], "odd": [2]})
    lam = write_json(tmp_path / "lam.json", {"Lambda": {"1": value}})
    argv = [command, "--datum", datum, "--lambda", lam, "--height", "4"]
    assert run(capsys, argv) == (
        1, "", "error: orbit expansion needs a dominant integral weight\n"
    )


def test_compare_refuses_a_non_dominant_weight_before_the_oracle(tmp_path, capsys,
                                                                 monkeypatch):
    # the formula side runs first, so the oracle never spends its window
    def oracle(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr("bbsuper.verma_oracle.irreducible_dims", oracle)
    datum = write_json(tmp_path / "r2.json", {"A": [[2, -1], [-1, 0]], "odd": [2]})
    lam = write_json(tmp_path / "lam.json", {"Lambda": {"1": "-1"}})
    argv = ["compare", "--datum", datum, "--lambda", lam, "--height", "4"]
    assert run(capsys, argv) == (
        1, "", "error: orbit expansion needs a dominant integral weight\n"
    )


@pytest.mark.parametrize(
    "datum_text, lam_text, refused, key",
    [
        # json.loads keeps the last value: this validated as r2
        ('{"A": [[3]], "A": [[2, -1], [-1, 0]], "odd": [2]}', '{}', "datum.json", "A"),
        # and this ran as 2 Lambda_1
        ('{"A": [[2, -1], [-1, 0]], "odd": [2]}', '{"Lambda": {"1": "1", "1": "2"}}',
         "lam.json", "1"),
    ],
    ids=["datum", "weight"],
)
def test_repeated_json_key_is_refused(tmp_path, capsys, datum_text, lam_text, refused, key):
    (tmp_path / "datum.json").write_text(datum_text)
    (tmp_path / "lam.json").write_text(lam_text)
    argv = ["char", "--datum", str(tmp_path / "datum.json"),
            "--lambda", str(tmp_path / "lam.json"), "--height", "2"]
    assert run(capsys, argv) == (
        1, "", f"error: {tmp_path / refused}: key {key!r} given twice\n"
    )


def test_compare_match(tmp_path, capsys, sl2_files):
    datum, lam = sl2_files
    code, out, _ = run(
        capsys, ["compare", "--datum", datum, "--lambda", lam, "--height", "4"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["matches"] is True
    assert doc["differences"] == []
    assert doc["cells"] == 5


def test_compare_mismatch_exit(tmp_path, capsys, sl2_files, monkeypatch):
    import bbsuper.verma_oracle as oracle

    def zeros(datum, lam, height):
        return dict.fromkeys(oracle.weight_window(datum.rank, height), 0)

    monkeypatch.setattr(oracle, "irreducible_dims", zeros)
    datum, lam = sl2_files
    code, out, _ = run(
        capsys, ["compare", "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["matches"] is False
    assert doc["differences"][0] == {"mu_offset": [0], "formula": 1, "oracle": 0}


def test_compare_mismatch_table(tmp_path, capsys, monkeypatch):
    # each difference shows its formula and oracle cells under their own
    # headers, which a swap of the two would not
    import bbsuper.verma_oracle as oracle

    def zeros(datum, lam, height):
        return dict.fromkeys(oracle.weight_window(datum.rank, height), 0)

    monkeypatch.setattr(oracle, "irreducible_dims", zeros)
    datum = write_json(tmp_path / "r2.json", R2)
    lam = write_json(tmp_path / "lam.json", {"Lambda": {"1": "1"}})
    code, out, err = run(capsys, ["compare", "--datum", datum, "--lambda", lam,
                                  "--height", "2", "--format", "table"])
    assert (code, out, err) == (2, """\
mu_offset  formula  oracle
---------  -------  ------
[0, 0]     1        0
[1, 0]     1        0
[1, 1]     1        0
""", "")


def test_format_refuses_a_value_json_cannot_encode():
    # only the _ROWS marker is written by _format's default
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        _format({"height": Fraction(1, 2), "rows": _ROWS}, "json", ("n",), [(1,)])


def test_jobs_do_not_change_output(tmp_path, capsys, sl2_files):
    datum, lam = sl2_files
    free = write_json(tmp_path / "free.json", {"A": [[-2]], "D": [1]})
    for argv in (
        ["oracle", "--datum", datum, "--lambda", lam, "--height", "3"],
        ["oracle", "--datum", free, "--height", "4", "--symbolic"],
    ):
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv + ["--jobs", "2"])
        assert code1 == 0
        assert (code1, out1) == (code2, out2)


def test_table_format(tmp_path, capsys, sl2_files):
    datum, lam = sl2_files
    code, out, _ = run(
        capsys, ["roots", "--datum", datum, "--height", "4", "--format", "table"]
    )
    assert code == 0
    assert out.splitlines()[0].split() == ["root", "mult", "parity", "class"]
    assert "{" not in out
    code, out, _ = run(
        capsys,
        [
            "char",
            "--datum",
            datum,
            "--lambda",
            lam,
            "--height",
            "3",
            "--format",
            "table",
        ],
    )
    assert code == 0
    assert out.splitlines()[0].split() == ["exp", "coef"]


def test_flag_validation(tmp_path, capsys, sl2_files):
    datum, lam = sl2_files
    code, _, err = run(capsys, ["char", "--datum", datum, "--height", "3"])
    assert code == 1
    assert "--lambda" in err
    code, _, err = run(
        capsys, ["char", "--datum", datum, "--lambda", lam, "--height", "-1"]
    )
    assert code == 1
    code, _, err = run(capsys, ["char", "--datum", datum, "--lambda", lam])
    assert code == 1
    assert "--height" in err
    code, _, _ = run(capsys, ["roots", "--height", "3"])
    assert code == 1


R2 = {"A": [[2, -1], [-1, 0]], "odd": [2]}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["validate"], """\
field      value
---------  ------
D          [1, 1]
imaginary  [2]
isotropic  [2]
odd        [2]
rank       2
real       [1]
valid      true
"""),
        (["roots", "--height", "2"], """\
root    mult  parity  class
------  ----  ------  ---------
[0, 1]  1     odd     imaginary
[1, 0]  1     even    real
[0, 2]  1     even    imaginary
[1, 1]  1     odd     imaginary
"""),
        (["denom-check", "--height", "1"], """\
root    mult  parity  class
------  ----  ------  ---------
[0, 1]  1     odd     imaginary
[1, 0]  1     even    real
"""),
        (["char", "--lambda", "{lam}", "--height", "2"], """\
exp     coef
------  ----
[0, 0]  1
[1, 0]  1
[1, 1]  1
"""),
        (["oracle", "--lambda", "{lam}", "--height", "1"], """\
mu_offset  dim
---------  ---
[0, 0]     1
[0, 1]     0
[1, 0]     1
"""),
        (["oracle", "--symbolic", "--height", "1"], """\
mu_offset  dim
---------  ---
[0, 0]     1
[0, 1]     1
[1, 0]     1
"""),
        (["compare", "--lambda", "{lam}", "--height", "1"], """\
mu_offset  formula  oracle
---------  -------  ------
"""),
    ],
    ids=["validate", "roots", "denom-check", "char", "oracle", "oracle-symbolic", "compare"],
)
def test_table_text(tmp_path, capsys, argv, expected):
    # a str cell prints as it is (char's coefficients are strings), any
    # other as compact JSON (true, lists, integers)
    datum = write_json(tmp_path / "r2.json", R2)
    lam = write_json(tmp_path / "lam.json", {"Lambda": {"1": "1"}})
    argv = [argv[0], "--datum", datum, "--format", "table"] + argv[1:]
    code, out, err = run(capsys, [a.format(lam=lam) for a in argv])
    assert (code, out, err) == (0, expected, "")


# every option a subcommand does not read, each last on an otherwise good line
@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--lambda", "{nope}"], "validate takes no --lambda"),
        (["validate", "--height", "2"], "validate takes no --height"),
        (["validate", "--symbolic"], "validate takes no --symbolic"),
        (["validate", "--jobs", "2"], "validate takes no --jobs"),
        (["roots", "--height", "2", "--lambda", "{nope}"], "roots takes no --lambda"),
        (["roots", "--height", "2", "--symbolic"], "roots takes no --symbolic"),
        (["roots", "--height", "2", "--jobs", "2"], "roots takes no --jobs"),
        (["denom-check", "--height", "2", "--lambda={nope}"], "denom-check takes no --lambda"),
        (["denom-check", "--height", "2", "--symbolic"], "denom-check takes no --symbolic"),
        (["denom-check", "--height", "2", "--jobs=2"], "denom-check takes no --jobs"),
        (["char", "--lambda", "{lam}", "--height", "2", "--symbolic"], "char takes no --symbolic"),
        (["char", "--lambda", "{lam}", "--height", "2", "--jobs", "2"], "char takes no --jobs"),
        (["compare", "--lambda", "{lam}", "--height", "2", "--symbolic"],
         "compare takes no --symbolic"),
        (["oracle", "--symbolic", "--height", "2", "--lambda", "{nope}"],
         "oracle --symbolic takes no --lambda"),
    ],
)
def test_unread_option_refused(tmp_path, capsys, sl2_files, argv, message):
    # a weight path that does not exist: the message shows it was never opened
    datum, lam = sl2_files
    nope = str(tmp_path / "nope.json")
    argv = [argv[0], "--datum", datum] + [a.format(lam=lam, nope=nope) for a in argv[1:]]
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["roots", "--datum", "{nope}"], "--height"),
        (["denom-check", "--datum", "{nope}"], "--height"),
        (["char", "--datum", "{nope}", "--lambda", "{nope}"], "--height"),
        (["char", "--datum", "{nope}", "--height", "2"], "--lambda"),
        (["oracle", "--datum", "{nope}", "--height", "2"], "--lambda"),
        (["oracle", "--datum", "{nope}", "--symbolic"], "--height"),
        (["compare", "--datum", "{nope}", "--height", "2"], "--lambda"),
        (["compare", "--lambda", "{nope}", "--height", "2"], "--datum"),
        (["validate"], "--datum"),
    ],
)
def test_missing_option_named_before_any_file(tmp_path, capsys, argv, option):
    nope = str(tmp_path / "nope.json")
    code, out, err = run(capsys, [a.format(nope=nope) for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {option} is required") and err.count("\n") == 1


def test_weight_rank_guard(tmp_path, capsys, sl2_files):
    datum, _ = sl2_files
    lam = write_json(tmp_path / "wide.json", {"Lambda": {"2": "1"}})
    code, _, err = run(
        capsys, ["char", "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert code == 1
    assert "out of range" in err


@pytest.mark.parametrize("command", ["char", "oracle"])
def test_weight_list_rejected(tmp_path, capsys, sl2_files, command):
    datum, _ = sl2_files
    lam = write_json(tmp_path / "list.json", [1])
    code, out, err = run(
        capsys, [command, "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("block", [[], 0, False, "", [1]])
def test_weight_block_must_be_an_object(tmp_path, capsys, sl2_files, block):
    datum, _ = sl2_files
    lam = write_json(tmp_path / "w.json", {"Lambda": block})
    code, out, err = run(
        capsys, ["char", "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert err.endswith("weight block 'Lambda' must be an object\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["char", "oracle"])
def test_weight_unknown_block_rejected(tmp_path, capsys, sl2_files, command):
    # a misspelled "Lambda" used to read as the weight 0
    datum, _ = sl2_files
    lam = write_json(tmp_path / "w.json", {"lambda": {"1": "1"}})
    code, out, err = run(capsys, [command, "--datum", datum, "--lambda", lam, "--height", "2"])
    assert (code, out) == (1, "")
    assert err == f"error: {lam}: unknown weight block 'lambda': use Lambda, delta or alpha\n"


def test_weight_block_null_is_zero(tmp_path, capsys, sl2_files):
    datum, _ = sl2_files
    lam = write_json(tmp_path / "w.json", {"Lambda": None, "alpha": {}})
    code, out, _ = run(capsys, ["char", "--datum", datum, "--lambda", lam, "--height", "2"])
    assert code == 0
    assert json.loads(out)["character"]["base"]["Lambda"] == {}


@pytest.mark.parametrize(
    "command, extra",
    [
        ("validate", []),
        ("roots", ["--height", "2"]),
        ("char", ["--lambda", "{lam}", "--height", "2"]),
        ("denom-check", ["--height", "2"]),
        ("oracle", ["--lambda", "{lam}", "--height", "2"]),
        ("compare", ["--lambda", "{lam}", "--height", "2"]),
        ("oracle", ["--height", "2", "--symbolic"]),
    ],
)
def test_empty_matrix_rejected(tmp_path, capsys, command, extra):
    datum = write_json(tmp_path / "d.json", {"A": []})
    lam = write_json(tmp_path / "w.json", {})
    argv = [command, "--datum", datum] + [a.format(lam=lam) for a in extra]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.endswith("matrix is empty\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["char", "oracle"])
def test_weight_zero_denominator_rejected(tmp_path, capsys, sl2_files, command):
    datum, _ = sl2_files
    lam = write_json(tmp_path / "zero.json", {"Lambda": {"1": "1/0"}})
    code, out, err = run(
        capsys, [command, "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert "zero denominator" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"Lambda": {"x": "1"}}, "index 'x' is not an integer in weight block 'Lambda'"),
        # an Arabic-Indic one, which int() takes
        ({"Lambda": {"\u0661": "1"}},
         "index '\u0661' is not an integer in weight block 'Lambda'"),
        # two keys naming one index are refused, whatever their values
        ({"Lambda": {"1": float("nan"), "01": 2}}, "index 1 given twice in weight block 'Lambda'"),
        ({"delta": {"1": 1, "01": 2}}, "index 1 given twice in weight block 'delta'"),
    ],
    ids=["not-an-integer", "arabic-indic-digit", "twice-nan", "twice-delta"],
)
@pytest.mark.parametrize("command", ["char", "oracle"])
def test_weight_key_must_be_an_integer(tmp_path, capsys, sl2_files, command, doc, message):
    datum, _ = sl2_files
    lam = write_json(tmp_path / "key.json", doc)
    code, out, err = run(
        capsys, [command, "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert err == f"error: {lam}: {message}\n"


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("command", ["char", "oracle", "compare"])
def test_weight_infinite_value_rejected(tmp_path, capsys, sl2_files, command, value):
    # json reads all three as a float infinity, which has no Fraction
    datum, _ = sl2_files
    lam = tmp_path / "inf.json"
    lam.write_text('{"Lambda": {"1": %s}}' % value)
    code, out, err = run(
        capsys, [command, "--datum", datum, "--lambda", str(lam), "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "infinite value at index 1" in err


@pytest.mark.parametrize(
    "value", ["true", "false", "NaN", "null", "[1]", "{}", '"x"', '"0x10"']
)
@pytest.mark.parametrize("command", ["char", "oracle", "compare"])
def test_weight_non_numeric_value_rejected(tmp_path, capsys, sl2_files, command, value):
    # Fraction would read true as 1 and false as 0, and fails on the others
    # without naming the entry
    datum, _ = sl2_files
    lam = tmp_path / "bad.json"
    lam.write_text('{"Lambda": {"1": %s}}' % value)
    code, out, err = run(
        capsys, [command, "--datum", datum, "--lambda", str(lam), "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-numeric value " in err and err.endswith(" at index 1 in weight block 'Lambda'\n")


@pytest.mark.parametrize(
    "block, value",
    [
        ("Lambda", '"1%s"' % ("0" * 5000)),
        ("Lambda", '"1e5000"'),
        ("delta", '"1e-5000"'),
        ("alpha", '"1/1%s"' % ("0" * 5000)),
        ("alpha", '"0.%s"' % ("0" * 5000)),
        ("delta", "-1" + "0" * 5000),
    ],
    ids=["digits", "exponent", "negative-exponent", "denominator", "decimals", "literal"],
)
@pytest.mark.parametrize("command", ["char", "oracle", "compare"])
def test_weight_past_the_digit_limit_rejected(tmp_path, capsys, sl2_files, command, block, value):
    # int() refuses a digit string over its 4300-digit limit, and str() the
    # value of "1e5000", which char writes as the base of its character:
    # each is refused where the weight is read, without echoing the entry.
    # value is the entry as the file holds it, a JSON integer literal too
    datum, _ = sl2_files
    lam = tmp_path / "long.json"
    lam.write_text('{"%s": {"1": %s}}' % (block, value))
    lam = str(lam)
    code, out, err = run(
        capsys, [command, "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert err == f"error: {lam}: more than 4300 digits at index 1 in weight block {block!r}\n"


DIGITS, TEXT = "1" * 5000, "x" * 5000


@pytest.mark.parametrize(
    "datum, lam",
    [
        ('{"A": [[2]]}', '{"Lambda": {"1": ["%s"]}}' % DIGITS),
        ('{"A": [[2]]}', '{"Lambda": {"1": [%s]}}' % DIGITS),
        ('{"A": [[2]]}', '{"Lambda": {"1": {"k": "%s"}}}' % DIGITS),
        ('{"A": [[2]]}', '{"Lambda": {"1": {"k": %s}}}' % DIGITS),
        ('{"A": [[2]]}', '{"Lambda": {"1": "%s"}}' % TEXT),
        ('{"A": [[2]]}', '{"Lambda": {"%s": 1}}' % TEXT),
        ('{"A": [[2]]}', '{"Lambda": {"%s": 1}}' % DIGITS[:4000]),
        ('{"A": [[2]]}', '{"%s": {}}' % TEXT),
        ('{"A": [[["%s"]]]}' % DIGITS, None),
        ('{"A": "%s"}' % TEXT, None),
        ('{"A": [[2]], "odd": ["%s"]}' % TEXT.replace("x", "y"), None),
        ('{"A": [[2]], "odd": [%s]}' % DIGITS[:4000], None),
        ('{"A": [[2, %s], [-1, 2]]}' % DIGITS[:4000], None),
        ('{"A": [[2]], "%s": 1}' % TEXT, None),
        # a file name past the system's limit, which no file can have
        ('{"A": [[2]]}', ["validate", "--datum", TEXT]),
        ('{"A": [[2]]}', ["char", "--lambda", TEXT, "--height", "2"]),
        # refused on the command line, before the files are read
        ('{"A": [[2]]}', ["roots", "--height", TEXT]),
        ('{"A": [[2]]}', ["roots", "--height", DIGITS]),
        ('{"A": [[2]]}', ["roots", "--height", "-" + DIGITS[:4000]]),
        ('{"A": [[2]]}', ["roots", "--height", "2", "--format", TEXT]),
        ('{"A": [[2]]}', ["roots", "--height", "2", TEXT]),
        ('{"A": [[2]]}', ["roots", "--height", "2", "--" + TEXT]),
        ('{"A": [[2]]}', ["oracle", "--symbolic", "--height", "2", "--jobs", "-" + DIGITS[:4000]]),
    ],
    ids=["list", "list-literal", "object", "object-literal", "text", "index", "index-range",
         "block", "A-entry", "A", "odd", "odd-range", "off-diagonal", "datum-key",
         "datum-path", "lambda-path", "height-text", "height-digits", "height-negative",
         "format", "argument", "option", "jobs-negative"],
)
def test_long_input_is_cut_in_the_refusal(tmp_path, capsys, monkeypatch, datum, lam):
    # a refusal names the value it refuses, but not in full: each of these
    # used to print a stderr line of 4000 to 6000 characters.  lam is the
    # weight document, or the command line around --datum
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.json").write_text(datum)
    argv = ["validate", "--datum", "d.json"]
    if isinstance(lam, list):
        argv = [lam[0], "--datum", "d.json", *lam[1:]]
    elif lam is not None:
        (tmp_path / "l.json").write_text(lam)
        argv = ["char", "--datum", "d.json", "--lambda", "l.json", "--height", "2"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200 and "characters)" in err


@pytest.mark.parametrize(
    "text, reason",
    [("[2", "1:3: Expecting"), ('{"A": [[3]]}', "diagonal"), ("\udcff", "codec")],
    ids=["json", "datum", "utf-8"],
)
def test_long_path_is_cut_in_the_refusal(tmp_path, capsys, monkeypatch, text, reason):
    # a readable file under a 4000-character path: each refusal that names
    # the file shows 120 characters of its path
    monkeypatch.chdir(tmp_path)
    path = Path(*["d" * 199] * 20) / "d.json"
    path.parent.mkdir(parents=True)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    code, out, err = run(capsys, ["validate", "--datum", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: " + "d" * 120 + "... (4006 characters)")
    assert reason in err and err.count("\n") == 1 and len(err) < 250


@pytest.mark.parametrize("cap", [DIGITS, TEXT, "-" + DIGITS[:4000]],
                         ids=["digits", "text", "negative"])
def test_long_cap_is_cut_in_the_refusal(capsys, sl2_files, monkeypatch, cap):
    # both refusals of BBSUPER_CAP name the value, but not in full: each
    # used to print a stderr line of 3000 to 5000 characters
    monkeypatch.setenv("BBSUPER_CAP", cap)
    datum, lam = sl2_files
    code, out, err = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 120 and "characters)" in err


def test_weight_float_reads_as_its_decimal(tmp_path, capsys):
    # an imaginary index takes any nonnegative pairing, and char echoes the
    # weight it read as the base of the character
    datum = write_json(tmp_path / "iso.json", {"A": [[0]]})
    lam = tmp_path / "lam.json"
    for value, read in (("0.1", "1/10"), ("1e-07", "1/10000000"), ("2.0", "2")):
        lam.write_text('{"Lambda": {"1": %s}}' % value)
        code, out, _ = run(
            capsys, ["char", "--datum", datum, "--lambda", str(lam), "--height", "2"]
        )
        assert code == 0
        assert json.loads(out)["character"]["base"]["Lambda"] == {"1": read}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_must_be_positive(capsys, sl2_files, jobs):
    datum, lam = sl2_files
    code, out, err = run(
        capsys,
        ["oracle", "--datum", datum, "--lambda", lam, "--height", "2", "--jobs", jobs],
    )
    assert (code, out) == (1, "")
    assert "--jobs" in err


def test_argparse_surface(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["roots", "--bogus"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate", "--datum", "{datum}"],
        ["--datum", "{datum}", "validate"],
        ["validate", "--datum", "{datum}", "--bogus"],
        ["validate", "--dat", "{datum}"],
        ["validate", "-d", "{datum}"],
        ["roots", "--datum", "{datum}", "--height"],
        ["roots", "--datum", "--height", "3"],
        ["oracle", "--datum", "{datum}", "--height", "2", "--symbolic=yes"],
        ["roots", "--datum", "{datum}", "--height", "three"],
        ["roots", "--datum", "{datum}", "--height=2.5"],
        ["oracle", "--datum", "{datum}", "--lambda", "{lam}", "--height", "2", "--jobs", "x"],
        # int() takes these, but an integer is ASCII digits
        ["roots", "--datum", "{datum}", "--height", "1_0"],
        ["roots", "--datum", "{datum}", "--height", "\u0662"],
        ["oracle", "--datum", "{datum}", "--lambda", "{lam}", "--height", "2", "--jobs", "1_0"],
        ["roots", "--datum", "{datum}", "--height", "2", "--format", "xml"],
        ["validate", "--datum", "{datum}", "extra"],
    ],
    ids=[
        "no-subcommand", "unknown-subcommand", "option-first", "unknown-option",
        "abbreviation", "short-option", "missing-value", "option-as-value",
        "symbolic-with-value", "height-not-int", "height-not-int-equals", "jobs-not-int",
        "height-underscore", "height-arabic-indic", "jobs-underscore", "unknown-format",
        "stray-positional",
    ],
)
def test_malformed_argv_is_one_line_error(capsys, sl2_files, argv):
    datum, lam = sl2_files
    code, out, err = run(capsys, [a.format(datum=datum, lam=lam) for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_equals_form_and_last_occurrence(capsys, sl2_files):
    datum, lam = sl2_files
    separate = ["char", "--datum", datum, "--lambda", lam, "--height", "3", "--format", "table"]
    joined = ["char", f"--datum={datum}", f"--lambda={lam}", "--height=3", "--format=table"]
    assert run(capsys, joined) == run(capsys, separate)
    assert run(capsys, separate)[0] == 0
    once = ["oracle", "--datum", datum, "--lambda", lam, "--height", "2"]
    assert run(capsys, once + ["--height=4", "--height", "2"]) == run(capsys, once)
    assert run(capsys, once + ["--height=4"]) != run(capsys, once)


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["roots", "-h"], ["char", "--datum", "x.json", "--help"]]
)
def test_help_text(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: bbsuper SUBCOMMAND")
    for word in ("validate", "roots", "char", "denom-check", "oracle", "compare",
                 "--datum", "--lambda", "--height", "--format", "--symbolic", "--jobs"):
        assert word in out


R2_LAM = ["--lambda", "lam.json", "--height", "3"]


@pytest.mark.parametrize(
    "argv, dims",
    [
        (["validate"], None),
        (["roots", "--height", "3"], None),
        (["roots", "--height", "0"], None),
        (["char", *R2_LAM], None),
        (["denom-check", "--height", "3"], None),
        (["oracle", *R2_LAM], None),
        (["oracle", "--symbolic", "--height", "3"], None),
        (["compare", *R2_LAM], None),
        (["compare", *R2_LAM], {(0, 0): 1, (1, 0): 7, (0, 1): 0}),
    ],
    ids=["validate", "roots", "roots-empty", "char", "denom-check", "oracle",
         "oracle-symbolic", "compare", "compare-differences"],
)
def test_stdout_is_canonical_json(tmp_path, capsys, monkeypatch, argv, dims):
    # each document is json.dumps(doc, indent=2, sort_keys=True), with its
    # rows at depth 0 (roots, oracle), 1 (denom-check, compare) or 2
    # (char), or with none (validate); roots at height 0 lists no root, and
    # a patched oracle gives compare a nonempty list of differences
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "r2.json", {"A": [[2, -1], [-1, 0]], "odd": [2]})
    write_json(tmp_path / "lam.json", {"Lambda": {"1": "1"}})
    if dims is not None:
        monkeypatch.setattr("bbsuper.verma_oracle.irreducible_dims", lambda *args: dims)
    code, out, err = run(capsys, [argv[0], "--datum", "r2.json", *argv[1:]])
    assert (code, err) == (0 if dims is None else 2, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    if dims is not None:
        assert json.loads(out)["differences"]
