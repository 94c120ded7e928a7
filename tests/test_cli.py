"""Command-line surface: parsing, exit codes, canonical output."""
import json

import pytest

from bbsuper.cli import main
from bbsuper.datum import validate_datum, weight_to_json


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def sl2_files(tmp_path):
    datum = write_json(tmp_path / "datum.json", {"A": [[2]], "D": [1]})
    d = validate_datum([[2]], [1])
    lam = write_json(
        tmp_path / "lam.json", weight_to_json(2 * d.fundamental_weight(0))
    )
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


def test_validate_rejects_bad_datum(tmp_path, capsys):
    datum = write_json(tmp_path / "d.json", {"A": [[3]], "D": [1]})
    code, out, err = run(capsys, ["validate", "--datum", datum])
    assert code == 1
    assert "error" in err


def test_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, ["validate", "--datum", str(tmp_path / "nope.json")])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"A": [[2]\n,, ]}')
    code, _, err = run(capsys, ["validate", "--datum", str(bad)])
    assert code == 1
    assert "bad.json:2" in err


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


def test_oracle_cap_exit(tmp_path, capsys, sl2_files, monkeypatch):
    monkeypatch.delenv("BBSUPER_CAP", raising=False)
    datum, lam = sl2_files
    code, _, err = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "7"]
    )
    assert code == 3
    assert "cap" in err


def test_oracle_cap_env_override(tmp_path, capsys, sl2_files, monkeypatch):
    monkeypatch.setenv("BBSUPER_CAP", "12")
    datum, lam = sl2_files
    code, out, _ = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "7"]
    )
    assert code == 0
    assert [cell["dim"] for cell in json.loads(out)] == [1, 1, 1, 0, 0, 0, 0, 0]


def test_oracle_symbolic_caps(tmp_path, capsys, monkeypatch):
    datum = write_json(tmp_path / "d.json", {"A": [[-2]], "D": [1]})
    argv = ["oracle", "--datum", datum, "--height", "7", "--symbolic"]
    monkeypatch.delenv("BBSUPER_CAP", raising=False)
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "cap" in err
    monkeypatch.setenv("BBSUPER_CAP", "8")
    code, out, _ = run(capsys, argv)
    assert code == 0
    # the free algebra: compositions of n
    assert [cell["dim"] for cell in json.loads(out)] == [1, 1, 2, 4, 8, 16, 32, 64]


def test_oracle_cap_env_malformed(tmp_path, capsys, sl2_files, monkeypatch):
    monkeypatch.setenv("BBSUPER_CAP", "eight")
    datum, lam = sl2_files
    code, _, err = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert code == 1


@pytest.mark.parametrize("cap", ["0", "-2", "4,0"])
def test_oracle_cap_env_nonpositive(capsys, sl2_files, monkeypatch, cap):
    monkeypatch.setenv("BBSUPER_CAP", cap)
    datum, lam = sl2_files
    code, _, err = run(
        capsys, ["oracle", "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert code == 1
    assert "positive" in err


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
    import bbsuper.cli as cli_mod

    def zeros(datum, lam, height, caps=None):
        return [0] * len(cli_mod.weight_window(datum.rank, height))

    monkeypatch.setattr(cli_mod, "irreducible_dims", zeros)
    datum, lam = sl2_files
    code, out, _ = run(
        capsys, ["compare", "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["matches"] is False
    assert doc["differences"][0] == {"mu_offset": [0], "formula": 1, "oracle": 0}


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


@pytest.mark.parametrize("command", ["char", "oracle"])
def test_weight_zero_denominator_rejected(tmp_path, capsys, sl2_files, command):
    datum, _ = sl2_files
    lam = write_json(tmp_path / "zero.json", {"Lambda": {"1": "1/0"}})
    code, out, err = run(
        capsys, [command, "--datum", datum, "--lambda", lam, "--height", "2"]
    )
    assert (code, out) == (1, "")
    assert "zero denominator" in err and err.count("\n") == 1


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
