"""The CLI as a child process: each subcommand loads only its engine,
integral input loads no fractions, a reader that closes stdout early
gets no traceback, nor does a write to a full device, and the package
defines nothing that it does not use itself and one exception class.

Every run starts a fresh interpreter, because a module loaded by an
earlier test would hide what a subcommand imports by itself.
"""
import ast
import builtins
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bbsuper

# Runs the CLI, then writes the modules that it loaded to the file named
# by argv[1]; modules the interpreter loaded at start-up do not count.
PROBE = """\
import sys
before = set(sys.modules)
from bbsuper.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

FORMULA_SIDE = {"bbsuper.charformula", "bbsuper.roots", "bbsuper.series"}
ORACLE_SIDE = {"bbsuper.verma_oracle", "bbsuper.exactlinalg"}
# weights with integral entries are held as ints and the oracle eliminates
# in integers, so integral input loads neither of these
FRACTIONS = {"fractions", "decimal"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    datum, lam, half = root / "datum.json", root / "lam.json", root / "half.json"
    datum.write_text(json.dumps({"A": [[2, -1], [-1, 0]], "odd": [2]}))
    lam.write_text(json.dumps({"Lambda": {"1": "1"}}))
    # a fractional pairing at the isotropic index keeps lam dominant
    half.write_text(json.dumps({"Lambda": {"1": "1", "2": "1/2"}}))
    return root, str(datum), str(lam), str(half)


def package_env():
    """os.environ with the directory this package came from first on
    PYTHONPATH."""
    src = str(Path(bbsuper.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def loaded(files, *argv):
    """Modules a fresh interpreter loads to run one subcommand."""
    root, datum, lam, half = files
    out = root / "modules.txt"
    argv = [a.format(datum=datum, lam=lam, half=half) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *argv],
        env=package_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(out.read_text().split())
    # argparse brings gettext and locale with it; no annotation needs
    # __future__
    assert not modules & {"dataclasses", "argparse", "gettext", "locale", "__future__"}
    return modules


def test_validate_loads_no_engine(files):
    modules = loaded(files, "validate", "--datum", "{datum}")
    assert {m for m in modules if m.startswith("bbsuper")} == {
        "bbsuper", "bbsuper.cli", "bbsuper.datum", "bbsuper.errors",
    }
    assert not modules & FRACTIONS


def test_module_entry_point_reads_sys_argv(files):
    _, datum, _, _ = files
    proc = subprocess.run(
        [sys.executable, "-m", "bbsuper.cli", "validate", "--datum", datum],
        env=package_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["odd"] == [2]


@pytest.mark.parametrize(
    "argv, first_line",
    [
        # r4's root table to height 16 is about 280 kB, more than a pipe
        # holds, so the child is still writing when the reader goes
        # (`| head -1`)
        (["roots", "--datum", "{datum}", "--height", "16"], "[\n"),
        # the pipe is closed before the child writes, so even a short
        # output meets it
        (["--help"], None),
    ],
    ids=["roots", "help"],
)
def test_closed_stdout_exits_1_in_silence(tmp_path, argv, first_line):
    datum = tmp_path / "r4.json"
    datum.write_text(json.dumps(
        {"A": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]], "odd": [3]}
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bbsuper.cli", *(a.format(datum=datum) for a in argv)],
        env=package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--datum", "{datum}"),
        ("roots", "--datum", "{datum}", "--height", "3", "--format", "table"),
    ],
    ids=["validate", "roots-table"],
)
def test_full_stdout_is_one_line_error(files, argv):
    # every write to /dev/full fails with ENOSPC
    _, datum, _, _ = files
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bbsuper.cli", *(a.format(datum=datum) for a in argv)],
            env=package_env(), stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: stdout: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--datum", "{datum}", "--height", "3"),
        ("char", "--datum", "{datum}", "--lambda", "{lam}", "--height", "3"),
        ("denom-check", "--datum", "{datum}", "--height", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_formula_commands_load_no_oracle(files, argv):
    modules = loaded(files, *argv)
    assert "bbsuper.charformula" in modules
    assert not modules & (ORACLE_SIDE | FRACTIONS)


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--datum", "{datum}", "--lambda", "{lam}", "--height", "3"),
        ("oracle", "--symbolic", "--datum", "{datum}", "--height", "3"),
    ],
    ids=["numeric", "symbolic"],
)
def test_oracle_loads_no_formula_side(files, argv):
    modules = loaded(files, *argv)
    assert "bbsuper.verma_oracle" in modules
    assert not modules & (FORMULA_SIDE | FRACTIONS)


def test_compare_loads_both_sides(files):
    modules = loaded(files, "compare", "--datum", "{datum}", "--lambda", "{lam}", "--height", "3")
    assert {"bbsuper.charformula", "bbsuper.verma_oracle"} <= modules
    assert not modules & FRACTIONS


@pytest.mark.parametrize("command", ["char", "oracle"])
def test_fractional_weight_entry_still_runs(files, command):
    modules = loaded(files, command, "--datum", "{datum}", "--lambda", "{half}", "--height", "3")
    assert "fractions" in modules


# Names a caller outside the package uses by design: the console-script
# entry point, and the fixture constructors the tests build weights and
# series from.
USED_FROM_OUTSIDE = {"main", "OddCartanDatum.fundamental_weight", "CharSeries.one"}


def _definitions(node, prefix=""):
    """(qualified name, node) of every function and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            yield name, child
            yield from _definitions(child, name + ".")
        else:
            yield from _definitions(child, prefix)


def _references(node) -> Counter:
    """Identifiers read under node, as names or as attributes; strings do
    not count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_used_in_the_package():
    trees = [ast.parse(path.read_text()) for path in Path(bbsuper.__file__).parent.glob("*.py")]
    total = sum((_references(tree) for tree in trees), Counter())
    unused = [
        name
        for tree in trees
        for name, node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and name not in USED_FROM_OUTSIDE
        # a recursive call inside the definition does not count
        and total[node.name] == _references(node)[node.name]
    ]
    assert unused == []


def test_one_exception_class():
    # every refusal is a ValueError; only the height cap, which exits 3
    # instead of 1, has a type of its own
    bases = {}
    for path in Path(bbsuper.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[path.stem, node.name] = [ast.unparse(b) for b in node.bases]
    local = {name: names for (_, name), names in bases.items()}

    def is_exception(base):
        if base in local:
            return any(map(is_exception, local[base]))
        kind = getattr(builtins, base, None)
        return isinstance(kind, type) and issubclass(kind, BaseException)

    found = [key for key, names in bases.items() if any(map(is_exception, names))]
    assert found == [("errors", "Unreachable")]
