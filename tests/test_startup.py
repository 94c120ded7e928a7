"""The CLI as a child process: each subcommand loads only its engine,
integral input loads no fractions, only the process entry freezes its
start-up objects, a reader that closes stdout early gets no traceback,
nor does a write to a full device, the package defines nothing that it
does not use itself and no exception class, the kernels, series.py and
exactlinalg.py, import nothing from the package, roots.py imports only
datum.py and series.py, and only series.py writes a series' terms.

Every run starts a fresh interpreter, because a module loaded by an
earlier test would hide what a subcommand imports by itself.
"""
import ast
import builtins
import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bbsuper
from bbsuper.cli import main

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
        "bbsuper", "bbsuper.cli", "bbsuper.datum",
    }
    assert not modules & FRACTIONS


# Runs the CLI as the process does, from sys.argv, then writes how many
# objects gc.freeze moved to the permanent generation to the file named by
# argv[1].
FROZEN_PROBE = """\
import gc, sys
from bbsuper.cli import main
out, sys.argv = sys.argv[1], ["bbsuper", *sys.argv[2:]]
code = main()
with open(out, "w") as fh:
    fh.write(str(gc.get_freeze_count()))
sys.exit(code)
"""


def test_in_process_main_freezes_nothing(files):
    # a caller that passes argv lives on after main returns: what main
    # leaves behind must stay collectable
    _, datum, lam, _ = files
    frozen = gc.get_freeze_count()
    assert main(["char", "--datum", datum, "--lambda", lam, "--height", "3"]) == 0
    assert gc.get_freeze_count() == frozen


def test_process_entry_freezes_start_up(files, capsys):
    # argv None is the process itself, which freezes what start-up built
    # so that the collections at exit skip it; the output is the same
    root, datum, _, _ = files
    argv = ["roots", "--datum", datum, "--height", "5"]
    out = root / "frozen.txt"
    proc = subprocess.run(
        [sys.executable, "-c", FROZEN_PROBE, str(out), *argv],
        env=package_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(out.read_text()) > 0
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


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


# The one name a caller outside the package uses by design: the
# console-script entry point.
USED_FROM_OUTSIDE = {"main"}


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


def package_imports(module):
    """What the package module imports from the package, a relative name
    with its leading dots, after checking that the walk saw any import."""
    tree = ast.parse((Path(bbsuper.__file__).parent / f"{module}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported  # the walk saw the module's own imports
    return [name for name in imported if name.startswith(".") or name.split(".")[0] == "bbsuper"]


@pytest.mark.parametrize("module", ["series", "exactlinalg"])
def test_kernel_imports_nothing_from_the_package(module):
    # the series and linear-algebra kernels sit below the datum and the
    # engines; they read only exponent tuples and rows
    assert package_imports(module) == []


def test_root_solver_imports_only_the_datum_and_series():
    # the caller passes the N_0 that the solver peels, so roots.py needs
    # nothing of charformula, which builds it
    assert sorted(package_imports("roots")) == [".datum", ".series"]


def test_only_series_writes_series_terms():
    # a series' terms are written only by series.py, whose constructor
    # checks and cuts every exponent; elsewhere a series is built through
    # CharSeries(...), so the exponent rule has one owner
    writers = []
    for path in Path(bbsuper.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # an assigned or deleted target, as in `s.terms = ...`,
            # `s.terms[e] += c` or `del s.terms[e]`
            if not isinstance(getattr(node, "ctx", ast.Load()), ast.Load):
                while isinstance(node, ast.Subscript):
                    node = node.value
                if isinstance(node, ast.Attribute) and node.attr == "terms":
                    writers.append((path.name, node.lineno))
    assert {name for name, _ in writers} == {"series.py"}, writers


def test_one_exception_class():
    # every refusal is a ValueError, and the CLI checks the resource caps
    # itself before any engine runs, so no exception crosses a module
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
    assert found == []


def test_only_the_cli_reads_the_environment():
    # the engines take every setting as a parameter; the CLI alone turns
    # text from outside the input files, argv and BBSUPER_CAP, into values
    readers = set()
    for path in Path(bbsuper.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = set(_references(tree))
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        if names & {"environ", "getenv"}:
            readers.add(path.name)
    assert readers == {"cli.py"}
