"""Batch front end over JSON files.

Every subcommand reads a datum (and usually a weight) from JSON, runs
one engine entry point and prints a single canonical document, so runs
are reproducible byte for byte.  Exit codes:
0 success, 1 bad input or a failed write to stdout, 2 comparison
mismatch, 3 resource cap hit.  Bad input is any ValueError, from this
module or an engine, and prints one `error: ...` line.  _over_cap holds
every resource rule, the oracle's height cap, the window budget and the
time budget; main asks it once the inputs load and before the handler
imports an engine, so a run over a cap prints one `resource cap: ...`
line before any work starts.  The engines take only values and raise
only ValueError.

The subcommand comes first; each option is `--opt value` or
`--opt=value`, in full, and the last one wins.  _COMMANDS says which
options each subcommand reads; any other option, like any malformed
command line, exits 1 with one `error: ...` line before a file is read.
`-h` or `--help` anywhere prints the help text.  cli alone parses argv
and BBSUPER_CAP, each integer through datum._read_int; main loads the
inputs and prints what the handler returns.

Each handler builds its document's rows once, one tuple per JSON object
with the cells in the order of its keys, and both formats read them:
_format lines them up as a table, or writes the document with json.dumps
and puts them where the document holds the _ROWS marker.  _json_rows
writes them there through one % template per list, since json.dumps with
an indent runs the pure-Python encoder, which takes several times as
long on a list of some hundreds of rows.  The engines return data only;
this module is the one that formats output.

Each call is one short process, so start-up counts: options are read
from a table (argparse loads gettext and locale too), and each
handler imports its engine itself, so validate stops at the datum, the
formula side never loads the oracle, and the oracle never loads the
formula side.  Exit costs too: the interpreter collects garbage as it
shuts down, and walking the cyclic objects that start-up built (modules,
classes, functions) took most of the shutdown.  So main, when it is the
process (argv None: `python -m bbsuper.cli` and the installed script),
first moves them to the permanent generation with gc.freeze, which no
later collection visits.  A caller that passes argv is a longer-lived
process, a test run or the benchmark's traced mode, and is left as it is:
there a freeze would keep its garbage until it exits.
"""

import gc
import json
import os
import sys
from math import comb
from types import SimpleNamespace

from .datum import _echo, _read_int, datum_from_json, weight_from_json, weight_to_json

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2
EXIT_CAPPED = 3

# the deepest oracle window when BBSUPER_CAP is unset
DEFAULT_ORACLE_CAP = 6
# window cells times rank that a run may span: the A_1100 chain runs at
# height 1 (1,211,100) and is refused at height 2 (667,316,100)
MAX_WINDOW_WORK = 10**7
# window cells times height: r4 runs at height 60 (38,122,560) and a rank-1
# datum at height 6324, well before its multiplicities pass int's digit limit
MAX_WINDOW_TIME = 4 * 10**7


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, or ValueError when a key is given twice,
    where json.loads would keep the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {_echo(key)} given twice")
        out[key] = value
    return out


def _load(path, parse, *context, parse_int=None):
    """parse(*context, the JSON document at path, its integer literals read
    by parse_int, int by default), or a ValueError that names path when the
    file cannot be read or decoded or the document is not valid.  The
    message shows at most 120 characters of path, more than a value gets,
    so that a file deep in a temporary or build directory is still named
    in full."""
    name = _echo(path, str, 120)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(*context, json.loads(fh.read(), parse_int=parse_int,
                                              object_pairs_hook=_unique_keys))
    except OSError as exc:
        raise ValueError(f"{name}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{name}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    # not UTF-8, an integer over int's digit limit, arrays nested past the
    # recursion limit, a key given twice, or a document that parse refuses
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"{name}: {exc}") from None


# The place of a handler's row list in its document.  json.dumps writes
# it as "\u0000", which no other string in a document can be: each other
# one is a fixed key, an index or a number written by str().
_ROWS = "\0"


def _json_rows(columns, rows, indent):
    """rows as the JSON list that json.dumps writes at indent, of objects
    keyed by columns, through one % template.  A row lists its cells in
    the order of their keys, sorted: one is a nonempty tuple of ints, and
    each other an int or a str that JSON needs no escape for, of the type
    that the first row has there."""
    if not rows:
        return "[]"
    inner, field, cell = indent + "  ", indent + "    ", indent + "      "
    values = []
    for k, x in enumerate(rows[0]):
        if type(x) is tuple:
            ints, j = f",\n{cell}".join(["%d"] * len(x)), k
            values.append(f"[\n{cell}{ints}\n{field}]")
        else:
            values.append('"%s"' if type(x) is str else "%d")
    fields = ",\n".join([f"{field}{json.dumps(k)}: {v}" for k, v in zip(sorted(columns), values)])
    template = f"{{\n{fields}\n{inner}}}"
    body = f",\n{inner}".join([template % (r[:j] + r[j] + r[j + 1:]) for r in rows])
    return f"[\n{inner}{body}\n{indent}]"


def _format(doc, fmt, columns, rows) -> str:
    """doc as JSON, with rows at its _ROWS marker if it has one, or as a
    table of the given columns over rows, tuples that list their cells in
    the order of the sorted columns: a str cell shows as it is, any other
    as json.dumps."""
    if fmt == "json":
        head, marker, tail = json.dumps(doc, indent=2, sort_keys=True).partition(json.dumps(_ROWS))
        if not marker:
            return head
        line = head[head.rfind("\n") + 1:]
        return head + _json_rows(columns, rows, line[:len(line) - len(line.lstrip())]) + tail
    order = [sorted(columns).index(c) for c in columns]
    rendered = [[c if type(c) is str else json.dumps(c) for c in map(row.__getitem__, order)]
                for row in rows]
    widths = [len(h) for h in columns]
    for row in rendered:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = [columns, ["-" * w for w in widths], *rendered]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                     for line in lines)


def _one_based(indices):
    return [i + 1 for i in indices]


def _cmd_validate(datum, lam, height):
    doc = {
        "valid": True,
        "rank": datum.rank,
        "D": list(datum.d),
        "real": _one_based(datum.real_indices),
        "imaginary": _one_based(datum.imaginary_indices),
        "isotropic": _one_based(datum.isotropic_indices),
        "odd": _one_based(sorted(datum.odd)),
    }
    return doc, ("field", "value"), [(k, doc[k]) for k in sorted(doc)]


_ROOT_COLUMNS = ("root", "mult", "parity", "class")


def _root_rows(table):
    """The rows of roots and denom-check, one per root in graded order:
    class, mult, parity and root."""
    return [("real" if e.is_real else "imaginary", e.mult, "odd" if e.parity else "even", beta)
            for beta, e in table.items_sorted()]


def _cmd_roots(datum, lam, height):
    from .roots import solve_multiplicities

    rows = _root_rows(solve_multiplicities(datum, height))
    return _ROWS, _ROOT_COLUMNS, rows


def _cmd_char(datum, lam, height):
    from .charformula import irreducible_character

    result = irreducible_character(datum, lam, height)
    columns = ("exp", "coef")
    # the document writes each coefficient as a string
    rows = [(str(c), e) for e, c in result.series.items_sorted()]
    doc = {
        "character": {
            "base": weight_to_json(result.highest_weight),
            "height_bound": result.series.height_bound,
            "terms": _ROWS,
        },
        "diagnostics": {k: getattr(result, k)
                        for k in ("orbit_size", "support_terms", "residual_terms")},
    }
    return doc, columns, rows


def _cmd_denom_check(datum, lam, height):
    from .charformula import numerator_series
    from .roots import denominator_residual_terms, solve_multiplicities

    numerator = numerator_series(datum, datum.zero_weight(), height)
    table = solve_multiplicities(datum, height, numerator)
    residual = denominator_residual_terms(datum, table, numerator)
    rows = _root_rows(table)
    doc = {
        "height": height,
        "residual_terms": residual,
        "ok": not residual,
        "roots": _ROWS,
    }
    return doc, _ROOT_COLUMNS, rows


def _cmd_oracle(datum, lam, height):
    from .verma_oracle import irreducible_dims

    columns = ("mu_offset", "dim")
    rows = [(dim, beta) for beta, dim in irreducible_dims(datum, lam, height).items()]
    return _ROWS, columns, rows


def _cmd_compare(datum, lam, height):
    from .charformula import irreducible_character
    from .verma_oracle import irreducible_dims

    # the formula side first, so a weight it refuses costs no oracle window
    series = irreducible_character(datum, lam, height).series
    dims = irreducible_dims(datum, lam, height)
    columns = ("mu_offset", "formula", "oracle")
    rows = []
    for beta, dim in dims.items():
        formula = series.coefficient(beta)
        if formula != dim:
            rows.append((formula, beta, dim))
    doc = {
        "height": height,
        "cells": len(dims),
        "matches": not rows,
        "differences": _ROWS,
    }
    return doc, columns, rows


# subcommand -> (handler, the options it reads besides --datum and --format),
# as README's table of what each subcommand needs says.  A handler takes
# (datum, weight or None, height or None) and returns (doc, table columns,
# the rows that doc holds at its _ROWS marker or, for validate, lists).
_COMMANDS = {
    "validate": (_cmd_validate, ()),
    "roots": (_cmd_roots, ("--height",)),
    "char": (_cmd_char, ("--lambda", "--height")),
    "denom-check": (_cmd_denom_check, ("--height",)),
    "oracle": (_cmd_oracle, ("--lambda", "--height", "--symbolic", "--jobs")),
    "compare": (_cmd_compare, ("--lambda", "--height", "--jobs")),
}


_HELP = """\
usage: bbsuper SUBCOMMAND [options]

Characters, root multiplicities and Gram-rank checks for highest-weight
modules over generalized Cartan data.

subcommands: validate, roots, char, denom-check, oracle, compare

options, each as --opt value or --opt=value; an option that the
subcommand does not read is an error:
  --datum PATH           path to datum JSON (every subcommand)
  --lambda PATH          path to highest-weight JSON (char, oracle, compare)
  --height N             window depth (every subcommand but validate)
  --format {json,table}  output style, default json (every subcommand)
  --symbolic             generic weight instead of --lambda (oracle)
  --jobs N               accepted for compatibility by oracle and compare;
                         each runs in one process and the value changes nothing
  -h, --help             print this text and exit"""

# option -> (attribute, conversion of its value)
_OPTIONS = {
    "--datum": ("datum", str),
    "--lambda": ("lam", str),
    "--height": ("height", _read_int),
    "--format": ("format", str),
    "--jobs": ("jobs", _read_int),
}


def _parse_args(argv) -> SimpleNamespace:
    """The subcommand and options of argv, with every option the subcommand
    needs present and in range; ValueError when argv is malformed."""
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError(f"the first argument must be a subcommand: {', '.join(_COMMANDS)}")
    command = argv[0]
    reads = ("--datum", "--format") + _COMMANDS[command][1]
    args = SimpleNamespace(subcommand=command, datum=None, lam=None, height=None,
                           format="json", symbolic=False, jobs=1)
    rest = iter(argv[1:])
    for arg in rest:
        option, eq, value = arg.partition("=")
        if arg != "--symbolic" and option not in _OPTIONS:
            raise ValueError(f"unrecognized argument {_echo(arg)}")
        if option not in reads:
            raise ValueError(f"{command} takes no {option}")
        if arg == "--symbolic":
            args.symbolic = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{option} needs a value")
        name, convert = _OPTIONS[option]
        try:
            setattr(args, name, convert(value))
        except ValueError:
            raise ValueError(f"{option} needs an integer, got {_echo(value)}") from None
    if args.format not in ("json", "table"):
        raise ValueError(f"--format must be json or table, got {_echo(args.format)}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be positive, got {_echo(args.jobs)}")
    if args.symbolic and args.lam is not None:
        raise ValueError(f"{command} --symbolic takes no --lambda")
    if args.datum is None:
        raise ValueError("--datum is required")
    if "--lambda" in reads and args.lam is None and not args.symbolic:
        raise ValueError("--lambda is required for this subcommand")
    if "--height" in reads and args.height is None:
        raise ValueError("--height is required for this subcommand")
    if "--height" in reads and args.height < 0:
        raise ValueError(f"--height must be nonnegative, got {_echo(args.height)}")
    return args


def _over_cap(command, rank, height):
    """Why a run of command at this rank and height is refused, or None.
    oracle and compare first meet the oracle's height cap, BBSUPER_CAP or
    DEFAULT_ORACLE_CAP; then every subcommand that takes --height meets
    the window budget, C(height + rank, rank) cells times rank at most
    MAX_WINDOW_WORK, and the time budget, those cells times height at
    most MAX_WINDOW_TIME."""
    if command in ("oracle", "compare"):
        raw = os.environ.get("BBSUPER_CAP")
        try:
            cap = DEFAULT_ORACLE_CAP if raw is None else _read_int(raw)
        except ValueError:
            raise ValueError(f"cannot parse BBSUPER_CAP={_echo(raw)}") from None
        if cap < 1:
            raise ValueError(f"BBSUPER_CAP takes positive integers, got {_echo(raw)}")
        if height > cap:
            # the window is graded, so its first cell over the cap is that deep
            return f"height {cap + 1} exceeds cap {cap}; raise BBSUPER_CAP to go deeper"
    if height is None:
        return None
    # a height past the budget is over it at any rank, so the count need not
    # grow with the height's digits, and the line does not show it
    cells = comb(min(height, MAX_WINDOW_WORK) + rank, rank)
    if cells * rank > MAX_WINDOW_WORK:
        return (f"height {_echo(height)} at rank {rank} spans more window cells times rank"
                f" than the window budget {MAX_WINDOW_WORK}")
    if cells * height > MAX_WINDOW_TIME:
        return (f"height {height} at rank {rank} spans more window cells times height"
                f" than the time budget {MAX_WINDOW_TIME}")
    return None


def main(argv=None) -> int:
    if argv is None:
        # the call is the process, so the collections at exit may skip
        # what start-up built (see the module docstring)
        gc.freeze()
        argv = sys.argv[1:]
    code = EXIT_OK
    try:
        if "-h" in argv or "--help" in argv:
            text = _HELP
        else:
            args = _parse_args(argv)
            datum = _load(args.datum, datum_from_json)
            # a weight's integer literal reaches weight_from_json as its
            # digits, so one past int's digit limit is refused like a string
            lam = None if args.lam is None else _load(args.lam, weight_from_json, datum,
                                                      parse_int=str)
            over = _over_cap(args.subcommand, datum.rank, args.height)
            if over:
                print(f"resource cap: {over}", file=sys.stderr)
                return EXIT_CAPPED
            doc, columns, rows = _COMMANDS[args.subcommand][0](datum, lam, args.height)
            text = _format(doc, args.format, columns, rows)
            if args.subcommand == "compare" and not doc["matches"]:
                code = EXIT_MISMATCH
    except ValueError as exc:
        # every refusal: a malformed command line, an unreadable or invalid
        # file, a bad BBSUPER_CAP, and the engines' own checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        print(text, flush=True)
    except OSError as exc:
        # the reader closed stdout (`| head -1`) or the write failed (a full
        # disk): point stdout at devnull so that the flush at exit does not
        # raise again, and exit 1, in silence for a closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
