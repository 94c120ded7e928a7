"""Batch front end over JSON files.

Every subcommand reads a datum (and usually a weight) from JSON, runs
one engine entry point and prints a single canonical document, so runs
are reproducible byte for byte.  Exit codes:
0 success, 1 bad input or a failed write to stdout, 2 comparison
mismatch, 3 resource cap hit.  Bad input is any ValueError, from this
module or an engine, and prints one `error: ...` line; the cap is
errors.Unreachable and prints one `resource cap: ...` line.

The subcommand comes first; each option is `--opt value` or
`--opt=value`, in full, and the last one wins.  _COMMANDS says which
options each subcommand reads; any other option, like any malformed
command line, exits 1 with one `error: ...` line before a file is read.
`-h` or `--help` anywhere prints the help text.  main loads the inputs
and prints what the handler returns.

Each call is one short process, so start-up counts: options are read
from a table (argparse loads gettext and locale too), _render writes the
JSON (json.dumps with an indent runs the pure-Python encoder), and each
handler imports its engine itself, so validate stops at the datum, the
formula side never loads the oracle, and the oracle never loads the
formula side.
"""

import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .datum import datum_from_json, weight_from_json
from .errors import Unreachable

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2
EXIT_CAPPED = 3


def _load(path, parse, *context):
    """parse(*context, the JSON document at path), or a ValueError that
    names path when the file cannot be read or decoded or the document is
    not valid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(*context, json.loads(fh.read()))
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    # not UTF-8, an integer over int's digit limit, arrays nested past the
    # recursion limit, or a document that parse refuses
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _render(obj, indent=""):
    """json.dumps(obj, indent=2, sort_keys=True) for str-keyed dicts,
    lists, tuples, str, int, bool and None; TypeError on any other type.
    Types are matched exactly (bool is not int here), which is quicker
    than isinstance and refuses subclasses."""
    kind = type(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _quote(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_render(x, inner) for x in obj])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict:
        if not obj:
            return "{}"
        body = sep.join([f"{_quote(k)}: {_render(obj[k], inner)}" for k in sorted(obj)])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _format(doc, fmt, columns, rows) -> str:
    """doc as JSON, or as a table of the given columns over rows, the dicts
    that doc holds: a str cell shows as it is, any other as json.dumps."""
    if fmt == "json":
        return _render(doc)
    rendered = [[row[k] if isinstance(row[k], str) else json.dumps(row[k]) for k in columns]
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
    return doc, ("field", "value"), [{"field": k, "value": doc[k]} for k in sorted(doc)]


_ROOT_COLUMNS = ("root", "mult", "parity", "class")


def _cmd_roots(datum, lam, height):
    from .roots import roots_to_json, solve_multiplicities

    doc = roots_to_json(solve_multiplicities(datum, height))
    return doc, _ROOT_COLUMNS, doc


def _cmd_char(datum, lam, height):
    from .charformula import character_result_to_json, irreducible_character

    doc = character_result_to_json(irreducible_character(datum, lam, height))
    return doc, ("exp", "coef"), doc["character"]["terms"]


def _cmd_denom_check(datum, lam, height):
    from .charformula import numerator_series
    from .roots import roots_to_json, solve_multiplicities
    from .series import denominator_R

    table = solve_multiplicities(datum, height)
    residual = denominator_R(datum, table, height) - numerator_series(
        datum, datum.zero_weight(), height
    )
    doc = {
        "height": height,
        "residual_terms": len(residual.terms),
        "ok": not residual.terms,
        "roots": roots_to_json(table),
    }
    return doc, _ROOT_COLUMNS, doc["roots"]


def _oracle_dims(datum, lam, height):
    """{offset: dim} over the window in window order, from one in-process
    pass under the BBSUPER_CAP height cap; lam None gives the generic
    (Verma) dimensions."""
    from .verma_oracle import caps_from_env, irreducible_dims

    return irreducible_dims(datum, lam, height, caps_from_env(os.environ))


def _cmd_oracle(datum, lam, height):
    dims = _oracle_dims(datum, lam, height)
    doc = [{"mu_offset": list(beta), "dim": dim} for beta, dim in dims.items()]
    return doc, ("mu_offset", "dim"), doc


def _cmd_compare(datum, lam, height):
    from .charformula import irreducible_character

    # the oracle first: it checks its cap before any work on either side
    dims = _oracle_dims(datum, lam, height)
    result = irreducible_character(datum, lam, height)
    differences = []
    for beta, dim in dims.items():
        formula = result.series.coefficient(beta)
        if formula != dim:
            differences.append(
                {"mu_offset": list(beta), "formula": int(formula), "oracle": dim}
            )
    doc = {
        "height": height,
        "cells": len(dims),
        "matches": not differences,
        "differences": differences,
    }
    return doc, ("mu_offset", "formula", "oracle"), differences


# subcommand -> (handler, the options it reads besides --datum and --format),
# as README's table of what each subcommand needs says.  A handler takes
# (datum, weight or None, height or None) and returns (doc, table columns,
# table rows), the rows being dicts that doc holds.
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
    "--height": ("height", int),
    "--format": ("format", str),
    "--jobs": ("jobs", int),
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
            raise ValueError(f"unrecognized argument {arg!r}")
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
            raise ValueError(f"{option} needs an integer, got {value!r}") from None
    if args.format not in ("json", "table"):
        raise ValueError(f"--format must be json or table, got {args.format!r}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be positive, got {args.jobs}")
    if args.symbolic and args.lam is not None:
        raise ValueError(f"{command} --symbolic takes no --lambda")
    if args.datum is None:
        raise ValueError("--datum is required")
    if "--lambda" in reads and args.lam is None and not args.symbolic:
        raise ValueError("--lambda is required for this subcommand")
    if "--height" in reads and args.height is None:
        raise ValueError("--height is required for this subcommand")
    if "--height" in reads and args.height < 0:
        raise ValueError(f"--height must be nonnegative, got {args.height}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code = EXIT_OK
    try:
        if "-h" in argv or "--help" in argv:
            text = _HELP
        else:
            args = _parse_args(argv)
            datum = _load(args.datum, datum_from_json)
            lam = None if args.lam is None else _load(args.lam, weight_from_json, datum)
            doc, columns, rows = _COMMANDS[args.subcommand][0](datum, lam, args.height)
            text = _format(doc, args.format, columns, rows)
            if args.subcommand == "compare" and not doc["matches"]:
                code = EXIT_MISMATCH
    except Unreachable as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAPPED
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
