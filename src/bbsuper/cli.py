"""Batch front end over JSON files.

Every subcommand reads a datum (and usually a weight) from JSON, runs
one engine entry point and prints a single canonical document, so runs
are reproducible byte for byte.  Exit codes:
0 success, 1 bad input, 2 comparison mismatch, 3 resource cap hit.

The subcommand comes first; each option is `--opt value` or
`--opt=value`, in full, and the last one wins.  `-h` or `--help`
anywhere prints the help text.  A malformed command line exits 1 with
one `error: ...` line, like any other bad input.

Each call is one short process, so start-up counts: options are read
from a table (argparse loads gettext and locale too), _render writes the
JSON (json.dumps with an indent runs the pure-Python encoder), and each
handler imports its engine itself, so validate stops at the datum, the
formula side never loads the oracle, and the oracle never loads the
formula side.
"""
from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .datum import datum_from_json, weight_from_json
from .errors import BBSuperError, Unreachable

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2
EXIT_CAPPED = 3


class _CliError(Exception):
    """Input problem that should become exit code 1 with a message."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def _load_datum(path):
    if path is None:
        raise _CliError("--datum is required")
    try:
        return datum_from_json(_load_json(path))
    except (BBSuperError, ValueError, KeyError, TypeError) as exc:
        raise _CliError(f"{path}: {exc}") from None


def _load_weight(datum, path):
    if path is None:
        raise _CliError("--lambda is required for this subcommand")
    try:
        return weight_from_json(datum, _load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise _CliError(f"{path}: {exc}") from None


def _need_height(args):
    if args.height is None:
        raise _CliError("--height is required for this subcommand")
    if args.height < 0:
        raise _CliError(f"--height must be nonnegative, got {args.height}")
    return args.height


def _render(obj, indent=""):
    """json.dumps(obj, indent=2, sort_keys=True) for str-keyed dicts,
    lists, tuples, str, int, bool and None; TypeError on any other type."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _quote(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_render(x, inner) for x in obj])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join([f"{_quote(k)}: {_render(obj[k], inner)}" for k in sorted(obj)])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(doc, fmt, table_rows):
    """Print doc as JSON, or table_rows, (headers, rows), as a table; rows
    may be a generator, and only a table consumes it."""
    if fmt == "json":
        print(_render(doc))
        return
    headers, rows = table_rows
    widths = [len(h) for h in headers]
    rendered = [[str(c) for c in row] for row in rows]
    for row in rendered:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line.rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rendered:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _one_based(indices):
    return [i + 1 for i in indices]


def _cmd_validate(args):
    datum = _load_datum(args.datum)
    doc = {
        "valid": True,
        "rank": datum.rank,
        "D": list(datum.d),
        "real": _one_based(datum.real_indices),
        "imaginary": _one_based(datum.imaginary_indices),
        "isotropic": _one_based(datum.isotropic_indices),
        "odd": _one_based(sorted(datum.odd)),
    }
    rows = ((k, json.dumps(doc[k])) for k in sorted(doc))
    _emit(doc, args.format, (("field", "value"), rows))
    return EXIT_OK


def _roots_rows(rows_json):
    return (
        ("root", "mult", "parity", "class"),
        ((json.dumps(r["root"]), r["mult"], r["parity"], r["class"]) for r in rows_json),
    )


def _cmd_roots(args):
    from .roots import roots_to_json, solve_multiplicities

    datum = _load_datum(args.datum)
    height = _need_height(args)
    table = solve_multiplicities(datum, height)
    doc = roots_to_json(table)
    _emit(doc, args.format, _roots_rows(doc))
    return EXIT_OK


def _cmd_char(args):
    from .charformula import character_result_to_json, irreducible_character

    datum = _load_datum(args.datum)
    lam = _load_weight(datum, args.lam)
    height = _need_height(args)
    result = irreducible_character(datum, lam, height)
    doc = character_result_to_json(result)
    rows = ((json.dumps(t["exp"]), t["coef"]) for t in doc["character"]["terms"])
    _emit(doc, args.format, (("exp", "coef"), rows))
    return EXIT_OK


def _cmd_denom_check(args):
    from .charformula import numerator_series
    from .roots import roots_to_json, solve_multiplicities
    from .series import denominator_R

    datum = _load_datum(args.datum)
    height = _need_height(args)
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
    rows = _roots_rows(doc["roots"])
    _emit(doc, args.format, rows)
    return EXIT_OK


def _oracle_dims(datum, lam, height):
    """{offset: dim} over the window in window order, from one in-process
    pass under the BBSUPER_CAP height cap; lam None gives the generic
    (Verma) dimensions."""
    from .verma_oracle import caps_from_env, generic_dims, irreducible_dims

    max_height = caps_from_env(os.environ)
    if lam is None:
        return generic_dims(datum, height, max_height)
    return irreducible_dims(datum, lam, height, max_height)


def _cmd_oracle(args):
    datum = _load_datum(args.datum)
    lam = None if args.symbolic else _load_weight(datum, args.lam)
    height = _need_height(args)
    dims = _oracle_dims(datum, lam, height)
    doc = [{"mu_offset": list(beta), "dim": dim} for beta, dim in dims.items()]
    rows = ((json.dumps(list(beta)), dim) for beta, dim in dims.items())
    _emit(doc, args.format, (("mu_offset", "dim"), rows))
    return EXIT_OK


def _cmd_compare(args):
    from .charformula import irreducible_character

    datum = _load_datum(args.datum)
    lam = _load_weight(datum, args.lam)
    height = _need_height(args)
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
    rows = (
        ("mu_offset", "formula", "oracle"),
        ((json.dumps(d["mu_offset"]), d["formula"], d["oracle"]) for d in differences),
    )
    _emit(doc, args.format, rows)
    return EXIT_OK if not differences else EXIT_MISMATCH


_COMMANDS = {
    "validate": _cmd_validate,
    "roots": _cmd_roots,
    "char": _cmd_char,
    "denom-check": _cmd_denom_check,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


_HELP = """\
usage: bbsuper SUBCOMMAND [options]

Characters, root multiplicities and Gram-rank checks for highest-weight
modules over generalized Cartan data.

subcommands: validate, roots, char, denom-check, oracle, compare

options, each as --opt value or --opt=value:
  --datum PATH           path to datum JSON
  --lambda PATH          path to highest-weight JSON
  --height N             window depth
  --format {json,table}  output style (default json)
  --symbolic             generic-weight mode (oracle only)
  --jobs N               accepted for compatibility; every subcommand runs
                         in one process and the value changes nothing
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
    """The subcommand and options of argv; _CliError when it is malformed."""
    if not argv or argv[0] not in _COMMANDS:
        raise _CliError(f"the first argument must be a subcommand: {', '.join(_COMMANDS)}")
    args = SimpleNamespace(subcommand=argv[0], datum=None, lam=None, height=None,
                           format="json", symbolic=False, jobs=1)
    rest = iter(argv[1:])
    for arg in rest:
        if arg == "--symbolic":
            args.symbolic = True
            continue
        option, eq, value = arg.partition("=")
        if option not in _OPTIONS:
            raise _CliError(f"unrecognized argument {arg!r}")
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise _CliError(f"{option} needs a value")
        name, convert = _OPTIONS[option]
        try:
            setattr(args, name, convert(value))
        except ValueError:
            raise _CliError(f"{option} needs an integer, got {value!r}") from None
    if args.format not in ("json", "table"):
        raise _CliError(f"--format must be json or table, got {args.format!r}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_HELP)
        return EXIT_OK
    try:
        args = _parse_args(argv)
        if args.jobs < 1:
            raise _CliError(f"--jobs must be positive, got {args.jobs}")
        return _COMMANDS[args.subcommand](args)
    except Unreachable as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except (_CliError, ValueError, BBSuperError) as exc:
        # ValueError covers BBSUPER_CAP parse failures and malformed vectors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
