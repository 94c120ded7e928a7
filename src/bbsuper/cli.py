"""Batch front end over JSON files.

Every subcommand reads a datum (and usually a weight) from JSON, runs
one engine entry point and prints a single canonical document, so runs
are reproducible byte for byte.  Exit codes:
0 success, 1 bad input, 2 comparison mismatch, 3 resource cap hit.
"""
from __future__ import annotations

import argparse
import json
import sys

from .charformula import (
    character_result_to_json,
    irreducible_character,
    numerator_series,
)
from .datum import datum_from_json, weight_from_json
from .errors import BBSuperError, Unreachable
from .roots import roots_to_json, solve_multiplicities
from .series import denominator_R
from .verma_oracle import (
    caps_from_env,
    generic_dims,
    irreducible_dims,
    weight_window,
)

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


def _emit(doc, fmt, table_rows):
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
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
    rows = [(k, json.dumps(doc[k])) for k in sorted(doc)]
    _emit(doc, args.format, (("field", "value"), rows))
    return EXIT_OK


def _roots_rows(rows_json):
    return (
        ("root", "mult", "parity", "class"),
        [(json.dumps(r["root"]), r["mult"], r["parity"], r["class"]) for r in rows_json],
    )


def _cmd_roots(args):
    datum = _load_datum(args.datum)
    height = _need_height(args)
    table = solve_multiplicities(datum, height)
    doc = roots_to_json(table)
    _emit(doc, args.format, _roots_rows(doc))
    return EXIT_OK


def _cmd_char(args):
    datum = _load_datum(args.datum)
    lam = _load_weight(datum, args.lam)
    height = _need_height(args)
    result = irreducible_character(datum, lam, height)
    doc = character_result_to_json(result)
    rows = [(json.dumps(t["exp"]), t["coef"]) for t in doc["character"]["terms"]]
    _emit(doc, args.format, (("exp", "coef"), rows))
    return EXIT_OK


def _cmd_denom_check(args):
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
    """Window offsets and their dimensions, in one in-process pass; lam
    None gives the generic (Verma) dimensions."""
    caps = caps_from_env()
    offsets = weight_window(datum.rank, height)
    if lam is None:
        return offsets, generic_dims(datum, height, caps)
    return offsets, irreducible_dims(datum, lam, height, caps)


def _cmd_oracle(args):
    datum = _load_datum(args.datum)
    lam = None if args.symbolic else _load_weight(datum, args.lam)
    height = _need_height(args)
    offsets, dims = _oracle_dims(datum, lam, height)
    doc = [
        {"mu_offset": list(beta), "dim": dim} for beta, dim in zip(offsets, dims)
    ]
    rows = [(json.dumps(list(beta)), dim) for beta, dim in zip(offsets, dims)]
    _emit(doc, args.format, (("mu_offset", "dim"), rows))
    return EXIT_OK


def _cmd_compare(args):
    datum = _load_datum(args.datum)
    lam = _load_weight(datum, args.lam)
    height = _need_height(args)
    result = irreducible_character(datum, lam, height)
    offsets, dims = _oracle_dims(datum, lam, height)
    differences = []
    for beta, dim in zip(offsets, dims):
        formula = result.series.coefficient(beta)
        if formula != dim:
            differences.append(
                {"mu_offset": list(beta), "formula": int(formula), "oracle": dim}
            )
    doc = {
        "height": height,
        "cells": len(offsets),
        "matches": not differences,
        "differences": differences,
    }
    rows = (
        ("mu_offset", "formula", "oracle"),
        [(json.dumps(d["mu_offset"]), d["formula"], d["oracle"]) for d in differences],
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbsuper",
        description="Characters, root multiplicities and Gram-rank checks "
        "for highest-weight modules over generalized Cartan data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--datum", help="path to datum JSON")
        p.add_argument("--lambda", dest="lam", help="path to highest-weight JSON")
        p.add_argument("--height", type=int, default=None, help="window depth")
        p.add_argument(
            "--format", choices=("json", "table"), default="json", help="output style"
        )
        p.add_argument(
            "--symbolic",
            action="store_true",
            help="generic-weight mode (oracle only)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility; every subcommand runs in one "
            "process and the value changes nothing",
        )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_BAD_INPUT
    try:
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
