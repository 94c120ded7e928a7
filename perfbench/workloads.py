"""Workloads of the bbsuper benchmark: data, job lists, seeded relabelling
and the correctness checks applied to every job's output.

A seed picks one permutation of the simple-root indices per datum and
relabels A, D, the odd set and the highest weight with it.  Seed 0 is the
identity.  Outputs under any seed are mapped back to the identity labels
and must then reproduce, byte for byte, the canonical JSON recorded in
reference.json at seed 0.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb

# 1-based JSON, as the CLI reads it; D is all ones.
DATUMS = {
    "r4": {
        "A": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -1], [-1, 0, -1, -2]],
        "D": [1, 1, 1, 1],
        "odd": [3],
    },
    "r3": {"A": [[2, -1, -1], [-1, 0, -1], [-1, -1, -2]], "D": [1, 1, 1], "odd": [2]},
    "r2": {"A": [[2, -1], [-1, 0]], "D": [1, 1], "odd": [2]},
    "r1iso": {"A": [[0]], "D": [1], "odd": []},
}
LAMBDAS = {
    "r4": {"Lambda": {"1": "1", "2": "1"}},
    "r3": {"Lambda": {"1": "1"}},
    "r2": {"Lambda": {"1": "1"}},
    "r1iso": {"Lambda": {"1": "1"}},
}


@dataclass(frozen=True)
class Job:
    """One CLI call.  metric names the per-subcommand time it adds to."""

    name: str
    command: str
    datum: str
    metric: str
    height: int | None = None
    lam: bool = False
    extra: tuple = ()
    env: tuple = ()

    def argv(self, files) -> list:
        """CLI arguments after the program name; files maps a datum name
        to its (datum path, weight path)."""
        datum_path, lam_path = files[self.datum]
        out = [self.command, "--datum", datum_path]
        if self.lam:
            out += ["--lambda", lam_path]
        if self.height is not None:
            out += ["--height", str(self.height)]
        return out + list(self.extra)

    def cells(self) -> int:
        """Window cells covered: every offset of height at most H."""
        if self.height is None:
            return 0
        rank = len(DATUMS[self.datum]["A"])
        return comb(self.height + rank, rank)


def _setup(datum):
    return Job(f"validate-{datum}", "validate", datum, "setup_s")


# Why these jobs: see README.md.  Each list is one pass, run in order.
WORKLOADS = {
    "formula": (
        Job("roots-r4-h12", "roots", "r4", "roots_s", 12),
        Job("char-r4-h12", "char", "r4", "char_s", 12, lam=True),
        Job("char-r3-h16", "char", "r3", "char_s", 16, lam=True),
        Job("denom-r4-h12", "denom-check", "r4", "denom_s", 12),
    ),
    "crosscheck": (
        Job("compare-r2-h6", "compare", "r2", "compare_s", 6, lam=True),
        Job("compare-r3-h5", "compare", "r3", "compare_s", 5, lam=True, extra=("--jobs", "1")),
        Job(
            "compare-r3-h5-jobs2", "compare", "r3", "compare_jobs2_s", 5, lam=True,
            extra=("--jobs", "2"),
        ),
        Job(
            "oracle-r1iso-h8", "oracle", "r1iso", "oracle_s", 8, lam=True,
            env=(("BBSUPER_CAP", "8"),),
        ),
    ),
    "symbolic": (
        Job("symbolic-r2-h5", "oracle", "r2", "symbolic_s", 5, extra=("--symbolic",)),
        Job("symbolic-r3-h3", "oracle", "r3", "symbolic_s", 3, extra=("--symbolic",)),
    ),
}

# set-up is timed on the workload's largest datum
SETUP = {"formula": _setup("r4"), "crosscheck": _setup("r3"), "symbolic": _setup("r3")}


def permutation(seed: int, datum: str) -> tuple:
    """Position k of the relabelled datum holds original index perm[k]."""
    perm = list(range(len(DATUMS[datum]["A"])))
    if seed:
        random.Random(f"{seed}/{datum}").shuffle(perm)
    return tuple(perm)


def relabel_inputs(datum: str, perm) -> tuple:
    """The datum and weight documents under the permutation."""
    doc = DATUMS[datum]
    a = doc["A"]
    odd = {i - 1 for i in doc["odd"]}
    new_datum = {
        "A": [[a[i][j] for j in perm] for i in perm],
        "D": [doc["D"][i] for i in perm],
        "odd": [k + 1 for k, i in enumerate(perm) if i in odd],
    }
    inverse = {old: new for new, old in enumerate(perm)}
    new_lam = {
        block: {str(inverse[int(key) - 1] + 1): value for key, value in entries.items()}
        for block, entries in LAMBDAS[datum].items()
    }
    return new_datum, new_lam


def _vector(perm, v):
    out = [0] * len(v)
    for k, x in enumerate(v):
        out[perm[k]] = x
    return out


def _indices(perm, one_based):
    return sorted(perm[j - 1] + 1 for j in one_based)


def _weight(perm, doc):
    if doc is None:
        return None
    return {
        block: {str(perm[int(key) - 1] + 1): value for key, value in entries.items()}
        for block, entries in doc.items()
    }


def _graded(key):
    return lambda row: (sum(row[key]), row[key])


def _roots(perm, rows):
    rows = [dict(r, root=_vector(perm, r["root"])) for r in rows]
    return sorted(rows, key=_graded("root"))


def unrelabel(command: str, doc, perm):
    """Map a parsed CLI output back to the identity labels, restoring the
    CLI's own ordering of every list."""
    if command == "validate":
        doc = dict(doc, D=_vector(perm, doc["D"]))
        for key in ("real", "imaginary", "isotropic", "odd"):
            doc[key] = _indices(perm, doc[key])
        return doc
    if command == "roots":
        return _roots(perm, doc)
    if command == "denom-check":
        return dict(doc, roots=_roots(perm, doc["roots"]))
    if command == "char":
        series = doc["character"]
        terms = [dict(t, exp=_vector(perm, t["exp"])) for t in series["terms"]]
        series = dict(
            series,
            base=_weight(perm, series["base"]),
            terms=sorted(terms, key=_graded("exp")),
        )
        return dict(doc, character=series)
    if command == "oracle":
        rows = [dict(r, mu_offset=_vector(perm, r["mu_offset"])) for r in doc]
        return sorted(rows, key=_graded("mu_offset"))
    if command == "compare":
        rows = [dict(r, mu_offset=_vector(perm, r["mu_offset"])) for r in doc["differences"]]
        return dict(doc, differences=sorted(rows, key=_graded("mu_offset")))
    raise ValueError(f"no relabelling rule for {command}")


def canonical(doc) -> str:
    """The CLI's JSON rendering, including print's newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def meaning(command, doc):
    """None when the output says what a correct run says, else why not."""
    if command == "compare" and doc["matches"] is not True:
        return "compare reports a mismatch"
    if command == "denom-check" and (doc["ok"] is not True or doc["residual_terms"] != 0):
        return "denominator identity fails"
    if command == "char" and doc["diagnostics"]["residual_terms"] != 0:
        return "character quotient leaves a residual"
    return None


def check(job: Job, perm, code: int, stdout: str, reference: dict) -> str | None:
    """None when the job's output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        reason = meaning(job.command, doc)
        if reason:
            return reason
        if perm == tuple(range(len(perm))):
            got = digest(stdout)
        else:
            got = digest(canonical(unrelabel(job.command, doc, perm)))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return f"unexpected output shape: {exc!r}"
    want = reference.get(job.name)
    if got != want:
        return f"stdout digest {got[:12]} differs from reference {str(want)[:12]}"
    return None
