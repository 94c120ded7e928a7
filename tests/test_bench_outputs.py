"""Every job of the benchmark, the set-up runs included, run in-process at
seed 0, prints exactly the stdout whose SHA-256 perfbench/reference.json
records."""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from bbsuper.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))
from workloads import SETUP, WORKLOADS, permutation, relabel_inputs  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["jobs"]
# crosscheck, symbolic and the set-up runs; two workloads share validate-r3
OTHER_JOBS = tuple(
    dict.fromkeys(WORKLOADS["crosscheck"] + WORKLOADS["symbolic"] + tuple(SETUP.values()))
)


def job_digest(job, tmp_path, capsys, monkeypatch):
    """SHA-256 of the job's stdout, under the job's environment as perfbench
    sets it (the fixtures have already removed BBSUPER_CAP)."""
    for key, value in job.env:
        monkeypatch.setenv(key, value)
    datum_doc, lam_doc = relabel_inputs(job.datum, permutation(0, job.datum))
    paths = (tmp_path / "datum.json", tmp_path / "lambda.json")
    paths[0].write_text(json.dumps(datum_doc))
    paths[1].write_text(json.dumps(lam_doc))
    assert main(job.argv({job.datum: tuple(map(str, paths))})) == 0
    stdout = capsys.readouterr().out
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("job", WORKLOADS["formula"], ids=lambda job: job.name)
def test_formula_job_matches_reference_digest(job, tmp_path, capsys, monkeypatch):
    assert job_digest(job, tmp_path, capsys, monkeypatch) == REFERENCE[job.name]


@pytest.mark.parametrize("job", OTHER_JOBS, ids=lambda job: job.name)
def test_other_job_matches_reference_digest(job, tmp_path, capsys, monkeypatch):
    assert job_digest(job, tmp_path, capsys, monkeypatch) == REFERENCE[job.name]


def test_every_reference_digest_is_checked():
    assert {job.name for job in WORKLOADS["formula"] + OTHER_JOBS} == set(REFERENCE)
