"""Record each job's seed-0 stdout digest in reference.json.

    python3 perfbench/capture.py

Run from the repository root at the commit whose outputs are the
reference.  A job that exits nonzero or fails its meaning check aborts
the capture.
"""
from __future__ import annotations

import json
import platform
import shutil
import sys
from time import perf_counter

from run import HERE, OUT, Runner
from workloads import SETUP, WORKLOADS, digest, meaning


def main():
    OUT.mkdir(exist_ok=True)
    digests = {}
    for workload, jobs in WORKLOADS.items():
        workdir = OUT / f"capture-{workload}"
        workdir.mkdir()
        try:
            runner = Runner(workload, 0, workdir, perf_counter() + 600, {})
            for job in jobs + (SETUP[workload],):
                _, code, _, stdout = runner.spawn(job)
                reason = f"exit code {code}" if code != 0 else meaning(job.command, json.loads(stdout))
                if reason:
                    sys.exit(f"capture: {job.name}: {reason}")
                digests[job.name] = digest(stdout)
        finally:
            shutil.rmtree(workdir)
    doc = {"python": platform.python_version(), "jobs": dict(sorted(digests.items()))}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
