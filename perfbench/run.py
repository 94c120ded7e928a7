"""Benchmark of the bbsuper CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload formula --seed 0 --seconds 40 --trace 0

Run from the repository root.  With --trace 0 each job is a child process
(`python -m bbsuper.cli` with src on PYTHONPATH), one at a time: a closed
loop with a single client.  The workload's jobs run round-robin until the
next one would end after --seconds; set-up runs and runs of hostref.py,
which measure the host's current speed, are spread between them.  With
--trace 1 three passes run in-process (warm-up, untraced, traced), and the
result holds the per-layer metrics instead.

Every job is checked against reference.json (see workloads.py).  The last
line of stdout is the JSON result; the lines before it name each metric
with its unit and sample count.  Spans, samples and the environment are
written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import hostref
from spans import Tracer, import_layers
from workloads import SETUP, WORKLOADS, check, permutation, relabel_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 15
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0
# hostref.py runs at most once a second, before a job; REF_S is its mean
# time on the 2-vCPU host the benchmark was written on (Python 3.11.7)
REF_EVERY_S = 1.0
REF_S = 0.2

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
}


@dataclass
class Sample:
    job: str
    wall: float
    cpu: float
    rss_mb: float
    error: str | None


class Runner:
    """Runs jobs of one workload at one seed and checks their output."""

    def __init__(self, workload, seed, workdir, deadline, reference):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.reference = reference
        self.files = {}
        self.perms = {}
        for job in WORKLOADS[workload] + (SETUP[workload],):
            if job.datum in self.files:
                continue
            perm = permutation(seed, job.datum)
            datum_doc, lam_doc = relabel_inputs(job.datum, perm)
            paths = (workdir / f"{job.datum}.json", workdir / f"{job.datum}-lambda.json")
            paths[0].write_text(json.dumps(datum_doc))
            paths[1].write_text(json.dumps(lam_doc))
            self.files[job.datum] = tuple(str(p) for p in paths)
            self.perms[job.datum] = perm
        self.samples = []

    def _timeout(self):
        return max(1.0, min(JOB_TIMEOUT_S, self.deadline - perf_counter()))

    def execute(self, argv, env):
        """Run argv as a child process, timed from spawn to reaping.
        Returns (wall, exit code or None on timeout, rusage, stdout)."""
        out_path = self.workdir / "stdout"
        killed = []

        def kill():
            killed.append(True)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        with open(out_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                    start_new_session=True)
            timer = threading.Timer(self._timeout(), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return wall, None if killed else code, usage, out_path.read_text()

    def spawn(self, job):
        """Run one job as a child process; returns what execute returns."""
        env = {k: v for k, v in os.environ.items() if k != "BBSUPER_CAP"}
        env.update(job.env)
        env["PYTHONPATH"] = str(ROOT / "src")
        return self.execute([sys.executable, "-m", "bbsuper.cli"] + job.argv(self.files), env)

    def host_reference(self) -> float:
        """Wall time of one run of hostref.py, which must print its checksum."""
        wall, code, _, stdout = self.execute(
            [sys.executable, str(HERE / "hostref.py")], dict(os.environ))
        if code != 0 or stdout.strip() != str(hostref.CHECKSUM):
            raise RuntimeError(f"hostref.py exited {code} and printed {stdout.strip()!r}")
        return wall

    def child(self, job) -> Sample:
        wall, code, usage, stdout = self.spawn(job)
        if code is None:
            error = "timed out"
        else:
            error = check(job, self.perms[job.datum], code, stdout, self.reference)
        sample = Sample(job.name, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024, error)
        self.samples.append(sample)
        return sample

    def in_process(self, main, job) -> Sample:
        """One job through bbsuper.cli.main in this process."""
        saved = os.environ.pop("BBSUPER_CAP", None)
        os.environ.update(job.env)
        out = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(job.argv(self.files))
        except Exception as exc:  # a crash is this job's failure, not the run's
            code, error = None, f"raised {exc!r}"
        wall = perf_counter() - start
        os.environ.pop("BBSUPER_CAP", None)
        if saved is not None:
            os.environ["BBSUPER_CAP"] = saved
        if code is not None:
            error = check(job, self.perms[job.datum], code, out.getvalue(), self.reference)
        sample = Sample(job.name, wall, 0.0, 0.0, error)
        self.samples.append(sample)
        return sample


def measure(runner, seconds):
    """End-to-end metrics from child processes, with tracing off."""
    jobs = WORKLOADS[runner.workload]
    # set-up samples are spread over the window, so that one slow spell of
    # the machine does not hold all of them
    setup_every = seconds / SETUP_RUNS
    setup, refs = [], []
    samples = {job.name: [] for job in jobs}
    last_setup = last_ref = None
    start = perf_counter()
    # jobs run round-robin until the next one would end after --seconds,
    # so the whole window is measured even when it is not a whole number
    # of passes; a job's expected time is its last one
    for job in cycle(jobs):
        done = samples[job.name]
        now = perf_counter()
        if done and (now - start + done[-1].wall > seconds
                     or now + done[-1].wall > runner.deadline):
            break
        if last_ref is None or now - last_ref >= REF_EVERY_S:
            last_ref = now
            refs.append(runner.host_reference())
        if last_setup is None or now - last_setup >= setup_every:
            last_setup = now
            setup.append(runner.child(SETUP[runner.workload]))
        done.append(runner.child(job))
    # The host's speed drifts by up to 1.5x over minutes (other tenants of
    # the machine), and the jobs and hostref.py slow down together.  Every
    # time is therefore scaled to a host on which hostref.py takes REF_S.
    scale = REF_S / fmean(refs)
    # Times of one job within a run spread flat over a range of up to 2x,
    # where a mean is a much steadier estimate than a median; runs are
    # compared by their medians.  A pass is the sum of the job means.
    wall = {name: fmean(s.wall for s in done) for name, done in samples.items()}
    cpu = {name: fmean(s.cpu for s in done) for name, done in samples.items()}
    rss = {name: median(s.rss_mb for s in done) for name, done in samples.items()}
    counts = sorted({len(done) for done in samples.values()})
    raw = {
        "setup_s": fmean(s.wall for s in setup),
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "hostref_s": fmean(refs),
    }
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "cpu_s": raw["cpu_s"] * scale,
        "peak_rss_mb": max(rss.values()),
        "cells_per_s": sum(j.cells() for j in jobs) / (raw["wall_s"] * scale),
    }
    by_command = {}
    for job in jobs:
        by_command[job.metric] = by_command.get(job.metric, 0.0) + wall[job.name] * scale
    notes = {
        "setup_s": f"mean of {len(setup)} runs of {SETUP[runner.workload].name} between jobs",
        "wall_s": f"one pass; per-job means over {'-'.join(map(str, counts))} runs each, summed",
        "cpu_s": "user+system of the children (os.wait4), per-job means summed",
        "peak_rss_mb": "largest per-job median of the child's max RSS",
        "cells_per_s": f"{sum(j.cells() for j in jobs)} window cells per pass / wall_s",
    }
    host = {"raw": raw, "hostref_runs": len(refs), "hostref_walls": refs, "scale": scale}
    return metrics, by_command, notes, host


def traced(runner):
    """Per-layer metrics from in-process passes: a warm-up, an untraced
    and a traced one."""
    sys.path.insert(0, str(ROOT / "src"))
    mods = import_layers()
    jobs = WORKLOADS[runner.workload]
    for job in jobs:  # lazy imports, the first pool and caches settle here
        runner.in_process(mods["cli"].main, job)
    untraced_wall = sum(runner.in_process(mods["cli"].main, job).wall for job in jobs)
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced_wall = 0.0
        for index, job in enumerate(jobs):
            tracer.request = index
            traced_wall += runner.in_process(mods["cli"].main, job).wall
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced_wall, untraced_wall)
    spans_path = OUT / f"spans-{runner.workload}-seed{runner.seed}.json"
    spans_path.write_text(json.dumps(
        {"requests": [j.name for j in jobs], "spans": tracer.span_records()}))
    return metrics, tracer.bases()


def environment():
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def declared_metrics(trace):
    """Names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_BUDGET_S
    if not (ROOT / "src" / "bbsuper" / "cli.py").is_file():
        print(f"perfbench: no bbsuper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        reference = json.loads((HERE / "reference.json").read_text())["jobs"]
        runner = Runner(args.workload, args.seed, workdir, deadline, reference)
        if args.trace:
            values, bases = traced(runner)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            extra = {"bases": bases}
        else:
            values, by_command, notes, host = measure(runner, args.seconds)
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            extra = {"by_command_s": by_command, "notes": notes, "host": host}
    finally:
        shutil.rmtree(workdir)

    declared = declared_metrics(args.trace)
    produced = {k: m["unit"] for k, m in metrics.items()}
    if produced != declared:
        print(f"perfbench: metrics {sorted(produced.items())} do not match "
              f"BENCHMARK.json {sorted(declared.items())}", file=sys.stderr)
        return 2
    failed = [s for s in runner.samples if s.error]
    attempted = len(runner.samples)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "metrics": metrics, **extra,
        "fail_frac": len(failed) / attempted,
        "samples": [s.__dict__ for s in runner.samples],
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {env['python']}, nproc {env['nproc']}, commit {env['commit']}, "
          f"load {env['loadavg_start'][0]:.2f}")
    for name, m in metrics.items():
        note = extra.get("notes", {}).get(name, "")
        print(f"  {name:30} {m['value']:>14.6g} {m['unit']:6} {note}")
    if "host" in extra:
        host = extra["host"]
        print(f"  times above are scaled by {host['scale']:.4f}: hostref.py took "
              f"{host['raw']['hostref_s']:.4f} s (mean of {host['hostref_runs']}), "
              f"REF_S is {REF_S} s")
        for name, value in host["raw"].items():
            print(f"  {'raw ' + name:30} {value:>14.6g} s      as measured, not scaled")
    for name, value in extra.get("by_command_s", {}).items():
        print(f"  {name:30} {value:>14.6g} s      per-subcommand share of wall_s")
    for name, (num, base, what) in extra.get("bases", {}).items():
        print(f"  {name:30} = {num} / {base} {what}")
    print(f"  {'fail_frac':30} {len(failed) / attempted:>14.6g} ratio  "
          f"{len(failed)} of {attempted} jobs failed")
    for s in failed:
        print(f"  FAILED {s.job}: {s.error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
