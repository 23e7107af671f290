"""Pipeline benchmark for solvtree: end-to-end metrics, or per-layer with --trace 1.

    python3 bench/run.py --workload {paper-cv,hard-fit,cli-pipeline}
        [--seed N] [--seconds T] [--trace 0|1]

Run from anywhere; it works on the checkout that holds this file, imports
solvtree from its ``src/`` and writes only under ``.bench_out/`` there.
Workloads, job definitions and output checks live in ``workloads.py``.

The load is a closed loop with one client: jobs run back to back, one at a
time, job ``i`` with a seed derived from ``--seed`` and ``i``. The program
sees only the generated inputs and the ``--seed`` flags of its CLI. Each
job runs in a fresh worker process (``worker.py``) with one thread
(OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS are 1), so
solvtree's in-process caches start cold for every job, as in a fresh CLI
invocation, and nothing is warmed up.

--trace 0 runs jobs for ``--seconds`` and prints the end-to-end metrics:
  setup_s      median over the job processes of the time from process
               start to the job's timer: interpreter, imports, job inputs
  job_p50_s    median job latency
  rows_per_s   input rows per job x jobs / summed job latencies
  peak_rss_mb  median over the job processes of ru_maxrss when the job ends
and fail_ratio, the failed share of jobs; its parts are the result line's
``failed`` and ``attempted``.

--trace 1 runs each of the workload's fixed number of jobs twice, untraced
then traced, and prints the per-layer metrics of the traced jobs
(``tracing.py``) and the tracing overhead: traced minus untraced wall over
the same jobs. Spans go to ``.bench_out/spans-<workload>-seed<N>.jsonl``.

A job fails when it raises, when a CLI step exits non-zero, when an output
check fails, or when its output hash differs from the one recorded for
this seed and job in ``expected.json``. Per-job SHA-256 hashes are printed
so two commits can be compared byte for byte on any seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A human-readable
report precedes it, and the full result, with provenance and hashes, is
written to ``.bench_out/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("paper-cv", "hard-fit", "cli-pipeline")
# a run must end within 180 s; leave room for start-up and clean-up
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    pass


def worker_env() -> dict[str, str]:
    # solvtree comes from this checkout's src/ only, and CLI seeds from the --seed flags only
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SOLVTREE_SEED")}
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (monotonic time it was started, its JSON result)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv], cwd=ROOT, env=worker_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(argv)} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return spawned_at, json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"), GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git failed)"
    return proc.stdout.strip() or "unknown (git failed)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_job(name: str, seed: int, index: int, workdir: Path, deadline: float,
            trace_out=None) -> dict:
    """Job ``index`` of the run in a fresh worker; adds its set-up time as ``setup_s``."""
    argv = ["--workload", name, "--seed", str(seed), "--job", str(index),
            "--workdir", str(workdir / f"job{index}")]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    spawned_at, res = spawn(argv, deadline)
    res["setup_s"] = res["ready_at"] - spawned_at
    return res


def run_jobs(name: str, seed: int, workdir: Path, deadline: float, done) -> list[dict]:
    """Jobs 0, 1, ... back to back until ``done(jobs)``."""
    jobs = [run_job(name, seed, 0, workdir, deadline)]
    while not done(jobs):
        jobs.append(run_job(name, seed, len(jobs), workdir, deadline))
    return jobs


def end_to_end(name: str, seed: int, seconds: float, workdir: Path, deadline: float):
    start = time.monotonic()
    jobs = run_jobs(name, seed, workdir, deadline, lambda _: time.monotonic() - start >= seconds)
    setup = [j["setup_s"] for j in jobs]
    latencies = [j["latency_s"] for j in jobs]
    rows = jobs[0]["rows_per_job"]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "job_p50_s": metric(statistics.median(latencies), "s"),
        "rows_per_s": metric(rows * len(jobs) / sum(latencies), "rows/s"),
        "peak_rss_mb": metric(statistics.median(j["peak_rss_mb"] for j in jobs), "MB"),
    }
    # the highest percentile with at least ten jobs above it
    q = int(100 * (1 - 10 / len(jobs)))
    tail = (f"; p{q} {statistics.quantiles(latencies, n=100)[q - 1]:.4g} s" if q > 50
            else "; too few jobs for a tail percentile")
    notes = {
        "setup_s": f"median of {len(jobs)} fresh job processes",
        "job_p50_s": f"median of {len(jobs)} jobs{tail}",
        "rows_per_s": f"{rows} rows per job",
        "peak_rss_mb": f"median of {len(jobs)} job processes",
    }
    return metrics, notes, jobs


def per_layer(name: str, seed: int, workdir: Path, deadline: float):
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    spans.unlink(missing_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    # the workload fixes the job count, so counts repeat exactly across commits;
    # each job runs untraced, then traced, so drift in machine speed hits both alike
    while not plain or len(plain) < plain[0]["trace_jobs"]:
        i = len(plain)
        plain.append(run_job(name, seed, i, workdir / "plain", deadline))
        traced.append(run_job(name, seed, i, workdir / "traced", deadline, trace_out=spans))
    count = len(traced)
    plain_s = sum(j["latency_s"] for j in plain)
    traced_s = sum(j["latency_s"] for j in traced)
    metrics = tracing.layer_metrics(tracing.merge_totals([j["layers"] for j in traced]))
    metrics["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    metrics["trace.overhead_ratio"] = metric((traced_s - plain_s) / plain_s, "ratio")
    notes = {"trace.overhead_s": f"traced minus untraced wall over the same {count} jobs"}
    missing = sorted({m for j in traced for m in j["missing_targets"]})
    if missing:
        notes["missing"] = "not traced, absent from solvtree: " + ", ".join(missing)
    return metrics, notes, plain + traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into an exception, so the running worker is killed and waited for
    # and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "solvtree" / "__init__.py").is_file():
        print(f"error: no solvtree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            metrics, notes, jobs = per_layer(args.workload, args.seed, workdir, deadline)
        else:
            metrics, notes, jobs = end_to_end(args.workload, args.seed, args.seconds, workdir, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for j in jobs if j["problems"])
    provenance = {"commit": git_commit(), "nproc": os.cpu_count(), **jobs[0]["versions"],
                  "threads": {v: "1" for v in THREAD_VARS}}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in provenance.items() if k != "threads"))
    for key, m in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<38} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<38} {failed / len(jobs):>14.6g} ratio  ({failed} of {len(jobs)} jobs failed)")
    if "missing" in notes:
        print(f"  {notes['missing']}")
    for j in jobs:
        verdict = "; ".join(j["problems"]) or (
            "ok, matches recorded hash" if j["checked_against_recorded"] else "ok")
        print(f"  job {j['index']:>3} seed {j['seed']:>10} {j['latency_s']:8.3f} s "
              f"sha256 {j['sha256']}  {verdict}")
    line = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**line, "provenance": provenance, "fail_ratio": failed / len(jobs),
                    "jobs": [{k: v for k, v in j.items() if k not in ("layers", "versions")}
                             for j in jobs]}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
