"""One benchmark job in a fresh process: set up, run the job, report JSON.

Started by ``run.py`` with the thread variables pinned; not meant to be run
by hand. The last line of its standard output is one JSON object.

    python3 bench/worker.py --workload W --seed S --job I --workdir DIR [--trace-out FILE]

A fresh process per job means solvtree's in-process caches start cold for
every job, as they do for every CLI invocation, and no job pays for the
caches an earlier job filled. ``--trace-out`` installs the span recorder
and appends the job's spans to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import solvtree  # noqa: E402
from workloads import WORKLOADS, Workload, job_seed  # noqa: E402

EXPECTED_FILE = BENCH / "expected.json"


def load_expected(workload: str, seed: int) -> list[str]:
    """Hashes recorded at the reference commit for the jobs of this seed, if any."""
    if not EXPECTED_FILE.is_file():
        return []
    return json.loads(EXPECTED_FILE.read_text()).get(workload, {}).get(str(seed), [])


def run_job(wl: Workload, seed: int, index: int, workdir: Path, rec=None, expected=()) -> dict:
    """Make job ``index``'s inputs, run it timed, then hash and check its outputs.

    ``ready_at`` in the result is the monotonic clock just before the job's
    timer starts, which ends set-up. ``peak_rss_mb`` is read when the job
    ends, before the checks.
    """
    def root(name):
        return contextlib.nullcontext() if rec is None else rec.root(name)

    s = job_seed(wl.name, seed, index)
    with root("prepare"):
        inp = wl.prepare(s, workdir)
    problems: list[str] = []
    digest = None
    ready_at = time.monotonic()
    t0 = time.perf_counter()
    try:
        with root("job"):
            res = wl.run(inp)
    except Exception:
        latency = time.perf_counter() - t0
        problems.append("raised: " + traceback.format_exc().strip().splitlines()[-1])
        res = None
    else:
        latency = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if res is not None:
        try:
            problems += wl.check(inp, res)
        except Exception:
            problems.append("check raised: " + traceback.format_exc().strip().splitlines()[-1])
        digest = res.sha256()
        if index < len(expected) and expected[index] != digest:
            problems.append(f"sha256 {digest[:12]} differs from recorded {expected[index][:12]}")
    return {"index": index, "seed": s, "ready_at": ready_at, "latency_s": latency,
            "peak_rss_mb": peak_rss_mb, "sha256": digest,
            "checked_against_recorded": index < len(expected), "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--job", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()

    if Path(solvtree.__file__).resolve().parent != ROOT / "src" / "solvtree":
        print(f"imported solvtree from {solvtree.__file__}, not this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    rec = None
    if args.trace_out is not None:
        import tracing

        rec = tracing.Recorder()
        missing = tracing.install(rec)
    result = run_job(wl, args.seed, args.job, args.workdir, rec,
                     load_expected(wl.name, args.seed))
    result["rows_per_job"] = wl.rows_per_job
    result["trace_jobs"] = wl.trace_jobs
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__}
    if rec is not None:
        rec.append_jsonl(args.trace_out, job=args.job)
        result["layers"] = rec.totals()
        result["missing_targets"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
