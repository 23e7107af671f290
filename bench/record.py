"""Record the output hashes of the reference commit for run.py's byte check.

    python3 bench/record.py --seeds 0-9 --jobs 10 [--workload W ...]

Runs jobs 0..N-1 of each workload for each workload seed, untimed, each in
a fresh worker as ``run.py`` does, and writes their SHA-256 hashes to
``bench/expected.json``. A run of ``run.py`` then fails any job whose hash
differs from the one recorded for its seed and index. Jobs past the
recorded ones, and seeds not recorded, are held to the invariant checks in
``workloads.py`` only. Record only on a commit whose outputs are the
reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import BENCH, OUT, WORKLOADS, RunError, run_jobs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0", help="first-last, e.g. 0-9")
    ap.add_argument("--jobs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="default: every workload")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    recorded: dict[str, dict[str, list[str]]] = {}
    OUT.mkdir(exist_ok=True)
    for name in args.workload or WORKLOADS:
        for seed in seeds:
            workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=OUT))
            try:
                jobs = run_jobs(name, seed, workdir, time.monotonic() + 3600,
                                lambda jobs: len(jobs) >= args.jobs)
            except RunError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            bad = [j for j in jobs if j["problems"]]
            if bad:
                print(f"{name} seed {seed} job {bad[0]['index']}: {bad[0]['problems']}",
                      file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = [j["sha256"] for j in jobs]
            print(f"{name} seed {seed}: {len(jobs)} jobs", flush=True)
    # merge with the file as it is now, so recorders for different workloads can run side by side
    path = BENCH / "expected.json"
    expected = json.loads(path.read_text()) if path.is_file() else {}
    for name, by_seed in recorded.items():
        expected.setdefault(name, {}).update(by_seed)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
