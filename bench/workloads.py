"""The benchmark's workloads: what one job does and how its output is checked.

Each workload is a closed loop with one client: jobs run back to back in a
fixed order, job ``i`` of a run with workload seed ``s`` taking the derived
seed ``job_seed(name, s, i)``. A job's inputs are made before its timer
starts (``prepare``), the job itself is timed (``run``), and its outputs
are hashed and checked after its timer stops (``check``).

Job definitions (rows per job are the input rows a user hands in):

* ``paper-cv`` (616 rows): the paper's experiment. 10-fold cross-validation
  with in-fold SMOTE on the paper's class marginals, then the report.
* ``hard-fit`` (2464 rows): four balanced classes at separation 1.0, so
  trees are deep. 70/30 split, grow, model text round trip, test score.
* ``cli-pipeline`` (9856 rows): the CLI path through ``solvtree.cli.main``
  in process, at 16x the paper's marginals: generate, select-features,
  balance (resample and SMOTE), train, evaluate, predict, render-tree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from solvtree import cli, datagen, dataset, evaluate, tree, tree_io
from solvtree.balance import BalanceTargets

PAPER_COUNTS = (44, 13, 16, 543)
SMOTE_TARGETS = (540, 533, 522, 541)
# balanced, as training data is after resampling; with the paper's skewed
# marginals the split-search work per dataset varies about 3x as much
HARD_COUNTS = (616, 616, 616, 616)
CLI_COUNTS = tuple(16 * c for c in PAPER_COUNTS)
CLI_SMOTE_TARGET = max(CLI_COUNTS)


def job_seed(workload: str, seed: int, index: int) -> int:
    """Seed of job ``index`` in a run of ``workload`` with workload seed ``seed``."""
    ss = np.random.SeedSequence(entropy=[zlib.crc32(workload.encode()), seed, index])
    return int(ss.generate_state(1)[0])


@dataclass
class JobResult:
    """What a job hands to its check: output bytes plus values to verify."""

    outputs: list[tuple[str, bytes]]
    facts: dict[str, Any]

    def sha256(self) -> str:
        h = hashlib.sha256()
        for name, data in self.outputs:
            h.update(f"{name}\0{len(data)}\0".encode())
            h.update(data)
        return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    rows_per_job: int
    # jobs in a traced run; fixed so per-layer counts repeat exactly
    trace_jobs: int
    prepare: Callable[[int, Path], Any]
    run: Callable[[Any], JobResult]
    check: Callable[[Any, JobResult], list[str]]


def _report_text(report) -> bytes:
    return (evaluate.render_report(report) + evaluate.summary_lines(report)).encode()


# paper-cv ---------------------------------------------------------------


@dataclass(frozen=True)
class _LibraryInput:
    seed: int
    ds: dataset.Dataset


def _prepare_paper_cv(seed: int, workdir: Path) -> _LibraryInput:
    spec = datagen.GeneratorSpec(PAPER_COUNTS, separation=6.0, seed=seed)
    return _LibraryInput(seed, datagen.generate(spec))


def _run_paper_cv(inp: _LibraryInput) -> JobResult:
    balance = BalanceTargets("smote", target_counts=SMOTE_TARGETS, k_neighbors=5)
    report = evaluate.cross_validate(
        inp.ds, 10, tree.LearnerParams(), balance, seed=inp.seed
    )
    text = _report_text(report)
    return JobResult([("report", text)], {"report_n": report.n})


def _check_paper_cv(inp: _LibraryInput, res: JobResult) -> list[str]:
    problems = []
    if res.facts["report_n"] != len(inp.ds):
        problems.append(f"report n={res.facts['report_n']}, input has {len(inp.ds)} rows")
    return problems


# hard-fit ---------------------------------------------------------------


def _prepare_hard_fit(seed: int, workdir: Path) -> _LibraryInput:
    spec = datagen.GeneratorSpec(HARD_COUNTS, separation=1.0, seed=seed)
    return _LibraryInput(seed, datagen.generate(spec))


def _run_hard_fit(inp: _LibraryInput) -> JobResult:
    train, test = dataset.stratified_split(inp.ds, 0.7, inp.seed)
    model_text = tree_io.serialize(tree.grow(train))
    model = tree_io.parse(model_text)
    report = evaluate.evaluate_on(model, test)
    return JobResult(
        [("model", model_text.encode()), ("report", _report_text(report))],
        {"report_n": report.n, "test_rows": len(test), "train_rows": len(train),
         "model": model, "model_text": model_text},
    )


def _check_hard_fit(inp: _LibraryInput, res: JobResult) -> list[str]:
    f = res.facts
    problems = []
    if f["train_rows"] + f["test_rows"] != len(inp.ds):
        problems.append(f"split sides {f['train_rows']}+{f['test_rows']} != {len(inp.ds)}")
    if f["report_n"] != f["test_rows"]:
        problems.append(f"report n={f['report_n']}, test split has {f['test_rows']} rows")
    if tree_io.serialize(f["model"]) != f["model_text"]:
        problems.append("serialize(parse(text)) != text")
    return problems


# cli-pipeline -----------------------------------------------------------


@dataclass(frozen=True)
class _CliInput:
    workdir: Path
    steps: tuple[tuple[str, ...], ...]


def _prepare_cli(seed: int, workdir: Path) -> _CliInput:
    workdir.mkdir(parents=True)
    s = np.random.SeedSequence(seed).generate_state(4)
    counts = ",".join(str(c) for c in CLI_COUNTS)
    targets = ",".join([str(CLI_SMOTE_TARGET)] * 4)
    steps = (
        ("generate", "--counts", counts, "--separation", "6.0", "--seed", str(s[0]), "-o", "train.csv"),
        ("generate", "--counts", counts, "--separation", "6.0", "--seed", str(s[1]), "-o", "test.csv"),
        ("select-features", "--input", "train.csv", "--bins", "10"),
        ("balance", "--mode", "resample", "--input", "train.csv", "--seed", str(s[2]), "-o", "resampled.csv"),
        ("balance", "--mode", "smote", "--targets", targets, "--input", "train.csv", "--seed", str(s[3]),
         "-o", "smote.csv"),
        # --attributes is filled in from select-features' first output line
        ("train", "--input", "resampled.csv", "--attributes", "", "-o", "model.txt"),
        ("evaluate", "--model", "model.txt", "--test", "test.csv", "--report", "report.txt",
         "--summary", "summary.txt"),
        ("predict", "--model", "model.txt", "--input", "test.csv", "-o", "predictions.csv"),
        ("render-tree", "--model", "model.txt"),
    )
    return _CliInput(workdir, steps)


def _run_cli(inp: _CliInput) -> JobResult:
    outputs: list[tuple[str, bytes]] = []
    codes: list[int] = []
    selected = ""
    cwd = os.getcwd()
    os.chdir(inp.workdir)
    try:
        for argv in inp.steps:
            argv = tuple(selected if a == "" else a for a in argv)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            codes.append(code)
            outputs.append((f"{argv[0]} stdout", out.getvalue().encode()))
            if code != 0:
                outputs.append((f"{argv[0]} stderr", err.getvalue().encode()))
                break
            if argv[0] == "select-features":
                selected = out.getvalue().splitlines()[0]
    finally:
        os.chdir(cwd)
    return JobResult(outputs, {"exit_codes": codes})


def _csv_class_counts(path: Path) -> tuple[int, list[int]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    counts = [0, 0, 0, 0]
    for line in lines:
        counts[dataset.SolvencyClass.from_csv_name(line.rsplit(",", 1)[1]).value] += 1
    return len(lines), counts


def _check_cli(inp: _CliInput, res: JobResult) -> list[str]:
    codes = res.facts["exit_codes"]
    if len(codes) != len(inp.steps) or any(codes):
        return [f"CLI exit codes {codes}"]
    # written files join the hashed outputs here, after the job's timer stopped
    for path in sorted(inp.workdir.iterdir()):
        res.outputs.append((path.name, path.read_bytes()))
    files = {name: data for name, data in res.outputs}
    problems = []
    n_in = sum(CLI_COUNTS)
    rows, _ = _csv_class_counts(inp.workdir / "resampled.csv")
    if rows != n_in:
        problems.append(f"resample wrote {rows} rows, expected {n_in}")
    _, counts = _csv_class_counts(inp.workdir / "smote.csv")
    if counts != [CLI_SMOTE_TARGET] * 4:
        problems.append(f"smote class counts {counts}, expected {[CLI_SMOTE_TARGET] * 4}")
    summary = dict(
        line.split("=", 1) for line in files["summary.txt"].decode().splitlines()
    )
    if int(summary["n"]) != n_in:
        problems.append(f"evaluate report n={summary['n']}, test set has {n_in} rows")
    text = files["model.txt"].decode()
    if tree_io.serialize(tree_io.parse(text)) != text:
        problems.append("serialize(parse(model.txt)) != model.txt")
    if files["predictions.csv"].count(b"\n") != n_in:
        problems.append("predict did not write one line per test row")
    shutil.rmtree(inp.workdir)
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-cv", sum(PAPER_COUNTS), 2, _prepare_paper_cv, _run_paper_cv, _check_paper_cv),
        Workload("hard-fit", sum(HARD_COUNTS), 3, _prepare_hard_fit, _run_hard_fit, _check_hard_fit),
        Workload("cli-pipeline", sum(CLI_COUNTS), 2, _prepare_cli, _run_cli, _check_cli),
    )
}
