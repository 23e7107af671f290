"""In-memory span recorder fed by wrappers around solvtree's public functions.

``install(rec)`` replaces each traced function everywhere it is looked up:
the module that defines it and every solvtree module that imported the
name (``solvtree.cli.load_csv``, ``solvtree.evaluate.grow``, the
``solvtree.tree.best_split`` module global, ...). ``src/`` is not changed.

A span has a name ``<module>.<function>``, a start, an end and a parent.
Spans are only recorded inside a root span (one job, or the input making
before it), so the output checks run untraced. A function already open on
the stack is not recorded again, so recursive ``prune`` is one span per
outermost call. Self time is a span's duration minus its children's.

Every span whose parent belongs to another module is a layer entry; it
also records the rise of the process's peak RSS (``ru_maxrss``) during the
span, minus the rise inside nested layer entries, as that module's
``rss_gain``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import sys
import time
from collections import Counter


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.rss_gain_kb: Counter[str] = Counter()
        # open spans: [id, name, module, start, child time, maxrss at start, child rss gain]
        self._stack: list[list] = []
        self._open: set[str] = set()
        self._next_id = 0

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def is_open(self, name: str) -> bool:
        return name in self._open

    def enter(self, name: str) -> None:
        module = name.split(".", 1)[0]
        entry = not self._stack or self._stack[-1][2] != module
        self._stack.append(
            [self._next_id, name, module, time.perf_counter(), 0.0,
             _maxrss_kb() if entry else None, 0]
        )
        self._next_id += 1
        self._open.add(name)

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, module, start, child_s, rss0, child_kb = self._stack.pop()
        self._open.discard(name)
        parent = self._stack[-1] if self._stack else None
        dur = end - start
        self.self_s[name] += dur - child_s
        self.total_s[name] += dur
        self.calls[name] += 1
        if parent is not None:
            parent[4] += dur
        if rss0 is not None:
            gain = _maxrss_kb() - rss0
            self.rss_gain_kb[module] += gain - child_kb
            entry = next((s for s in reversed(self._stack) if s[5] is not None), None)
            if entry is not None:
                entry[6] += gain
        self.spans.append((sid, parent[0] if parent else None, name, start, end))

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span: one job, or the input making before it."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def append_jsonl(self, path, job: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """The raw sums ``layer_metrics`` is computed from; add these across jobs."""
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "rss_gain_kb": dict(self.rss_gain_kb)}


def merge_totals(per_job: list[dict]) -> dict[str, Counter]:
    merged: dict[str, Counter] = {}
    for totals in per_job:
        for kind, values in totals.items():
            merged.setdefault(kind, Counter()).update(values)
    return merged


def _arg(args, kwargs, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


def _span(rec: Recorder, name, fn, after=None):
    """Wrap ``fn`` in a span; ``name`` is a span name or a function of the call's args."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = name(args) if callable(name) else name
        if not rec.active or rec.is_open(span):
            return fn(*args, **kwargs)
        rec.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(rec.counts, args, kwargs, result)
        return result

    return traced


def _after_best_split(counts, args, kwargs, result):
    counts["tree.best_split.rows"] += len(_arg(args, kwargs, 1, "labels"))
    counts["tree.best_split.hits"] += result is not None


def _after_prune(counts, args, kwargs, result):
    from solvtree.tree import node_count

    counts["tree.nodes_grown"] += node_count(_arg(args, kwargs, 0, "root"))
    counts["tree.nodes_kept"] += node_count(result)


def _after_cross_validate(counts, args, kwargs, result):
    # each fold that could not be balanced adds exactly one report warning
    counts["balance.folds"] += _arg(args, kwargs, 1, "k")
    counts["balance.skipped_folds.count"] += len(result.warnings)


def _rows_out(key):
    def after(counts, args, kwargs, result):
        counts[key] += len(result)
    return after


def _rows_in(key):
    def after(counts, args, kwargs, result):
        counts[key] += len(args[0])
    return after


# (module, attribute, span name, hook after the call)
SPANS = (
    ("dataset", "load_csv", "dataset.load_csv", _rows_out("dataset.load_csv.rows")),
    ("dataset", "write_csv", "dataset.write_csv", _rows_in("dataset.write_csv.rows")),
    ("dataset", "stratified_split", "dataset.stratified_split", None),
    ("datagen", "generate", "datagen.generate", None),
    ("features", "greedy_stepwise", "features.greedy_stepwise", None),
    ("features", "discretize", "features.discretize", None),
    ("features", "symmetric_uncertainty", "features.symmetric_uncertainty", None),
    ("balance", "smote", "balance.smote", _rows_out("balance.rows_out")),
    ("balance", "resample", "balance.resample", _rows_out("balance.rows_out")),
    ("balance", "nearest_neighbors", "balance.nearest_neighbors", None),
    ("tree", "best_split", "tree.best_split", _after_best_split),
    ("tree", "grow", "tree.grow", None),
    ("tree", "prune", "tree.prune", _after_prune),
    ("tree", "pessimistic_error", "tree.pessimistic_error", None),
    ("tree", "invert_binomial_tail", "tree.invert_binomial_tail", None),
    ("tree", "predict", "tree.predict", None),
    ("tree_io", "serialize", "tree_io.serialize", _rows_out("tree_io.bytes")),
    ("tree_io", "parse", "tree_io.parse", _rows_in("tree_io.bytes")),
    ("evaluate", "cross_validate", "evaluate.cross_validate", _after_cross_validate),
    ("evaluate", "stratified_folds", "evaluate.stratified_folds", None),
    ("evaluate", "evaluate_on", "evaluate.evaluate_on", None),
    ("evaluate", "report_from_predictions", "evaluate.report", None),
    ("evaluate", "render_report", "evaluate.report", None),
    ("evaluate", "summary_lines", "evaluate.report", None),
)


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "solvtree" or name.startswith("solvtree."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(rec: Recorder) -> list[str]:
    """Wrap every traced function; returns the targets solvtree lacks."""
    import solvtree

    missing = []
    wrappers = [(m, a, lambda fn, n=n, h=h: _span(rec, n, fn, h)) for m, a, n, h in SPANS]
    # one span per subcommand: main(argv) is how the workloads drive the CLI
    wrappers.append(("cli", "main", lambda fn: _span(rec, lambda args: f"cli.{args[0][0]}", fn)))
    for module, attr, make in wrappers:
        original = getattr(sys.modules[f"solvtree.{module}"], attr, None)
        if original is None:
            missing.append(f"{module}.{attr}")
            continue
        _rebind(original, make(original))

    Dataset = solvtree.dataset.Dataset
    if hasattr(Dataset, "matrix"):
        Dataset.matrix = _span(rec, "dataset.matrix", Dataset.matrix)
    else:
        missing.append("dataset.Dataset.matrix")
    return missing


CLI_COMMANDS = ("generate", "select-features", "balance", "train", "evaluate", "predict",
                "render-tree")
MODULES = ("dataset", "datagen", "features", "balance", "tree", "tree_io", "evaluate", "cli")
CALLS = ("dataset.matrix", "features.symmetric_uncertainty", "balance.nearest_neighbors",
         "tree.best_split", "tree.grow", "tree.prune", "tree.pessimistic_error",
         "tree.invert_binomial_tail", "tree.predict")
COUNTS = ("dataset.load_csv.rows", "dataset.write_csv.rows", "balance.rows_out",
          "balance.folds", "balance.skipped_folds.count", "tree.best_split.rows",
          "tree.best_split.hits", "tree.nodes_grown", "tree.nodes_kept", "tree_io.bytes")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, Counter]) -> dict[str, dict]:
    """Per-layer metrics from merged totals: self times, counts, ratios, RSS gains."""
    out: dict[str, dict] = {}
    self_s, total_s, calls, c, rss = (
        totals.get(k, Counter()) for k in ("self_s", "total_s", "calls", "counts", "rss_gain_kb")
    )

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    timed = dict.fromkeys(n for _, _, n, _ in SPANS)
    timed["dataset.matrix"] = None
    timed.update((f"cli.{cmd}", None) for cmd in CLI_COMMANDS)
    for name in timed:
        put(f"{name}.s", self_s[name], "s")
    for name in CALLS:
        put(f"{name}.calls", calls[name], "count")
    for name in COUNTS:
        put(name, c[name], "bytes" if name.endswith("bytes") else "count")
    put("tree.best_split.hit_ratio", _ratio(c["tree.best_split.hits"], calls["tree.best_split"]), "ratio")
    put("tree.prune.kept_ratio", _ratio(c["tree.nodes_kept"], c["tree.nodes_grown"]), "ratio")
    put("balance.skipped_folds", _ratio(c["balance.skipped_folds.count"], c["balance.folds"]), "ratio")
    for module in MODULES:
        put(f"{module}.rss_gain_mb", rss[module] / 1024.0, "MB")
    put("job.count", calls["job"], "count")
    put("job.s", total_s["job"], "s")
    # job time spent outside every traced function: the benchmark's own glue
    put("job.untraced.s", self_s["job"], "s")
    put("prepare.s", total_s["prepare"], "s")
    return out
