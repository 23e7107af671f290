"""Pipeline stages as composable subcommands over the CSV and model formats.

Exit codes: 0 success, 1 data or validation error, 2 usage error.
Diagnostics go to stderr; results go to files or stdout.

Each setting is its flag, else the ``--config`` value, else the default, settled once by ``main``
so that a command reads only its arguments. An absent or empty path flag takes the ``paths`` key
of its name (``train -o`` takes ``paths.model``); no other ``paths`` key is read, and other flags
fall back only when absent. The seed is ``--seed``, else the config's when ``--config`` is given,
else ``SOLVTREE_SEED`` (read by ``generate``, ``balance`` and ``cross-validate``), else 0. The
balance mode is ``--mode`` or ``--balance-mode`` (one dest), else the config's ``balance.mode``.

Usage errors (exit 2) come before any input file is read, so a run with one writes nothing, whatever
else is wrong. ``main`` checks, in this order: the config file, the input paths in flag order, the seed
variable, the balance mode and targets, then the balance and learner values (exit 1). Checks that
need the data, such as ``--folds`` above the row count, stay with the commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable

from .balance import BalanceTargets, _apply
from .dataset import (
    Dataset, _car_bands, _check_schema, _class_cells, _class_counts, _csv_blocks, _plain_float, _plain_int, load_csv,
    write_csv,
)
from .datagen import GeneratorSpec, generate
from .evaluate import cross_validate, evaluate_on, render_report, summary_lines
from .features import greedy_stepwise
from .tree import LearnerParams, _route, grow
from .tree_io import read_model, render_lines, serialize

SEED_ENV_VAR = "SOLVTREE_SEED"


@dataclass(frozen=True)
class PipelineConfig:
    """File-loadable defaults for the pipeline; flags always win over these."""

    seed: int = 0
    folds: int = 10
    feature_bins: int = 10
    learner: LearnerParams = LearnerParams()
    balance: BalanceTargets | None = None
    paths: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "PipelineConfig":
        """Inverse of :meth:`to_dict`; a value of the wrong JSON type raises ValueError naming its key."""
        return _section(cls, d, "")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        try:
            raw = json.loads(text)
        except RecursionError:
            raise ValueError("the config nests too deeply") from None
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


_SECTIONS = {"LearnerParams": LearnerParams, "BalanceTargets": BalanceTargets}


def _section(cls, value, key: str):
    """``cls`` from the JSON object at dotted ``key`` ('' for the whole config).

    Keys naming a field of ``cls`` are read by the field's annotation and
    other keys are ignored. An absent key takes the field default, or None
    when the field has none, for ``cls`` to reject.
    """
    if not isinstance(value, dict):
        what = f"config key {key!r}" if key else "the config"
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    kwargs = {}
    for f in fields(cls):
        if f.name in value:
            kwargs[f.name] = _read(f.type, value[f.name], f"{key}.{f.name}".lstrip("."))
        elif f.default is MISSING and f.default_factory is MISSING:
            kwargs[f.name] = None
    return cls(**kwargs)


def _read(annotation: str, value, key: str):
    """The config ``value`` at dotted ``key`` as a field of type ``annotation``."""
    if value is None and annotation.endswith(" | None"):
        return None
    annotation = annotation.removesuffix(" | None")
    if annotation in _SECTIONS:
        return _section(_SECTIONS[annotation], value, key)
    try:
        return _json_value(annotation, value)
    except (TypeError, OverflowError):
        raise ValueError(f"config key {key!r} has a bad value {value!r}") from None


def _json_value(annotation: str, value):
    """``value`` as a field of type ``annotation``; TypeError for a wrong JSON type."""
    if annotation == "str" or (annotation == "int" and type(value) is int):  # a bool is not an int here
        return value  # the dataclass checks a str itself
    if annotation == "float" and type(value) in (int, float):
        return float(value)
    if annotation.startswith("tuple[") and type(value) is list and all(type(v) is int for v in value):
        return tuple(value)
    if annotation == "dict" and type(value) is dict and all(type(v) is str for v in value.values()):
        return value
    raise TypeError


class CliUsageError(Exception):
    pass


def _counts(text: str) -> tuple[int, int, int, int]:
    try:
        return _class_counts("counts", [_plain_int(p) for p in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected four comma-separated non-negative integers, got {text!r}") from None


def _attr_list(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    try:
        _check_schema(names)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def _write_lines(path: str | None, lines: Iterable[str]) -> None:
    """Write text chunks to ``path`` (stdout for None or '-') as they come."""
    if path is None or path == "-":
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def _write_dataset(ds: Dataset, path: str | None) -> None:
    write_csv(ds, sys.stdout if path is None or path == "-" else path)


def _write_report(args, report) -> None:
    _write_lines(args.report, (render_report(report),))
    if args.summary:
        _write_lines(args.summary, (summary_lines(report),))


def _settle(args) -> None:
    """Fill each flag of ``args`` left unset from ``--config``, else the default, then check the input paths and
    set the seed, ``args.balance`` and ``args.learner``, raising each usage fault first (see the module docstring)."""
    if args.config and not Path(args.config).is_file():
        raise CliUsageError(f"config file not found: {args.config}")
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    balance = cfg.balance or BalanceTargets(mode="resample")
    unset = {  # flag dest -> its value when the flag is None
        "seed": cfg.seed if args.config else None, "folds": cfg.folds, "bins": cfg.feature_bins,
        "cf": cfg.learner.confidence_factor, "min_leaf": cfg.learner.min_leaf, "max_depth": cfg.learner.max_depth,
        "mode": getattr(cfg.balance, "mode", None), "bias": balance.bias_to_uniform,
        "percent": balance.sample_size_percent, "targets": balance.target_counts, "k_neighbors": balance.k_neighbors,
    }
    paths = {dest: cfg.paths.get(dest) for dest in ("input", "output", "model", "test", "report", "summary")}
    if args.command == "train":
        paths["output"] = paths["model"]
    for dest, value in vars(args).items():  # in flag order, so the first input path at fault is reported
        if dest in paths and not value:
            value = paths[dest]
            setattr(args, dest, value)
        elif dest in unset and value is None:
            setattr(args, dest, unset[dest])
        if dest in ("input", "model", "test") and value is None:
            raise CliUsageError(f"no --{dest} given and the config provides no '{dest}' path")
        if dest in ("input", "model", "test") and not Path(value).is_file():
            raise CliUsageError(f"input file not found: {value}")
    if args.seed is None and args.command in ("generate", "balance", "cross-validate"):
        env = os.environ.get(SEED_ENV_VAR, "0")
        try:
            args.seed = _plain_int(env)
        except ValueError:
            raise CliUsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if hasattr(args, "mode"):
        if args.mode == "smote" and args.targets is None:
            raise CliUsageError("smote balancing needs --targets a,b,c,d")
        if args.mode is None and args.command == "balance":
            raise CliUsageError("no --mode given and the config provides no balance mode")
        args.balance = None if args.mode in (None, "none") else BalanceTargets(
            args.mode, args.bias, args.percent, args.targets, args.k_neighbors)
    if hasattr(args, "cf"):
        args.learner = LearnerParams(args.cf, args.min_leaf, args.max_depth)


def _dataset(args, key: str = "input") -> Dataset:
    """The CSV at ``key``, repeats allowed, labeled by CAR band if classless, narrowed to ``--attributes``."""
    ds = load_csv(getattr(args, key), expect_labels=True, allow_duplicates=True)
    return ds.with_schema(args.attributes) if getattr(args, "attributes", None) else ds


def _cmd_generate(args) -> None:
    spec = GeneratorSpec(class_counts=args.counts, separation=args.separation, n_attributes=args.n_attributes,
                         seed=args.seed)
    _write_dataset(generate(spec), args.output)


def _cmd_label(args) -> None:
    ds = _dataset(args)
    _write_dataset(ds._with(y=_car_bands(ds.car)), args.output)


def _cmd_select_features(args) -> None:
    result = greedy_stepwise(_dataset(args), args.bins)
    print(",".join(result.selected))
    print(f"merit={result.merit!r}")


def _cmd_balance(args) -> None:
    _write_dataset(_apply(_dataset(args), args.balance, args.seed), args.output)


def _cmd_train(args) -> None:
    model = grow(_dataset(args), args.learner)
    _write_lines(args.output, (serialize(model),))


def _cmd_cross_validate(args) -> None:
    _write_report(args, cross_validate(_dataset(args), args.folds, args.learner, args.balance, args.seed))


def _cmd_evaluate(args) -> None:
    _write_report(args, evaluate_on(read_model(args.model), _dataset(args, "test")))


def _cmd_predict(args) -> None:
    model = read_model(args.model)
    ds = _dataset(args)
    classes, freqs = _route(model, ds.values)
    _write_lines(args.output, _csv_blocks(ds, lambda rows: [
        _class_cells(classes[rows]), *(list(map(repr, column)) for column in freqs[rows].T.tolist())]))


def _cmd_render_tree(args) -> None:
    _write_lines(args.output, render_lines(read_model(args.model)))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_plain_int, default=None, help="random seed (non-negative)")
    common.add_argument("--config", default=None, help="JSON pipeline config supplying defaults")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None, help="output path (stdout when absent)")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", default=None, help="model file")

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", default=None, help="report path (stdout when absent)")
    report.add_argument("--summary", default=None, help="key=value summary path")

    learner = argparse.ArgumentParser(add_help=False)
    learner.add_argument("--cf", type=_plain_float, default=None, help="pruning confidence factor")
    learner.add_argument("--min-leaf", type=_plain_int, default=None, help="minimum records per split side")
    learner.add_argument("--max-depth", type=_plain_int, default=None, help="depth cap, unlimited when absent")
    learner.add_argument(
        "--attributes", type=_attr_list, default=None, help="restrict the schema, e.g. V1,V3,V7"
    )

    balance_flags = argparse.ArgumentParser(add_help=False)
    balance_flags.add_argument("--bias", type=_plain_float, default=None, help="bias toward uniform in [0, 1]")
    balance_flags.add_argument("--percent", type=_plain_float, default=None, help="output size as percent of input")
    balance_flags.add_argument("--targets", type=_counts, default=None, help="per-class target counts a,b,c,d")
    balance_flags.add_argument(
        "--k", "--k-neighbors", dest="k_neighbors", type=_plain_int, default=None,
        help="SMOTE neighbor count",
    )

    parser = argparse.ArgumentParser(
        prog="solvtree",
        description="Solvency-band classification pipeline: generate, label, balance, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common, output], help="write a seeded synthetic dataset CSV")
    p.add_argument("--counts", type=_counts, required=True, help="per-class record counts a,b,c,d")
    p.add_argument("--separation", type=_plain_float, default=6.0, help="class mean spacing in within-class sd")
    p.add_argument("--n-attributes", type=_plain_int, default=11, help="number of schema attributes (1..11)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("label", parents=[common, output], help="derive class labels from CAR bands")
    p.add_argument("--input", default=None, help="input CSV")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("select-features", parents=[common], help="greedy correlation-based attribute selection")
    p.add_argument("--input", default=None, help="labeled input CSV")
    p.add_argument("--bins", type=_plain_int, default=None, help="equal-frequency bins for correlation")
    p.set_defaults(func=_cmd_select_features)

    p = sub.add_parser(
        "balance", parents=[common, output, balance_flags], help="rebalance classes by resampling or SMOTE"
    )
    p.add_argument("--input", default=None, help="labeled input CSV")
    p.add_argument("--mode", choices=["resample", "smote"], default=None)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("train", parents=[common, output, learner], help="fit and prune a decision tree")
    p.add_argument("--input", default=None, help="labeled training CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "cross-validate", parents=[common, report, learner, balance_flags],
        help="stratified k-fold evaluation with optional per-fold balancing",
    )
    p.add_argument("--input", default=None, help="labeled input CSV")
    p.add_argument(
        "--folds", type=_plain_int, default=None, help="stratified folds, at least 2; default the config's folds, else 10"
    )
    p.add_argument(
        "--balance-mode", dest="mode", choices=["resample", "smote", "none"], default=None,
        help="balance each fold's training portion",
    )
    p.set_defaults(func=_cmd_cross_validate)

    p = sub.add_parser("evaluate", parents=[common, model, report], help="score a model on a labeled test CSV")
    p.add_argument("--test", default=None, help="labeled test CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", parents=[common, model, output], help="classify records with a saved model")
    p.add_argument("--input", default=None, help="input CSV")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("render-tree", parents=[common, model, output], help="print a model as indented text")
    p.set_defaults(func=_cmd_render_tree)

    return parser


def main(argv=None) -> int:
    """Parse, settle the flags, run the command, and map its errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return int(exc.code or 0)
    try:
        _settle(args)
        args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'solvtree {args.command} --help' for usage", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        # CsvFormatError and ModelFormatError are ValueErrors; the other two mean a size no array can hold
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
