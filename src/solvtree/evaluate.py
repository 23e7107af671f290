"""Stratified cross-validation and test-set scoring with tabular reports.

Reports carry a 4x4 confusion matrix (rows actual, columns predicted), per
class recall, overall accuracy, and probability-scored MAE/RMSE where each
instance contributes one residual per class against its one-hot label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._fork import _map
from .balance import BalanceTargets, _balanced_training
from .dataset import CLASS_ALPHABET, N_CLASSES, Dataset, SolvencyClass
from .dataset import _check_int, _shuffled_classes
from .tree import LearnerParams, TreeModel, _route, grow


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts by (actual, predicted) class, both in alphabet order."""

    cells: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(tuple(int(c) for c in row) for row in self.cells))
        if len(self.cells) != N_CLASSES or any(len(r) != N_CLASSES for r in self.cells):
            raise ValueError("confusion matrix must be 4x4")

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.cells)

    @property
    def total(self) -> int:
        return sum(self.row_sums())

    @property
    def trace(self) -> int:
        return sum(self.cells[i][i] for i in range(N_CLASSES))


@dataclass(frozen=True)
class EvalReport:
    """Scores of pooled predictions; ``n``, recalls and accuracy are read from the matrix (NaN on no rows)."""

    matrix: ConfusionMatrix
    mae: float
    rmse: float
    warnings: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.matrix.total

    @property
    def per_class_recall(self) -> tuple[float, float, float, float]:
        return tuple((self.matrix.cells[c][c] / rs) if rs else math.nan for c, rs in enumerate(self.matrix.row_sums()))

    @property
    def overall_accuracy(self) -> float:
        return self.matrix.trace / self.n if self.n else math.nan


def mae(predicted_probs, actual) -> float:
    """Mean absolute residual between probability vectors and one-hot labels.

    Averages |p_ij - a_ij| over all n instances and all classes, so a
    confidently wrong one-hot prediction contributes 0.5.
    """
    return _residual_means(predicted_probs, _as_label_indices(actual))[0]


def rmse(predicted_probs, actual) -> float:
    """Root mean squared residual over the same n * n_classes terms as mae."""
    return _residual_means(predicted_probs, _as_label_indices(actual))[1]


def _as_label_indices(labels) -> np.ndarray:
    """Class indices of SolvencyClass members or integers; raises on one out of range."""
    idx = np.asarray(labels)
    if idx.dtype == object:  # class members, converted at the public edge
        idx = np.array([a.value if isinstance(a, SolvencyClass) else int(a) for a in labels])
    idx = idx.astype(np.int64)
    bad = idx[(idx < 0) | (idx >= N_CLASSES)]
    if bad.size:
        raise ValueError(f"label index {bad[0]} out of range")
    return idx


def _residual_means(predicted_probs, idx: np.ndarray) -> tuple[float, float]:
    """(MAE, RMSE) of probability vectors against the one-hot class indices ``idx``."""
    P = np.asarray(predicted_probs, dtype=float)
    if P.ndim != 2:
        raise ValueError("predicted_probs must be a (n, n_classes) array")
    if len(idx) != P.shape[0]:
        raise ValueError(f"length mismatch: {P.shape[0]} predictions vs {len(idx)} labels")
    sums = P.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("each probability vector must sum to 1 within 1e-9")
    A = np.zeros_like(P)
    A[np.arange(len(idx)), idx] = 1.0
    return float(np.abs(P - A).sum() / P.size), float(math.sqrt(((P - A) ** 2).sum() / P.size))


def report_from_predictions(
    actual, predicted, probs, warnings: Sequence[str] = ()
) -> EvalReport:
    """Assemble an EvalReport from pooled per-instance predictions."""
    a_idx = _as_label_indices(actual)
    p_idx = _as_label_indices(predicted)
    if len(a_idx) != len(p_idx):
        raise ValueError("actual and predicted lengths differ")
    cells = np.bincount(a_idx * N_CLASSES + p_idx, minlength=N_CLASSES * N_CLASSES)
    return EvalReport(ConfusionMatrix(cells.reshape(N_CLASSES, -1)), *_residual_means(probs, a_idx), tuple(warnings))


def stratified_folds(ds: Dataset, k: int, seed: int) -> list[list[int]]:
    """Partition record indices into k folds with per-class spread <= 1.

    Records are grouped by class in alphabet order, shuffled within each
    class, and dealt round-robin into folds with the dealing position
    carried across classes, which also keeps fold sizes within one of each
    other. Deterministic for a given seed.
    """
    _check_int("k", k, 2)
    if k > len(ds):
        raise ValueError(f"k = {k} exceeds the {len(ds)} available records")
    dealt = np.concatenate(_shuffled_classes(ds.label_indices(), seed))
    return [sorted(dealt[j::k].tolist()) for j in range(k)]


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence(entropy=[seed, fold]).generate_state(1)[0])


def cross_validate(
    ds: Dataset,
    k: int,
    params: LearnerParams = LearnerParams(),
    balance: BalanceTargets | None = None,
    seed: int = 0,
) -> EvalReport:
    """k-fold cross-validation pooling every held-out prediction.

    When a balancing transform is given it is applied to each fold's training portion only;
    held-out records are never balanced. A fold whose training portion ``resample`` or ``smote``
    would refuse (SMOTE targets raised to the fold's counts first) is trained unbalanced and noted
    in the report warnings. Per-fold balancing seeds derive from (seed, fold), so the whole run is
    deterministic given its seed. On Linux, inputs of ``FORK_MIN_ROWS`` rows or more run their
    folds in min(k, usable CPUs) processes, with the same report or error; the trees grown
    for the folds do not fork again.
    """
    folds = stratified_folds(ds, k, seed)

    def fold_result(i: int):  # ((class indices, frequencies) of fold i's held-out rows, its warnings)
        train, notes = ds.take(np.delete(np.arange(len(ds)), folds[i])), []
        if balance is not None:
            train, notes = _balanced_training(train, balance, _fold_seed(seed, i), i)
        return _route(grow(train, params), ds.values[folds[i]]), notes

    routed, notes = zip(*_map(fold_result, k, len(ds)))
    predicted, probs = map(np.concatenate, zip(*routed))
    return report_from_predictions(ds.label_indices()[np.concatenate(folds)], predicted, probs, sum(notes, []))


def evaluate_on(model: TreeModel, test: Dataset) -> EvalReport:
    """Score a fitted model on a labeled test set; no retraining."""
    missing = [a for a in model.schema if a not in test.schema]
    if missing:
        raise ValueError(f"test set schema lacks model attributes: {', '.join(missing)}")
    if len(test) == 0:
        raise ValueError("test set is empty")
    actual = test.label_indices()
    predicted, probs = _route(model, test.values)
    return report_from_predictions(actual, predicted, probs)


_SHORT = {cls: cls.name[0] for cls in CLASS_ALPHABET}  # I, W, M, S


def _pct(value: float) -> str:
    return "   n/a" if math.isnan(value) else f"{100.0 * value:5.1f}%"


def _table_row(label: str, cells, total, last: str) -> str:
    """One line of the report table: its label, a cell per class, the row total and the last column."""
    return f"{label:<14}" + "".join(f"{cell:>7}" for cell in cells) + f"{total:>9}{last:>14}"


def render_report(report: EvalReport) -> str:
    """Plain-text table: one row per actual class, then a summary block."""
    lines = [_table_row("Classification", _SHORT.values(), "Total", "Correct (%)")]
    for c in CLASS_ALPHABET:
        row = report.matrix.cells[c.value]
        lines.append(_table_row(_SHORT[c], row, sum(row), _pct(report.per_class_recall[c.value])))
    lines.append(_table_row("Total", [""] * N_CLASSES, report.n, _pct(report.overall_accuracy)))
    lines.append("")
    lines.append("I = insolvency, W = weak, M = moderate, S = strong")
    lines.append("")
    lines.append(f"Overall accuracy: {report.overall_accuracy:.4f}")
    lines.append(f"MAE:              {report.mae:.4f}")
    lines.append(f"RMSE:             {report.rmse:.4f}")
    for w in report.warnings:
        lines.append(f"Warning: {w}")
    return "\n".join(lines) + "\n"


def summary_lines(report: EvalReport) -> str:
    """Machine-readable key=value rendering of the report."""
    lines = [
        f"n={report.n}",
        f"accuracy={report.overall_accuracy!r}",
        f"mae={report.mae!r}",
        f"rmse={report.rmse!r}",
    ]
    for c in CLASS_ALPHABET:
        lines.append(f"recall_{c.csv_name}={report.per_class_recall[c.value]!r}")
    for a in CLASS_ALPHABET:
        for p in CLASS_ALPHABET:
            lines.append(
                f"cell_{a.csv_name}_{p.csv_name}={report.matrix.cells[a.value][p.value]}"
            )
    lines.append(f"warnings={len(report.warnings)}")
    for i, w in enumerate(report.warnings, 1):
        lines.append(f"warning_{i}={w}")
    return "\n".join(lines) + "\n"
