"""Correlation-based feature subset selection searched by greedy forward steps.

Numeric attributes are discretized (equal-frequency, correlation estimation
only), attribute-class and attribute-attribute association is measured by
symmetric uncertainty, and subsets are scored by the CFS merit
k * r_cf / sqrt(k + k*(k-1) * r_ff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .dataset import Dataset, _sum_in_order


@dataclass(frozen=True, eq=False)
class DiscretizedView:
    """Per-attribute integer bin ids for every record; feeds correlation only."""

    bins: np.ndarray  # shape (n_records, n_attributes)
    n_bins: int
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class FeatureSubset:
    selected: tuple[str, ...]
    merit: float


def discretize(ds: Dataset, n_bins: int = 10) -> DiscretizedView:
    """Equal-frequency bins by rank, with equal values always sharing a bin.

    For all-distinct values the bin sizes differ by at most one. Tied values
    collapse into the bin of their lowest rank, otherwise row order would
    leak into the correlation estimates. Learners never see these bins;
    they exist only to estimate correlations. Any ``n_bins`` from the row
    count up gives each rank a bin of its own, so it is capped there.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    n = len(ds)
    if n == 0:
        raise ValueError("cannot discretize an empty dataset")
    X = ds.matrix()
    order = np.argsort(X, axis=0, kind="stable")
    vs = np.take_along_axis(X, order, axis=0)
    run_start = np.ones(X.shape, dtype=bool)
    run_start[1:] = vs[1:] != vs[:-1]
    # each value takes the rank of the first member of its run of equal values
    rank = np.maximum.accumulate(np.where(run_start, np.arange(n)[:, None], 0), axis=0)
    bins = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(bins, order, rank * min(n_bins, n) // n, axis=0)  # int64-safe
    return DiscretizedView(bins, n_bins, ds.schema)


def _entropy_of_counts(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def symmetric_uncertainty(x, y) -> float:
    """2 * IG(x; y) / (H(x) + H(y)) over discrete sequences, in [0, 1].

    Defined as 0 when both marginal entropies vanish (two constants carry
    no information either way). Joint cells are counted from each side's
    order-preserving integer codes, so they come in (x, y) lexicographic
    order.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError("need at least one element")
    _, x_codes, x_counts = np.unique(x, return_inverse=True, return_counts=True)
    y_values, y_codes, y_counts = np.unique(y, return_inverse=True, return_counts=True)
    hx = _entropy_of_counts(x_counts)
    hy = _entropy_of_counts(y_counts)
    if hx + hy == 0.0:
        return 0.0
    # unique over the codes, not bincount: memory stays O(n) however many values each side has
    _, joint_counts = np.unique(x_codes * len(y_values) + y_codes, return_counts=True)
    hxy = _entropy_of_counts(joint_counts)
    gain = max(0.0, hx + hy - hxy)
    return min(1.0, 2.0 * gain / (hx + hy))


def merit_from_correlations(k: int, r_cf: float, r_ff: float) -> float:
    """CFS merit of a size-k subset from its mean correlations."""
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def _su_table(view: DiscretizedView, labels: np.ndarray, pairs) -> dict[tuple[int, int], float]:
    """Symmetric uncertainty of each ordered pair of view columns; the class is one past the last.

    Pairs stay ordered because SU(a, b) and SU(b, a) can differ in the last
    bit, and a merit must add the same values a direct computation would.
    """
    columns = [*view.bins.T, labels]
    return {(a, b): symmetric_uncertainty(columns[a], columns[b]) for a, b in pairs}


def _merit(cols: Sequence[int], su: dict[tuple[int, int], float], cls: int) -> float:
    """CFS merit of the columns ``cols`` (in subset order) from an SU table."""
    k = len(cols)
    r_cf = _sum_in_order([su[c, cls] for c in cols]) / k
    pairs = list(combinations(cols, 2))
    r_ff = _sum_in_order([su[pair] for pair in pairs]) / len(pairs) if pairs else 0.0
    return merit_from_correlations(k, r_cf, r_ff)


def cfs_merit(subset: Sequence[str], ds: Dataset, view: DiscretizedView) -> float:
    """Merit of an attribute subset: class relevance over mutual redundancy.

    r_cf is the mean symmetric uncertainty between members and the class;
    r_ff the mean pairwise symmetric uncertainty among members (0 for a
    singleton).
    """
    names = tuple(subset)
    if not names:
        raise ValueError("subset must not be empty")
    if len(set(names)) != len(names):
        raise ValueError("subset contains repeated attributes")
    cols = []
    for name in names:
        if name not in view.attributes:
            raise ValueError(f"attribute {name!r} not in the discretized view")
        cols.append(view.attributes.index(name))
    cls = len(view.attributes)
    pairs = [(c, cls) for c in cols] + list(combinations(cols, 2))
    return _merit(cols, _su_table(view, ds.label_indices(), pairs), cls)


def greedy_stepwise(ds: Dataset, n_bins: int = 10) -> FeatureSubset:
    """Forward selection maximizing CFS merit, stopping at the first plateau.

    Starts from the empty set, admits the best singleton unconditionally,
    then keeps adding the attribute that most improves merit until no
    addition strictly improves it. Ties fall to schema order.
    """
    view = discretize(ds, n_bins)
    cls = len(view.attributes)
    # both orders of every attribute pair: a candidate subset may list either first
    pairs = [*permutations(range(cls), 2), *((c, cls) for c in range(cls))]
    su = _su_table(view, ds.label_indices(), pairs)
    selected: list[int] = []
    current = -math.inf
    while True:
        best_col = None
        best_merit = -math.inf
        for col in range(cls):
            if col in selected:
                continue
            m = _merit([*selected, col], su, cls)
            if m > best_merit:
                best_merit = m
                best_col = col
        if best_col is None:
            break
        if selected and best_merit <= current:
            break
        selected.append(best_col)
        current = best_merit
    return FeatureSubset(tuple(view.attributes[c] for c in selected), current)
