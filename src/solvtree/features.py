"""Correlation-based feature subset selection searched by greedy forward steps.

Numeric attributes are discretized (equal-frequency, correlation estimation
only), attribute-class and attribute-attribute association is measured by
symmetric uncertainty, and subsets are scored by the CFS merit
k * r_cf / sqrt(k + k*(k-1) * r_ff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .dataset import Dataset


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
    they exist only to estimate correlations.
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
    np.put_along_axis(bins, order, rank * n_bins // n, axis=0)
    return DiscretizedView(bins, n_bins, ds.schema)


def _label_entropy(arr: np.ndarray) -> float:
    _, counts = np.unique(arr, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def symmetric_uncertainty(x, y) -> float:
    """2 * IG(x; y) / (H(x) + H(y)) over discrete sequences, in [0, 1].

    Defined as 0 when both marginal entropies vanish (two constants carry
    no information either way).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError("need at least one element")
    hx = _label_entropy(x)
    hy = _label_entropy(y)
    if hx + hy == 0.0:
        return 0.0
    pairs = np.stack([x, y], axis=1)
    _, counts = np.unique(pairs, axis=0, return_counts=True)
    p = counts / counts.sum()
    hxy = float(-(p * np.log2(p)).sum())
    gain = max(0.0, hx + hy - hxy)
    return min(1.0, 2.0 * gain / (hx + hy))


def merit_from_correlations(k: int, r_cf: float, r_ff: float) -> float:
    """CFS merit of a size-k subset from its mean correlations."""
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


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
    labels = ds.label_indices()
    k = len(cols)
    r_cf = sum(symmetric_uncertainty(view.bins[:, c], labels) for c in cols) / k
    if k == 1:
        r_ff = 0.0
    else:
        pair_sus = [
            symmetric_uncertainty(view.bins[:, a], view.bins[:, b])
            for a, b in combinations(cols, 2)
        ]
        r_ff = sum(pair_sus) / len(pair_sus)
    return merit_from_correlations(k, r_cf, r_ff)


def greedy_stepwise(ds: Dataset, n_bins: int = 10) -> FeatureSubset:
    """Forward selection maximizing CFS merit, stopping at the first plateau.

    Starts from the empty set, admits the best singleton unconditionally,
    then keeps adding the attribute that most improves merit until no
    addition strictly improves it. Ties fall to schema order.
    """
    view = discretize(ds, n_bins)
    selected: list[str] = []
    current = -math.inf
    while True:
        best_name = None
        best_merit = -math.inf
        for name in ds.schema:
            if name in selected:
                continue
            m = cfs_merit([*selected, name], ds, view)
            if m > best_merit:
                best_merit = m
                best_name = name
        if best_name is None:
            break
        if selected and best_merit <= current:
            break
        selected.append(best_name)
        current = best_merit
    return FeatureSubset(tuple(selected), current)
