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

from .dataset import Dataset, _check_int, _check_schema, _sum_in_order


@dataclass(frozen=True, eq=False)
class DiscretizedView:
    """Per-attribute integer bin ids for every record; feeds correlation only."""

    bins: np.ndarray  # shape (n_records, n_attributes)
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class FeatureSubset:
    selected: tuple[str, ...]
    merit: float


def discretize(ds: Dataset, n_bins: int = 10) -> DiscretizedView:
    """Equal-frequency bins by rank, with equal values always sharing a bin.

    A value's rank is the count of smaller values in its column, read from
    one ``np.unique``, and its bin is ``rank * min(n_bins, n) // n``, so
    all-distinct values fill bins whose sizes differ by at most one. Equal
    values (-0.0 and 0.0 included) share a rank, otherwise row order would
    leak into the correlation estimates. Learners never see these bins;
    they exist only to estimate correlations. Any ``n_bins`` from the row
    count up gives each rank a bin of its own, so it is capped there.
    """
    _check_int("n_bins", n_bins, 2)
    n = len(ds)
    if n == 0:
        raise ValueError("cannot discretize an empty dataset")
    ranks = []
    for column in ds.matrix().T:
        _, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - counts)[inverse])
    bins = np.column_stack(ranks) * min(n_bins, n) // n  # int64-safe
    return DiscretizedView(bins, ds.schema)


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


class _SuTable(dict):
    """Symmetric uncertainty of ordered pairs of view columns, each computed when first read.

    The class is the column one past the last attribute. Pairs stay ordered
    because SU(a, b) and SU(b, a) can differ in the last bit, and a merit
    must add the same values a direct computation would.
    """

    def __init__(self, view: DiscretizedView, labels: np.ndarray):
        super().__init__()
        self.columns = [*view.bins.T, labels]

    def __missing__(self, pair: tuple[int, int]) -> float:
        su = self[pair] = symmetric_uncertainty(self.columns[pair[0]], self.columns[pair[1]])
        return su


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
    _check_schema(subset)
    missing = [name for name in subset if name not in view.attributes]
    if missing:
        raise ValueError(f"attribute {missing[0]!r} not in the discretized view")
    cols = [view.attributes.index(name) for name in subset]
    return _merit(cols, _SuTable(view, ds.label_indices()), len(view.attributes))


def greedy_stepwise(ds: Dataset, n_bins: int = 10) -> FeatureSubset:
    """Forward selection maximizing CFS merit, stopping at the first plateau.

    Starts from the empty set, admits the best singleton unconditionally,
    then keeps adding the attribute that most improves merit until no
    addition strictly improves it. Ties fall to schema order.
    """
    view = discretize(ds, n_bins)
    cls = len(view.attributes)
    su = _SuTable(view, ds.label_indices())  # reads only (earlier pick, candidate) pairs
    selected: list[int] = []
    current = -math.inf
    while len(selected) < cls:
        merits = {c: _merit([*selected, c], su, cls) for c in range(cls) if c not in selected}
        best = max(merits, key=merits.get)  # the first of equal merits, in schema order
        if selected and merits[best] <= current:
            break
        selected.append(best)
        current = merits[best]
    return FeatureSubset(tuple(view.attributes[c] for c in selected), current)
