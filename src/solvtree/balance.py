"""Class-imbalance correction: bias-to-uniform resampling and SMOTE synthesis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import (
    ATTRIBUTE_NAMES,
    CLASS_ALPHABET,
    N_CLASSES,
    CompanyRecord,
    Dataset,
    _round_half_up,
)


@dataclass(frozen=True)
class BalanceTargets:
    """Balancing request: one of two modes plus its knobs."""

    mode: str  # "resample" or "smote"
    bias_to_uniform: float = 1.0
    sample_size_percent: float = 100.0
    target_counts: tuple[int, int, int, int] | None = None
    k_neighbors: int = 5

    def __post_init__(self) -> None:
        if self.mode not in ("resample", "smote"):
            raise ValueError(f"mode must be 'resample' or 'smote', got {self.mode!r}")
        if not 0.0 <= self.bias_to_uniform <= 1.0:
            raise ValueError(f"bias_to_uniform must be in [0, 1], got {self.bias_to_uniform}")
        if not 0 < self.sample_size_percent < math.inf:
            raise ValueError(f"sample_size_percent must be finite and > 0, got {self.sample_size_percent}")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.mode == "smote":
            if self.target_counts is None:
                raise ValueError("smote mode needs target_counts")
            object.__setattr__(
                self, "target_counts", tuple(int(c) for c in self.target_counts)
            )
            if len(self.target_counts) != N_CLASSES:
                raise ValueError("target_counts must have one entry per class")


def resample(
    ds: Dataset,
    bias_to_uniform: float = 1.0,
    sample_size_percent: float = 100.0,
    seed: int = 0,
) -> Dataset:
    """Sample with replacement, nudging class probabilities toward uniform.

    Draws N = round(sample_size_percent/100 * n) records. Each draw picks
    class c with probability (1-b) * n_c/n + b/4 where b is
    ``bias_to_uniform``, then a uniformly random member of that class.
    A class with no members that would still receive positive probability
    is an error. Deterministic for a given seed; output rows are the input
    rows themselves, repeated as drawn.
    """
    if not 0.0 <= bias_to_uniform <= 1.0:
        raise ValueError(f"bias_to_uniform must be in [0, 1], got {bias_to_uniform}")
    if not 0 < sample_size_percent < math.inf:
        raise ValueError(f"sample_size_percent must be finite and > 0, got {sample_size_percent}")
    n = len(ds)
    if n == 0:
        raise ValueError("cannot resample an empty dataset")
    y = ds.label_indices()
    counts = np.bincount(y, minlength=N_CLASSES).tolist()
    probs = np.array(
        [
            (1.0 - bias_to_uniform) * c / n + bias_to_uniform / N_CLASSES
            for c in counts
        ]
    )
    for cls, c, p in zip(CLASS_ALPHABET, counts, probs):
        if p > 0 and c == 0:
            raise ValueError(
                f"class {cls.csv_name} has no members but draw probability {p:.6g}"
            )
    members = np.argsort(y, kind="stable")  # row indices class after class, in row order within one
    sizes = np.array(counts)
    first = np.cumsum(sizes) - sizes  # where each class starts in members
    size = _round_half_up(sample_size_percent / 100.0 * n)
    rng = np.random.default_rng(seed)
    class_draws = rng.choice(N_CLASSES, size=size, p=probs)
    # one call takes from the stream exactly what one scalar call per draw would
    picks = rng.integers(0, sizes[class_draws])
    return ds.take(members[first[class_draws] + picks])


def nearest_neighbors(
    query: CompanyRecord,
    pool: Sequence[CompanyRecord],
    k: int,
    schema: Sequence[str] = ATTRIBUTE_NAMES,
) -> list[CompanyRecord]:
    """The k pool records closest to the query, by Euclidean distance.

    Distance is computed over the schema attributes only. Results come in
    ascending distance; ties keep pool order; a pool smaller than k is
    returned whole. The pool must exclude the query row itself.
    """
    if not pool:
        raise ValueError("pool must not be empty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.array([query.value(a) for a in schema])
    P = np.array([[r.value(a) for a in schema] for r in pool])
    return [pool[i] for i in _nearest_rows(P, q, k).tolist()]


def _nearest_rows(P: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k rows of P nearest to q, ascending distance, ties in row order."""
    d = np.sqrt(((P - q) ** 2).sum(axis=1))
    return np.argsort(d, kind="stable")[:k]


def smote(
    ds: Dataset,
    target_counts: Sequence[int],
    k_neighbors: int = 5,
    seed: int = 0,
) -> Dataset:
    """Oversample classes up to absolute per-class target counts.

    For each class, target - current synthetic records are appended. A
    synthetic record interpolates between a class member (members cycle in
    dataset order) and one of its k nearest same-class neighbors, at a
    uniform random fraction of the segment. Originals are kept unmodified;
    synthetic rows carry the class label but no company identity. Per-class
    random streams derive from (seed, class index), so synthesis is
    deterministic and classes are independent.
    """
    targets = tuple(int(c) for c in target_counts)
    if len(targets) != N_CLASSES:
        raise ValueError("target_counts must have one entry per class")
    if k_neighbors < 1:
        raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
    y = ds.label_indices()
    counts = np.bincount(y, minlength=N_CLASSES).tolist()
    for cls, have, want in zip(CLASS_ALPHABET, counts, targets):
        if want < have:
            raise ValueError(
                f"target {want} below current count {have} for class {cls.csv_name}"
            )
        if want > have and have < 2:
            raise ValueError(
                f"class {cls.csv_name} needs at least 2 members to synthesize, has {have}"
            )
    base, neighbor, fraction = [], [], []  # one entry per synthetic row
    columns = [ATTRIBUTE_NAMES.index(a) for a in ds.schema]
    for cls in CLASS_ALPHABET:
        deficit = targets[cls.value] - counts[cls.value]
        if deficit == 0:
            continue
        members = np.flatnonzero(y == cls.value)
        M = ds.values[np.ix_(members, columns)]  # the class's rows of ds.matrix()
        # Member s is at distance 0 from itself, so dropping it from the stable
        # order over all members leaves the stable order over the others, and
        # the first k+1 rows hold the first k of those whether or not s is there.
        neighbor_rows = []
        for s in range(min(deficit, len(members))):
            order = _nearest_rows(M, M[s], k_neighbors + 1)
            neighbor_rows.append(order[order != s][:k_neighbors].tolist())
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, cls.value]))
        for t in range(deficit):
            s = t % len(members)
            neighbors = neighbor_rows[s]
            base.append(members[s])
            neighbor.append(members[neighbors[int(rng.integers(len(neighbors)))]])
            fraction.append(float(rng.random()))
    # Every numeric column moves by the same fraction u along a + u * (b - a),
    # so the synthetic row is a valid CSV row; car stays in its band because
    # bands are intervals.
    base, neighbor, u = np.array(base, dtype=np.intp), np.array(neighbor, dtype=np.intp), np.array(fraction)

    def interpolate(column: np.ndarray, weight: np.ndarray) -> np.ndarray:
        # a + weight * (b - a) of the base and neighbor rows, in place of b's copy
        a, out = column[base], column[neighbor]
        out -= a
        out *= weight
        out += a
        return out

    no_id, no_money = np.full(len(u), None), np.full(len(u), np.nan)  # company_id/year, tca/tcr
    synthetic = (no_id, no_id, no_money, no_money, interpolate(ds.car, u),
                 interpolate(ds.values, u[:, None]), ds.y[base])
    return Dataset._of(ds.schema, *map(np.concatenate, zip(ds._columns(), synthetic)))
