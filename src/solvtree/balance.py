"""Class-imbalance correction: bias-to-uniform resampling and SMOTE synthesis, per dataset or per fold."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import (
    ATTRIBUTE_NAMES,
    CLASS_ALPHABET,
    N_CLASSES,
    CompanyRecord,
    Dataset,
    SolvencyClass,
    _ATTR_INDEX,
    _check_int,
    _class_counts,
    _real,
    _round_half_up,
    class_distribution,
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
        for knob in ("bias_to_uniform", "sample_size_percent"):
            object.__setattr__(self, knob, _real(knob, getattr(self, knob)))
        if not 0.0 <= self.bias_to_uniform <= 1.0:
            raise ValueError(f"bias_to_uniform must be in [0, 1], got {self.bias_to_uniform}")
        if not 0 < self.sample_size_percent < math.inf:
            raise ValueError(f"sample_size_percent must be finite and > 0, got {self.sample_size_percent}")
        _check_int("k_neighbors", self.k_neighbors, 1)
        if self.mode == "smote":
            if self.target_counts is None:
                raise ValueError("smote mode needs target_counts")
            object.__setattr__(self, "target_counts", _class_counts("target_counts", self.target_counts))


def _short_classes(counts: Sequence[int], request: BalanceTargets) -> list[SolvencyClass]:
    """The classes that ``request`` cannot serve on data with these per-class counts.

    Resampling cannot draw from an absent class that keeps a positive draw
    probability, bias / 4; SMOTE cannot synthesize for a class below its
    target with fewer than 2 members.
    """
    if request.mode == "resample":
        drawn = request.bias_to_uniform / N_CLASSES > 0
        return [cls for cls, c in zip(CLASS_ALPHABET, counts) if c == 0 and drawn]
    return [cls for cls, c, t in zip(CLASS_ALPHABET, counts, request.target_counts) if t > c and c < 2]


def _apply(ds: Dataset, request: BalanceTargets, seed: int) -> Dataset:
    """``ds`` balanced as ``request`` asks."""
    if request.mode == "resample":
        return resample(ds, request.bias_to_uniform, request.sample_size_percent, seed)
    return smote(ds, request.target_counts, request.k_neighbors, seed)


_SKIPPED = {
    "resample": "absent from the training portion; resampling skipped",
    "smote": "has fewer than 2 training members; oversampling skipped",
}


def _balanced_training(train: Dataset, balance: BalanceTargets, seed: int, fold: int) -> tuple[Dataset, list[str]]:
    """Fold ``fold``'s ``train`` balanced as ``balance`` asks, and its warnings; unbalanced where it cannot be."""
    counts = class_distribution(train)
    if balance.mode == "smote":  # clamp targets to the fold's counts so shrunk folds stay valid
        balance = replace(balance, target_counts=tuple(map(max, balance.target_counts, counts)))
    short = _short_classes(counts, balance)
    if short:
        names = ", ".join(cls.csv_name for cls in short)
        return train, [f"fold {fold}: class {names} {_SKIPPED[balance.mode]}"]
    return _apply(train, balance, seed), []


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
    request = BalanceTargets("resample", bias_to_uniform, sample_size_percent)
    _check_int("seed", seed, 0)
    n = len(ds)
    if n == 0:
        raise ValueError("cannot resample an empty dataset")
    y = ds.label_indices()
    sizes = np.bincount(y, minlength=N_CLASSES)
    short = _short_classes(sizes, request)
    if short:
        raise ValueError(
            f"class {short[0].csv_name} has no members but draw probability {bias_to_uniform / N_CLASSES:.6g}"
        )
    probs = (1.0 - bias_to_uniform) * sizes / n + bias_to_uniform / N_CLASSES
    members = np.argsort(y, kind="stable")  # row indices class after class, in row order within one
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
    _check_int("k", k, 1)
    X = Dataset((query, *pool), schema).matrix()
    return [pool[i] for i in _nearest_block(X[1:], X[:1], k)[0].tolist()]


_CHUNK = 2**15  # elements in one chunk's (queries, rows, attributes) differences


def _squared_distances(M: np.ndarray, Q: np.ndarray):
    """Squared distances from chunks of Q's rows to M's rows; each row is ((M - q) ** 2).sum(axis=1)."""
    step = max(1, _CHUNK // max(M.size, 1))
    for i in range(0, len(Q), step):
        diff = M[None] - Q[i : i + step, None]
        yield np.square(diff, out=diff).sum(axis=2)  # a contiguous last axis, as in the row form


def _nearest_block(M: np.ndarray, Q: np.ndarray, k: int) -> np.ndarray:
    """Per row of Q, the k rows of M nearest to it, ascending distance, ties in row order."""
    # roots, not squares: distinct squares can round to one root, and then row order decides
    return np.concatenate([_first_k(np.sqrt(d, out=d), k) for d in _squared_distances(M, Q)])


def _first_k(d: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``d``, the columns of its k smallest entries, ascending, ties in column order: a stable sort's."""
    k = min(k, d.shape[1])
    # the entries at or below a row's k-th smallest, ties at the cut included, hold its first k; nonzero
    # lists them row by row in column order, which the stable lexsort keeps among equal entries of a row
    row, col = np.nonzero(d <= np.partition(d, k - 1, axis=1)[:, k - 1, None])
    col = col[np.lexsort((d[row, col], row))]
    return col[np.searchsorted(row, np.arange(len(d)))[:, None] + np.arange(k)]


def _draws(entropy: list[int], nn: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """What ``count`` pairs of rng.integers(nn), rng.random() calls on a fresh rng return.

    PCG64 serves random() by one raw output and integers(nn) by Lemire's method on one
    32-bit half of one, low half first; integers(1) draws nothing. Where Lemire would
    draw again, the calls are made one by one.
    """
    size = count if nn == 1 else 3 * ((count + 1) // 2)
    raw = np.random.PCG64(np.random.SeedSequence(entropy)).random_raw(size)
    if nn == 1:
        return np.zeros(count, dtype=np.intp), (raw >> 11) * 2.0**-53
    raw = raw.reshape(-1, 3)  # per two call pairs: both picks' halves, then both fractions
    m = np.column_stack((raw[:, 0] & 0xFFFFFFFF, raw[:, 0] >> 32)).ravel()[:count] * nn
    if ((m & 0xFFFFFFFF) >= 2**32 % nn).all():
        return (m >> 32).astype(np.intp), (raw[:, 1:].ravel()[:count] >> 11) * 2.0**-53
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    picks, fractions = zip(*[(rng.integers(nn), rng.random()) for _ in range(count)])
    return np.array(picks, dtype=np.intp), np.array(fractions)


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

    Each class runs in numpy blocks: its visited members' distances come in
    row chunks of bounded size, each ordered by a partition and one sort of
    the entries at or below each row's cut, and every
    pick and fraction is read from one block of raw PCG64 outputs the way
    numpy's scalar calls read them (``_draws``; a test pins these numpy
    internals, and a class with a rejected draw makes the scalar calls).
    """
    request = BalanceTargets("smote", target_counts=target_counts, k_neighbors=k_neighbors)
    _check_int("seed", seed, 0)
    y = ds.label_indices()
    counts = np.bincount(y, minlength=N_CLASSES).tolist()
    short = _short_classes(counts, request)
    for cls, have, want in zip(CLASS_ALPHABET, counts, request.target_counts):
        if want < have:
            raise ValueError(
                f"target {want} below current count {have} for class {cls.csv_name}"
            )
        if cls in short:
            raise ValueError(
                f"class {cls.csv_name} needs at least 2 members to synthesize, has {have}"
            )
    parts = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]  # base, neighbor and fraction rows
    columns = [_ATTR_INDEX[a] for a in ds.schema]
    for cls in CLASS_ALPHABET:
        deficit = request.target_counts[cls.value] - counts[cls.value]
        if deficit == 0:
            continue
        members = np.flatnonzero(y == cls.value)
        nn = min(k_neighbors, len(members) - 1)
        M = ds.values[np.ix_(members, columns)]  # the class's rows of ds.matrix()
        visited = min(deficit, len(members))
        # Member s is at distance 0 from itself, so dropping it from the stable
        # order over all members leaves the stable order over the others, and
        # the first nn+1 columns hold the first nn of those whether or not s is there.
        order = _nearest_block(M, M[:visited], nn + 1)
        keep = order != np.arange(visited)[:, None]
        keep &= np.cumsum(keep, axis=1) <= nn
        s = np.arange(deficit) % len(members)
        picks, fraction = _draws([seed, cls.value], nn, deficit)
        parts.append((members[s], members[order[keep].reshape(visited, nn)[s, picks]], fraction))
    # Every numeric column moves by the same fraction u along a + u * (b - a),
    # so the synthetic row is a valid CSV row; car stays in its band because
    # bands are intervals.
    base, neighbor, u = map(np.concatenate, zip(*parts))

    def interpolate(column: np.ndarray, weight: np.ndarray) -> np.ndarray:
        # a + weight * (b - a) of the base and neighbor rows, in place of b's copy
        a, out = column[base], column[neighbor]
        out -= a
        out *= weight
        out += a
        return out

    return ds._append(car=interpolate(ds.car, u), values=interpolate(ds.values, u[:, None]), y=ds.y[base])
