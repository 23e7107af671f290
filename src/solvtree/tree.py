"""Gain-ratio decision trees over numeric attributes with pessimistic pruning.

Induction follows the classic recipe: binary splits at observed attribute
values, gain ratio with an above-average-gain prefilter, a minimum number of
training records on both sides of every split, and bottom-up leaf
replacement driven by an inverted binomial tail bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial
from math import exp, inf, lgamma, log, log1p, nextafter, pi, sqrt
from statistics import NormalDist
from typing import Iterable, Iterator, Union

import numpy as np

from .dataset import CLASS_ALPHABET, N_CLASSES, CompanyRecord, Dataset, SolvencyClass
from .dataset import _sum_in_order, attribute_column

# Score comparisons treat differences within this slack as ties so exact
# mathematical ties are not broken by rounding noise.
_TIE_EPS = 1e-12

_HALF_LOG_2PI = 0.5 * log(2.0 * pi)


@dataclass(frozen=True)
class LearnerParams:
    """Induction settings. Defaults: confidence factor 0.25, two records per leaf."""

    confidence_factor: float = 0.25
    min_leaf: int = 2
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence_factor <= 0.5:
            raise ValueError(f"confidence_factor must be in (0, 0.5], got {self.confidence_factor}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")


@dataclass(frozen=True)
class Leaf:
    class_counts: tuple[int, int, int, int]
    predicted: SolvencyClass


@dataclass(frozen=True)
class Split:
    attribute: str
    threshold: float
    left: "TreeNode"  # routed when value <= threshold
    right: "TreeNode"  # routed when value > threshold


TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class TreeModel:
    root: TreeNode
    params: LearnerParams
    schema: tuple[str, ...]
    training_fingerprint: tuple[int, tuple[int, int, int, int]]


def entropy(counts) -> float:
    """Shannon entropy in bits of a count vector; the total must be positive."""
    vals = [float(c) for c in counts]
    if not all(0 <= c < inf for c in vals):
        raise ValueError("counts must be finite and non-negative")
    total = sum(vals)
    if total <= 0:
        raise ValueError("entropy needs at least one positive count")
    return float(_entropy_cols(np.array(vals)[:, None], total)[0])


def _entropy_cols(counts, totals) -> np.ndarray:
    """Entropy in bits at each position of class-major ``counts``, whose sums are ``totals``.

    Terms are added in class order, in place, as a Python sum adds them. No
    term is -0.0, so starting from 0.0 or leaving out absent classes changes no sum.
    """
    h = 0.0
    for c in counts:
        p = c / totals
        term = np.log2(p + (p == 0.0))  # log2(1) = 0 gives 0 * log 0 its limit, +0.0
        term *= p
        h += term
    return -h


@dataclass(frozen=True)
class SplitCandidate:
    attribute_index: int
    threshold: float
    gain: float
    gain_ratio: float


def best_split(values, labels, params: LearnerParams = LearnerParams()) -> SplitCandidate | None:
    """Pick the binary split maximizing gain ratio among above-average-gain cuts.

    Candidate thresholds are the distinct observed values of each attribute
    (a row goes left when its value is <= the threshold) whose partition
    keeps at least ``params.min_leaf`` records on both sides. Among the
    candidates whose information gain reaches the mean gain of all
    candidates, the largest gain ratio wins; ties fall to the earliest
    attribute, then the smallest threshold. Returns None for pure nodes and
    when no threshold satisfies the min_leaf constraint.

    ``values`` is an (n, k) array-like of attribute columns, ``labels`` the
    per-row class indices.
    """
    X = np.asarray(values, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    n = len(y)
    node_counts = np.bincount(y, minlength=N_CLASSES)
    # a cut after sorted row i leaves nl = i + 1 rows on the left; min_leaf bounds i
    lo, hi = params.min_leaf - 1, n - params.min_leaf
    if lo >= hi or X.shape[1] == 0 or node_counts.max() == n:
        return None
    # The sort need not be stable: cuts fall only between distinct values, so
    # the order of tied rows changes no cut, no left count and no candidate order.
    order = np.argsort(X.T, axis=1)
    vs = np.take_along_axis(X.T, order, axis=1)
    ys = y.take(order)  # each attribute's labels in its sorted order
    cuts = np.zeros(vs.shape, dtype=bool)
    np.less(vs[:, lo:hi], vs[:, lo + 1:hi + 1], out=cuts[:, lo:hi])
    flat = np.flatnonzero(cuts)  # attribute-major candidate order
    if flat.size == 0:
        return None
    present = np.flatnonzero(node_counts)
    left = [np.cumsum(ys == j, axis=1, dtype=np.int32).take(flat) for j in present]
    right = [int(node_counts[j]) - counts for j, counts in zip(present, left)]
    nl, nr = sum(left), sum(right)
    h_node = _entropy_cols(node_counts[present, None], n)[0]
    gains = h_node - nl / n * _entropy_cols(left, nl) - nr / n * _entropy_cols(right, nr)
    mean_gain = _sum_in_order(gains) / gains.size
    eligible = np.flatnonzero(gains >= mean_gain - _TIE_EPS)
    # split information depends only on nl, so it is computed once per cut position
    nls = np.arange(1, n)
    ratio = gains[eligible] / _entropy_cols((nls, n - nls), n)[nl[eligible] - 1]
    # The running best is never more than _TIE_EPS below the running maximum,
    # so only a strict new maximum can displace it.
    rising = np.flatnonzero(ratio[1:] > np.maximum.accumulate(ratio[:-1])) + 1
    ratio = ratio.tolist()
    best = 0
    for i in rising.tolist():
        if ratio[i] > ratio[best] + _TIE_EPS:
            best = i
    k = eligible[best]
    a, i = divmod(int(flat[k]), n)
    threshold = X[X[:, a] == vs[a, i], a][-1]  # a stable sort's pick: keeps a ±0 tie's sign
    return SplitCandidate(a, float(threshold), float(gains[k]), float(ratio[best]))


def _leaf_from_counts(counts) -> Leaf:
    counts = tuple(int(c) for c in counts)
    # argmax takes the first maximum, which is the class-alphabet tie-break
    predicted = CLASS_ALPHABET[int(np.argmax(counts))]
    return Leaf(counts, predicted)


def _grow_preorder(
    X: np.ndarray, y: np.ndarray, schema: tuple[str, ...], params: LearnerParams
) -> Iterator[Leaf | tuple[str, float]]:
    """Grow from an explicit stack of (row indices, depth), yielding nodes in pre-order.

    A node is a Leaf, or a split's (attribute, threshold) followed by its
    left and then its right subtree.
    """
    stack = [(np.arange(len(y)), 0)]
    while stack:
        rows, depth = stack.pop()
        counts = np.bincount(y[rows], minlength=N_CLASSES)
        open_node = counts.max() < rows.size and (params.max_depth is None or depth < params.max_depth)
        cand = best_split(X[rows], y[rows], params) if open_node else None
        if cand is None:
            yield _leaf_from_counts(counts)
            continue
        yield schema[cand.attribute_index], cand.threshold
        left = X[rows, cand.attribute_index] <= cand.threshold
        stack += ((rows[~left], depth + 1), (rows[left], depth + 1))


def _assemble(nodes: Iterable[Leaf | tuple[str, float]]) -> TreeNode:
    """Build a tree from pre-order nodes; splits wait on a stack until both children are built."""
    pending: list[list] = []  # [attribute, threshold, left child once built]
    for node in nodes:
        if isinstance(node, tuple):
            pending.append([*node, None])
            continue
        while pending and pending[-1][2] is not None:
            attribute, threshold, left = pending.pop()
            node = Split(attribute, threshold, left, node)
        if not pending:
            return node
        pending[-1][2] = node
    raise ValueError("pre-order nodes ended before the tree was complete")


def grow_unpruned(ds: Dataset, params: LearnerParams = LearnerParams()) -> TreeModel:
    """Growth only; exposed so pruning effects can be inspected."""
    if len(ds) == 0:
        raise ValueError("cannot grow a tree on an empty dataset")
    y = ds.label_indices()
    root = _assemble(_grow_preorder(ds.matrix(), y, ds.schema, params))
    counts = tuple(int(c) for c in np.bincount(y, minlength=N_CLASSES))
    return TreeModel(root, params, ds.schema, (len(ds), counts))


def grow(ds: Dataset, params: LearnerParams = LearnerParams()) -> TreeModel:
    """Grow a tree by partitioning, then prune it with the confidence factor.

    Growth pops (rows, depth) pairs off an explicit stack, so its depth is
    not limited by recursion, and scores each node's splits in one pass of
    :func:`best_split`. A node becomes a leaf when it is pure, when no
    admissible split exists, or at ``params.max_depth``. Every leaf keeps
    the class counts of the training records routed to it.
    """
    model = grow_unpruned(ds, params)
    return replace(model, root=prune(model.root, params.confidence_factor))


def pessimistic_error(misclassified: int, n: int, cf: float) -> float:
    """Upper confidence limit on a node's true error rate.

    Returns the p solving P[Binomial(n, p) <= misclassified] = cf. n errors
    give 1; fewer are solved by :func:`invert_binomial_tail`, which returns
    the closed form 1 - cf**(1/n) for zero errors.
    """
    if not 0.0 < cf < 1.0:
        raise ValueError(f"cf must be in (0, 1), got {cf}")
    e = int(misclassified)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= e <= n:
        raise ValueError(f"misclassified must be in [0, n], got {e} of {n}")
    if e == n:
        return 1.0
    return invert_binomial_tail(e, n, cf)


def _stirling_error(k: int) -> float:
    """log(k!) - log(sqrt(2 pi k) (k/e)**k), by its asymptotic series above 15."""
    if k <= 15:
        return lgamma(k + 1.0) - (k + 0.5) * log(k) + k - _HALF_LOG_2PI
    k2 = 1.0 / (k * k)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - k2 / 1188) * k2) * k2) * k2) / k


def invert_binomial_tail(e: int, n: int, cf: float) -> float:
    """Solve P[Binomial(n, p) <= e] = cf for p, where 0 <= e < n.

    Safeguarded Newton on log F(p), F(p) = P[Binomial(n, p) <= e], inside
    a bracket that bisects whenever a step leaves it. F is pmf(e) * S with
    S = sum over k <= e of pmf(k) / pmf(e), summed downward from k = e, and
    d/dp log F = -(n - e) / (q S). log pmf(e) is taken in Loader's
    saddle-point form (Stirling errors plus deviance terms), which keeps
    full precision where log C(n, e) and e log p cancel. The start is the
    normal approximation to the Beta(e + 1, n - e) quantile (Abramowitz &
    Stegun 26.5.22). Iteration stops once a step is below 1e-9 of min(p, q)
    or no longer moves p.
    """
    if e == 0:  # the pmf form below needs e >= 1
        return 1.0 - cf ** (1.0 / n)
    m = n - e
    y = NormalDist().inv_cdf(cf)
    lam = (y * y - 3.0) / 6.0
    ra, rb = 1.0 / (2 * e + 1), 1.0 / (2 * m - 1)
    h = 2.0 / (ra + rb)
    w = y * sqrt(h + lam) / h - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    p = min((e + 1) / (e + 1 + m * exp(2.0 * w)), nextafter(1.0, 0.0))
    # log pmf(e) = c - bd0(e, np) - bd0(m, nq), with bd0(x, mu) = x log(x / mu) + mu - x
    c = (0.5 * log(n / (e * m)) - _HALF_LOG_2PI - log(cf)
         + _stirling_error(n) - _stirling_error(e) - _stirling_error(m))
    lo, hi = 0.0, 1.0
    while True:
        q = 1.0 - p
        odds = q / p
        s = term = 1.0  # near the root the terms fall away from k = e, as cf <= 0.5
        for k in range(e, 0, -1):
            term *= k / (n - k + 1) * odds
            s += term
            if term < 1e-17 * s:
                break
        de, dm = e - n * p, m - n * q
        f = c - e * log1p(de / (n * p)) + de - m * log1p(dm / (n * q)) + dm + log(s)
        step = f * q * s / m
        if abs(step) < 1e-9 * min(p, q) or p + step == p:
            return p + step
        if f > 0.0:
            lo = p
        else:
            hi = p
        p += step
        if not lo < p < hi:
            p = 0.5 * (lo + hi)
            if p == lo or p == hi:  # no float left inside the bracket
                return p


def prune(root: TreeNode, cf: float) -> TreeNode:
    """Bottom-up leaf replacement wherever it does not raise the error bound.

    At each internal node the estimated subtree error (sum over its leaves
    of n * pessimistic_error, left subtree first) is compared with the
    error of a single majority leaf; the leaf wins ties. One post-order
    walk on an explicit stack carries each subtree's pruned node, class
    counts and error sum upward, so no subtree is walked twice, no bound is
    solved twice and depth is not limited by recursion. The pass is
    deterministic and idempotent.
    """
    bound = cache(partial(pessimistic_error, cf=cf))  # one solve per (errors, n) in this call
    done: list[tuple[TreeNode, tuple[int, ...], float]] = []  # pruned subtrees, left before right
    stack: list[tuple[TreeNode, bool]] = [(root, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Leaf):
            n = sum(node.class_counts)
            error = 0.0 if n == 0 else n * bound(n - max(node.class_counts), n)
            done.append((node, node.class_counts, error))
        elif not children_done:
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            right, right_counts, right_error = done.pop()
            left, left_counts, left_error = done.pop()
            counts = tuple(a + b for a, b in zip(left_counts, right_counts))
            n = sum(counts)
            subtree_error = left_error + right_error
            leaf_error = n * bound(n - max(counts), n)
            if leaf_error <= subtree_error:
                done.append((_leaf_from_counts(counts), counts, leaf_error))
            else:
                done.append((Split(node.attribute, node.threshold, left, right), counts, subtree_error))
    return done[0][0]


def predict(model: TreeModel, record: CompanyRecord) -> tuple[SolvencyClass, np.ndarray]:
    """Route a record to its leaf; returns (class, relative-frequency vector)."""
    classes, freqs = _route(model.root, [record.values])
    return CLASS_ALPHABET[classes[0]], freqs[0]


def _route(root: TreeNode, values) -> tuple[np.ndarray, np.ndarray]:
    """Route each row of ``values`` to its leaf on an explicit stack of row-index arrays.

    ``values`` holds all eleven attributes in ``ATTRIBUTE_NAMES`` order, one
    row per record. Returns each row's class index and its leaf's relative
    class frequencies, shape (n, 4).
    """
    values = np.asarray(values, dtype=float)
    classes = np.empty(len(values), dtype=np.int64)
    freqs = np.empty((len(values), N_CLASSES))
    stack = [(root, np.arange(len(values)))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if isinstance(node, Leaf):
            classes[rows] = node.predicted.value
            freqs[rows] = np.array(node.class_counts, dtype=float) / sum(node.class_counts)
        else:
            left = values[rows, attribute_column(node.attribute)] <= node.threshold
            stack += ((node.right, rows[~left]), (node.left, rows[left]))
    return classes, freqs


def node_count(node: TreeNode) -> int:
    """Number of nodes (splits plus leaves) in a subtree."""
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Split):
            stack += (node.left, node.right)
    return count
