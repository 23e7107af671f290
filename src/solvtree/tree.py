"""Gain-ratio decision trees over numeric attributes with pessimistic pruning.

Induction follows the classic recipe: binary splits at observed attribute
values, gain ratio with an above-average-gain prefilter, a minimum number of
training records on both sides of every split, and bottom-up leaf
replacement driven by an inverted binomial tail bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from math import exp, inf, isfinite, lgamma, log, log1p, nextafter, pi, sqrt
from operator import add
from statistics import NormalDist
from typing import Iterable, Union

import numpy as np

from .dataset import CLASS_ALPHABET, N_CLASSES, CompanyRecord, Dataset, SolvencyClass
from .dataset import _check_int, _check_schema, _is_int, _real, _sum_in_order, attribute_column
from ._fork import _map

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
        object.__setattr__(self, "confidence_factor", _real("confidence_factor", self.confidence_factor))
        if not 0.0 < self.confidence_factor <= 0.5:
            raise ValueError(f"confidence_factor must be in (0, 0.5], got {self.confidence_factor}")
        _check_int("min_leaf", self.min_leaf, 1)
        if self.max_depth is not None:
            _check_int("max_depth", self.max_depth, 0)


@dataclass(frozen=True)
class Leaf:
    """A leaf's training class counts; it predicts the first majority class of them."""

    class_counts: tuple[int, int, int, int]

    @property
    def predicted(self) -> SolvencyClass:
        return _leaf_class(tuple(self.class_counts))


@dataclass(frozen=True)
class Split:
    attribute: str
    threshold: float
    left: "TreeNode"  # routed when value <= threshold
    right: "TreeNode"  # routed when value > threshold


TreeNode = Union[Leaf, Split]


def _leaf_class(counts: tuple[int, ...]) -> SolvencyClass:
    # the first maximum, which is the class-alphabet tie-break
    return CLASS_ALPHABET[counts.index(max(counts))]


@dataclass(frozen=True)
class _Tree:
    """A tree as pre-order nodes, one entry per node in each field; ``attribute`` is "" at a leaf.

    A split sends values <= its ``threshold`` to i + 1 and the rest to
    ``end[i + 1]``, where ``end[i]`` is one past i's subtree; its ``counts``
    are its children's sums. A reverse pass meets children before parents.
    """

    attribute: tuple[str, ...]
    threshold: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]
    end: tuple[int, ...] = field(compare=False)

    def root(self) -> TreeNode:
        """The Leaf/Split tree, built in one reverse pass."""
        built: list = [None] * len(self.end)
        for i, attribute in reversed(list(enumerate(self.attribute))):
            built[i] = (Split(attribute, self.threshold[i], built[i + 1], built[self.end[i + 1]]) if attribute
                        else Leaf(self.counts[i]))
        return built[0]


def _link(nodes: Iterable[tuple[str, float, tuple[int, ...]]]) -> _Tree:
    """Link pre-order (attribute, threshold, counts) triples: one reverse pass sets ends and split counts."""
    attribute, threshold, counts = map(list, zip(*nodes))
    end = list(range(1, len(counts) + 1))
    for i in reversed(range(len(counts))):
        if attribute[i]:  # the right child is end[i + 1]
            end[i] = end[end[i + 1]]
            counts[i] = tuple(map(add, counts[i + 1], counts[end[i + 1]]))
    return _Tree(tuple(attribute), tuple(threshold), tuple(counts), tuple(end))


def _check_node(schema: tuple[str, ...], attribute: str, threshold, counts: tuple, error=ValueError) -> None:
    """Raise ``error`` of a message unless a pre-order node fits a model on ``schema``: a split names a schema
    attribute and has a finite real threshold; a leaf ("" attribute) has four non-negative integer counts, not all 0."""
    if attribute and attribute not in schema:
        raise error(f"split attribute {attribute!r} not in schema")
    if attribute and not isfinite(_real("threshold", threshold)):  # grown trees split between finite values only
        raise error(f"non-finite threshold {threshold!r}")
    if not attribute and not (len(counts) == N_CLASSES and all(_is_int(c) and c >= 0 for c in counts) and sum(counts)):
        raise error(f"leaf counts must be {N_CLASSES} non-negative integers with a positive total")


def _flatten(root: TreeNode, schema: tuple[str, ...] | None = None) -> _Tree:
    """The pre-order nodes of a Leaf/Split tree, walked on an explicit stack; each checked if a ``schema`` is given."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            nodes.append(("", 0.0, tuple(node.class_counts)))
        else:
            nodes.append((node.attribute, node.threshold, ()))
            stack += (node.right, node.left)
        if schema is not None:
            _check_node(schema, *nodes[-1])
    return _link(nodes)


@dataclass(frozen=True)
class TreeModel:
    """A fitted tree. A Leaf/Split root given here is checked and flattened once; :attr:`root` is built on first use."""

    _tree: _Tree
    params: LearnerParams
    schema: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self._tree, _Tree):  # grown, pruned and parsed trees come as a _Tree, valid as made
            _check_schema(self.schema)
            object.__setattr__(self, "_tree", _flatten(self._tree, self.schema))
        object.__setattr__(self, "schema", tuple(self.schema))

    @property
    def training_fingerprint(self) -> tuple[int, tuple[int, int, int, int]]:
        """(training rows, per-class counts), read from the root's counts."""
        return sum(self._tree.counts[0]), self._tree.counts[0]

    @cached_property
    def root(self) -> TreeNode:
        return self._tree.root()


def entropy(counts) -> float:
    """Shannon entropy in bits of a count vector; the total must be positive."""
    vals = [float(c) for c in counts]
    if not all(0 <= c < inf for c in vals):
        raise ValueError("counts must be finite and non-negative")
    total = sum(vals)
    if total <= 0:
        raise ValueError("entropy needs at least one positive count")
    if total == inf:  # finite counts whose sum overflows: entropy does not change with scale
        top = max(vals)
        vals = [c / top for c in vals]
        total = sum(vals)
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


_FORK_DEPTH = 3  # growth maps the subtrees still open at this depth: at most 8


def _grow_nodes(X, y, schema, params: LearnerParams, rows, depth: int, stop: int | None) -> list:
    """Pre-order (attribute, threshold, counts) triples of the subtree grown on ``rows`` from ``depth``,
    with a placeholder (None, rows, depth) for each node at depth ``stop`` that is neither pure nor at
    ``params.max_depth``."""
    nodes, stack = [], [(rows, depth)]
    while stack:
        rows, depth = stack.pop()
        counts = np.bincount(y[rows], minlength=N_CLASSES)
        open_node = counts.max() < rows.size and (params.max_depth is None or depth < params.max_depth)
        if open_node and depth == stop:
            nodes.append((None, rows, depth))
            continue
        cand = best_split(X[rows], y[rows], params) if open_node else None
        if cand is None:
            nodes.append(("", 0.0, tuple(counts.tolist())))
            continue
        nodes.append((schema[cand.attribute_index], cand.threshold, ()))
        left = X[rows, cand.attribute_index] <= cand.threshold
        stack += ((rows[~left], depth + 1), (rows[left], depth + 1))
    return nodes


def grow_unpruned(ds: Dataset, params: LearnerParams = LearnerParams()) -> TreeModel:
    """Growth only; exposed so pruning effects can be inspected."""
    if len(ds) == 0:
        raise ValueError("cannot grow a tree on an empty dataset")
    grow_nodes = partial(_grow_nodes, ds.matrix(), ds.label_indices(), ds.schema, params)
    top = grow_nodes(np.arange(len(ds)), 0, _FORK_DEPTH)
    # the open subtrees, largest first, so that dealing them round-robin spreads the rows evenly;
    # one process or several, the same calls run in the same order, so the same tree or error results
    frontier = sorted((i for i, node in enumerate(top) if node[0] is None), key=lambda i: -top[i][1].size)
    subtrees = _map(lambda j: grow_nodes(*top[frontier[j]][1:], None), len(frontier), len(ds))
    grown = dict(zip(frontier, subtrees))
    tree = _link([grown_node for i, node in enumerate(top) for grown_node in grown.get(i, [node])])
    return TreeModel(tree, params, ds.schema)


def grow(ds: Dataset, params: LearnerParams = LearnerParams()) -> TreeModel:
    """Grow a tree by partitioning, then prune it with the confidence factor.

    Growth pops (rows, depth) pairs off an explicit stack, left child on
    top, so its depth is not limited by recursion and its nodes come off in
    pre-order, and scores each node's splits in one pass of :func:`best_split`.
    A node becomes a leaf when it is pure, when no admissible split exists,
    or at ``params.max_depth``. Every leaf keeps its training class counts.
    On Linux, a tree of ``FORK_MIN_ROWS`` rows or more, grown outside another
    forked map such as cross-validation's, grows its top levels here and the
    subtrees left open below them in up to usable-CPU processes: the same tree.
    """
    model = grow_unpruned(ds, params)
    return replace(model, _tree=_prune(model._tree, params.confidence_factor))


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
    error of a single majority leaf; the leaf wins ties. The pass is
    deterministic and idempotent.
    """
    return _prune(_flatten(root), cf).root()


def _prune(tree: _Tree, cf: float) -> _Tree:
    """:func:`prune` on pre-order nodes: a reverse pass decides each split from its
    children's pruned error sums, solving each bound once; a forward pass keeps the rest.
    """
    bound = cache(partial(pessimistic_error, cf=cf))  # one solve per (errors, n) in this call
    error, keep = [0.0] * len(tree.end), [False] * len(tree.end)  # pruned error sums; splits kept
    for i in reversed(range(len(tree.end))):
        n = sum(tree.counts[i])
        error[i] = n * bound(n - max(tree.counts[i]), n) if n else 0.0
        if tree.attribute[i]:
            subtree_error = error[i + 1] + error[tree.end[i + 1]]
            keep[i] = error[i] > subtree_error
            error[i] = min(error[i], subtree_error)
    nodes, i = [], 0
    while i < len(tree.end):
        nodes.append((tree.attribute[i], tree.threshold[i], ()) if keep[i] else ("", 0.0, tree.counts[i]))
        i = i + 1 if keep[i] else tree.end[i]
    return _link(nodes)


def predict(model: TreeModel, record: CompanyRecord) -> tuple[SolvencyClass, np.ndarray]:
    """Route a record to its leaf; returns (class, relative-frequency vector)."""
    classes, freqs = _route(model, [record.values])
    return CLASS_ALPHABET[classes[0]], freqs[0]


def _route(model: TreeModel, values) -> tuple[np.ndarray, np.ndarray]:
    """Route the rows of ``values`` (all eleven attributes, in ``ATTRIBUTE_NAMES`` order) to their leaves.

    Pre-order node indices and their row-index arrays are popped off an explicit
    stack. Returns each row's class index and its leaf's class frequencies, shape (n, 4).
    """
    tree = model._tree
    values = np.asarray(values, dtype=float)
    freqs = np.empty((len(values), N_CLASSES))
    stack = [(0, np.arange(len(values)))]
    while stack:
        i, rows = stack.pop()
        if rows.size == 0:
            continue
        if tree.attribute[i]:
            left = values[rows, attribute_column(tree.attribute[i])] <= tree.threshold[i]
            stack += ((tree.end[i + 1], rows[~left]), (i + 1, rows[left]))
        else:
            freqs[rows] = np.array(tree.counts[i], dtype=float) / sum(tree.counts[i])
    return freqs.argmax(axis=1), freqs


def node_count(node: TreeNode) -> int:
    """Number of nodes (splits plus leaves) in a subtree."""
    return len(_flatten(node).end)
