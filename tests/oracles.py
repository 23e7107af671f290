"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with plain python loops, separate
from the library code paths it verifies.
"""

from __future__ import annotations

import math
from functools import cache, partial
from itertools import combinations
from typing import Sequence

import numpy as np

from solvtree import CLASS_ALPHABET, CompanyRecord, Dataset, ATTRIBUTE_NAMES, Leaf, Split, TreeNode
from solvtree import BalanceTargets, LearnerParams, pessimistic_error, stratified_folds
from solvtree.dataset import _LABELS, _N_CELLS, CsvFormatError, SolvencyClass, _cell_float, _check_row, _plain

# CAR values inside each band so synthetic test records stay label-consistent
_BAND_CAR = {0: 50.0, 1: 110.0, 2: 135.0, 3: 200.0}


def make_dataset(rows, labels, schema=None) -> Dataset:
    """Build a Dataset from plain (rows, label-index) pairs for tree tests."""
    k = len(rows[0]) if rows else 0
    records = []
    for i, (row, y) in enumerate(zip(rows, labels)):
        values = tuple(row) + (0.0,) * (len(ATTRIBUTE_NAMES) - k)
        records.append(
            CompanyRecord(
                company_id=f"T{i:04d}",
                year=2000,
                tca=None,
                tcr=None,
                car=_BAND_CAR[int(y)],
                values=values,
                label=CLASS_ALPHABET[int(y)],
            )
        )
    return Dataset(tuple(records), schema or ATTRIBUTE_NAMES[:k])


def oracle_entropy(counts) -> float:
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            h -= (c / total) * math.log2(c / total)
    return h


def oracle_best_split(rows, labels, min_leaf=2, n_classes=4):
    """Exhaustive (attribute, threshold) enumeration scoring gain ratio.

    Returns (attribute_index, threshold, gain, gain_ratio) or None, applying
    the same documented rules: thresholds at distinct observed values, both
    sides at least min_leaf, mean-gain prefilter, max gain ratio, ties to
    the earliest attribute then the smallest threshold, 1e-12 tie slack.
    """
    n = len(labels)
    node_counts = [0] * n_classes
    for y in labels:
        node_counts[y] += 1
    if n < 2 or max(node_counts) == n:
        return None
    h_node = oracle_entropy(node_counts)
    cands = []
    for a in range(len(rows[0])):
        for thr in sorted(set(r[a] for r in rows))[:-1]:
            left = [y for r, y in zip(rows, labels) if r[a] <= thr]
            right = [y for r, y in zip(rows, labels) if r[a] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            lc = [0] * n_classes
            rc = [0] * n_classes
            for y in left:
                lc[y] += 1
            for y in right:
                rc[y] += 1
            nl, nr = len(left), len(right)
            gain = (
                h_node
                - (nl / n) * oracle_entropy(lc)
                - (nr / n) * oracle_entropy(rc)
            )
            split_info = oracle_entropy([nl, nr])
            cands.append((a, thr, gain, gain / split_info))
    if not cands:
        return None
    mean_gain = sum(c[2] for c in cands) / len(cands)
    eligible = [c for c in cands if c[2] >= mean_gain - 1e-12]
    best = eligible[0]
    for c in eligible[1:]:
        if c[3] > best[3] + 1e-12:
            best = c
    return best


def oracle_depth_limited_correct(rows, labels, depth) -> int:
    """Highest number of training rows a depth-limited threshold tree can get right.

    Exhaustive over every (attribute, threshold) at every level; exponential,
    keep the inputs tiny.
    """
    n = len(labels)
    counts: dict[int, int] = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    best = max(counts.values())
    if depth == 0 or best == n:
        return best
    for a in range(len(rows[0])):
        for thr in sorted(set(r[a] for r in rows))[:-1]:
            li = [i for i in range(n) if rows[i][a] <= thr]
            ri = [i for i in range(n) if rows[i][a] > thr]
            got = oracle_depth_limited_correct(
                [rows[i] for i in li], [labels[i] for i in li], depth - 1
            ) + oracle_depth_limited_correct(
                [rows[i] for i in ri], [labels[i] for i in ri], depth - 1
            )
            best = max(best, got)
    return best


def random_split_instance(rng: np.random.Generator):
    """A small random (rows, labels) pair for split-oracle comparisons.

    Values mix a coarse integer grid (forcing ties and duplicate values)
    with continuous draws; labels span 2 to 4 classes.
    """
    n = int(rng.integers(2, 11))
    k = int(rng.integers(1, 4))
    n_classes = int(rng.integers(2, 5))
    if rng.random() < 0.5:
        X = rng.integers(0, 4, size=(n, k)).astype(float)
    else:
        X = np.round(rng.normal(size=(n, k)), 2)
    labels = rng.integers(0, n_classes, size=n)
    rows = [tuple(float(v) for v in row) for row in X]
    return rows, [int(y) for y in labels]


def brute_force_best_subset(ds, view, merit_fn, max_size=None):
    """Exhaustively score every non-empty subset with the given merit function."""
    names = ds.schema
    best_subset = None
    best_merit = -math.inf
    limit = max_size or len(names)
    for size in range(1, limit + 1):
        for combo in combinations(names, size):
            m = merit_fn(combo, ds, view)
            if m > best_merit:
                best_merit = m
                best_subset = combo
    return best_subset, best_merit


def _leaf_from_counts(counts) -> Leaf:
    return Leaf(tuple(int(c) for c in counts))


def reference_grow(rows, labels, min_leaf: int = 2, max_depth: int | None = None) -> TreeNode:
    """An unpruned tree grown by recursion over plain row lists, one :func:`oracle_best_split` per node.

    A node is a leaf when it is pure, when it is ``max_depth`` levels down,
    or when no threshold leaves ``min_leaf`` rows on both sides; a split
    sends rows with values <= its threshold left. Of equal values such as
    -0.0 and 0.0, the threshold is spelled as the last tied row spells it,
    as a stable sort of the column would place it.
    """
    counts = [0] * len(CLASS_ALPHABET)
    for y in labels:
        counts[y] += 1
    best = None
    if max(counts) < len(labels) and (max_depth is None or max_depth > 0):
        best = oracle_best_split(rows, labels, min_leaf=min_leaf)
    if best is None:
        return _leaf_from_counts(counts)
    a = best[0]
    threshold = [r[a] for r in rows if r[a] == best[1]][-1]
    depth = None if max_depth is None else max_depth - 1
    sides = [[(r, y) for r, y in zip(rows, labels) if (r[a] <= threshold) == left] for left in (True, False)]
    left, right = (reference_grow([r for r, _ in side], [y for _, y in side], min_leaf, depth) for side in sides)
    return Split(ATTRIBUTE_NAMES[a], threshold, left, right)


def reference_prune(root: TreeNode, cf: float) -> TreeNode:
    """Pessimistic pruning as a post-order walk over Leaf/Split nodes.

    The library's earlier pruner, kept as written: at each internal node the
    estimated subtree error (sum over its leaves of n * pessimistic_error,
    left subtree first) is compared with the error of a single majority
    leaf, and the leaf wins ties. One post-order walk on an explicit stack
    carries each subtree's pruned node, class counts and error sum upward.
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


def reference_smote(ds, targets, k, seed):
    """SMOTE with every neighbour list rebuilt from records, one pool per visited member."""
    y = ds.label_indices()
    out = list(ds.records)
    for cls in CLASS_ALPHABET:
        members = [ds.records[i] for i in np.flatnonzero(y == cls.value)]
        deficit = targets[cls.value] - len(members)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, cls.value]))
        for t in range(deficit):
            s = t % len(members)
            base = members[s]
            pool = members[:s] + members[s + 1 :]
            q = np.array([base.value(a) for a in ds.schema])
            P = np.array([[r.value(a) for a in ds.schema] for r in pool])
            d = np.sqrt(((P - q) ** 2).sum(axis=1))
            neighbors = [pool[int(i)] for i in np.argsort(d, kind="stable")[:k]]
            other = neighbors[int(rng.integers(len(neighbors)))]
            u = float(rng.random())
            values = tuple(a + u * (b - a) for a, b in zip(base.values, other.values))
            car = base.car + u * (other.car - base.car)
            out.append(CompanyRecord(None, None, None, None, car, values, cls))
    return out


def reference_resample(records, bias: float, percent: float, seed: int):
    """Resampling with replacement, one draw per output record, over per-class member lists in row order.

    Every class draw comes first, each one ``choice`` call with p_c = (1 - bias) * n_c / n + bias / 4,
    then every member pick, each one ``integers`` call over its class's members.
    """
    members = [[r for r in records if r.label is cls] for cls in CLASS_ALPHABET]
    probs = [(1 - bias) * len(m) / len(records) + bias / len(CLASS_ALPHABET) for m in members]
    rng = np.random.default_rng(seed)
    size = math.floor(percent / 100 * len(records) + 0.5)  # half up
    draws = [int(rng.choice(len(CLASS_ALPHABET), p=probs)) for _ in range(size)]
    return [members[c][int(rng.integers(len(members[c])))] for c in draws]


def reference_cross_validate(ds: Dataset, k: int, params: LearnerParams, balance: BalanceTargets | None, seed: int):
    """``(actual, predicted, probs, warnings)`` of k-fold cross-validation, pooled in fold order.

    Each fold of :func:`stratified_folds` trains on the other records, balanced per record when ``balance``
    asks for it. :func:`reference_resample` serves a fold unless a class is absent there and bias > 0. For
    :func:`reference_smote`, targets are raised to the fold's counts first, and a class below its target
    with fewer than 2 members leaves the fold unserved. An unserved fold trains unbalanced with a warning.
    The tree is :func:`reference_grow` pruned by :func:`reference_prune`, and each held-out record walks it
    to a leaf, whose class frequencies it takes. ``ds``'s schema must be a prefix of ``ATTRIBUTE_NAMES``,
    as ``reference_grow`` names each attribute by its position.
    """
    assert ds.schema == ATTRIBUTE_NAMES[: len(ds.schema)]
    actual, predicted, probs, warnings = [], [], [], []
    for i, fold in enumerate(stratified_folds(ds, k, seed)):
        held_out = set(fold)
        train = [r for j, r in enumerate(ds.records) if j not in held_out]
        fold_seed = int(np.random.SeedSequence(entropy=[seed, i]).generate_state(1)[0])
        counts = [sum(r.label is cls for r in train) for cls in CLASS_ALPHABET]
        if balance is not None and balance.mode == "resample":
            short = [cls.csv_name for cls, c in zip(CLASS_ALPHABET, counts) if c == 0 and balance.bias_to_uniform > 0]
            if short:
                warnings.append(f"fold {i}: class {', '.join(short)} absent from the training portion; "
                                "resampling skipped")
            else:
                train = reference_resample(train, balance.bias_to_uniform, balance.sample_size_percent, fold_seed)
        elif balance is not None:
            targets = [max(t, c) for t, c in zip(balance.target_counts, counts)]
            short = [cls.csv_name for cls, t, c in zip(CLASS_ALPHABET, targets, counts) if t > c and c < 2]
            if short:
                warnings.append(f"fold {i}: class {', '.join(short)} has fewer than 2 training members; "
                                "oversampling skipped")
            else:
                train = reference_smote(Dataset(tuple(train), ds.schema), targets, balance.k_neighbors, fold_seed)
        rows = [tuple(r.value(a) for a in ds.schema) for r in train]
        root = reference_grow(rows, [r.label.value for r in train], params.min_leaf, params.max_depth)
        root = reference_prune(root, params.confidence_factor)
        for j in fold:
            node = root
            while isinstance(node, Split):
                node = node.left if ds.records[j].value(node.attribute) <= node.threshold else node.right
            freqs = [c / sum(node.class_counts) for c in node.class_counts]
            actual.append(ds.records[j].label.value)
            predicted.append(freqs.index(max(freqs)))
            probs.append(freqs)
    return actual, predicted, probs, warnings


def same_tree(a: TreeNode, b: TreeNode) -> bool:
    """``a == b`` for Leaf/Split trees, compared node by node on an explicit stack.

    Dataclass equality recurses once per level, so it cannot compare trees
    thousands of levels deep.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, Leaf) or isinstance(y, Leaf):
            if x != y:
                return False
        elif (x.attribute, x.threshold) != (y.attribute, y.threshold):
            return False
        else:
            stack += ((x.left, y.left), (x.right, y.right))
    return True


# The CSV row reader as it was: a lean path for rows shaped like write_csv
# output and a cell-by-cell path for every other row, kept as written.

def _lean_row(cells: Sequence[str], has_class: bool):
    """``(company_id, year, tca, tcr, car), values, label`` of a well-formed row.

    The fast path of :func:`load_csv`, for rows as :func:`write_csv` writes
    them: one plain-number check over all numeric cells, one ``float`` pass,
    and the cross-column checks only where a row has money cells or lacks
    its id or year. It raises ValueError or KeyError on every row that
    :func:`_checked_row` rejects, and on some that it accepts.
    """
    if len(cells) != _N_CELLS + has_class:
        raise ValueError("cell count")
    numbers = "".join(cells[1:_N_CELLS])
    if not _plain(numbers):
        raise ValueError("not a plain number")
    company_id = cells[0].strip() or None
    year = int(cells[1]) if cells[1] else None
    car, *values = map(float, cells[4:_N_CELLS])
    if not math.isfinite(car + sum(values)):
        raise ValueError("not finite")
    tca = tcr = None
    if cells[2] or cells[3]:
        tca, tcr = float(cells[2]), float(cells[3])
        if not math.isfinite(tca + tcr):
            raise ValueError("not finite")
    if tca is not None or company_id is None or year is None:
        _check_row(company_id, year, tca, tcr, car)
    return (company_id, year, tca, tcr, car), values, _LABELS[cells[-1]] if has_class else -1


def _checked_row(cells: Sequence[str], row: int, has_class: bool):
    """What :func:`_lean_row` returns, checking cell by cell; raises CsvFormatError at the first fault."""
    if len(cells) != _N_CELLS + has_class:
        raise CsvFormatError(f"expected {_N_CELLS + has_class} cells, found {len(cells)}", row=row)
    company_id, year_cell = cells[0].strip() or None, cells[1].strip()
    try:
        if not _plain(year_cell):
            raise ValueError(year_cell)
        year = int(year_cell) if year_cell else None
    except ValueError:
        raise CsvFormatError(f"non-numeric year {year_cell!r}", row=row, column="year") from None
    tca = _cell_float(cells[2], row, "tca", required=False)
    tcr = _cell_float(cells[3], row, "tcr", required=False)
    car = _cell_float(cells[4], row, "car", required=False)
    if car is None:
        if tca is None or tcr is None:
            raise CsvFormatError("car is blank and tca/tcr are not both present", row=row, column="car")
        if tcr == 0:
            raise CsvFormatError("tcr must be nonzero", row=row, column="tcr")
        car = 100.0 * tca / tcr
        if not math.isfinite(car):
            raise CsvFormatError(f"100*tca/tcr is not finite: {car!r}", row=row, column="car")
    values = [_cell_float(c, row, name, required=True) for c, name in zip(cells[5:], ATTRIBUTE_NAMES)]
    label = -1
    if has_class:
        cls_cell = cells[-1].strip()
        if cls_cell == "":
            raise CsvFormatError("missing value", row=row, column="class")
        try:
            label = SolvencyClass.from_csv_name(cls_cell).value
        except ValueError as exc:
            raise CsvFormatError(str(exc), row=row, column="class") from None
    try:
        _check_row(company_id, year, tca, tcr, car)
    except ValueError as exc:
        raise CsvFormatError(str(exc), row=row) from None
    return (company_id, year, tca, tcr, car), values, label


def reference_row(cells, row: int, has_class: bool):
    """One CSV row as the earlier ``load_csv`` read it: the lean path, else the checked one."""
    try:
        return _lean_row(cells, has_class)
    except (ValueError, KeyError):
        return _checked_row(cells, row, has_class)
