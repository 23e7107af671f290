import errno
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solvtree
import solvtree.tree

from solvtree import (
    ATTRIBUTE_NAMES,
    BalanceTargets,
    GeneratorSpec,
    LearnerParams,
    Leaf,
    SolvencyClass,
    Split,
    SplitCandidate,
    TreeModel,
    best_split,
    cross_validate,
    entropy,
    evaluate_on,
    generate,
    grow,
    grow_unpruned,
    invert_binomial_tail,
    node_count,
    parse,
    pessimistic_error,
    predict,
    prune,
    render_text,
    serialize,
    stratified_split,
)

from solvtree._fork import FORK_MIN_ROWS

from forks import _assert_no_child_left, _count_forks, _cpus
from oracles import (
    make_dataset,
    oracle_best_split,
    random_split_instance,
    reference_grow,
    reference_prune,
    same_tree,
)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([5, 5]) == 1.0

    def test_pure(self):
        assert entropy([10, 0]) == 0.0

    def test_two_four(self):
        assert entropy([2, 4]) == pytest.approx(0.9183, abs=1e-4)

    def test_zero_counts_are_inert(self):
        assert entropy([2, 0, 4, 0]) == entropy([2, 4])

    def test_invalid(self):
        with pytest.raises(ValueError):
            entropy([0, 0])
        with pytest.raises(ValueError):
            entropy([-1, 2])
        with pytest.raises(ValueError):
            entropy([])

    def test_overflowing_total_is_rescaled(self):
        # these counts are finite but their float sum is inf; entropy does not change with scale
        assert entropy([1e308, 1e308]) == 1.0
        assert entropy([1e308] * 4) == 2.0
        assert entropy([1.5e308, 1.5e308, 0.0]) == 1.0
        assert entropy([1e308, 5e307]) == entropy([2, 1])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_count_rejected(self, bad):
        with pytest.raises(ValueError):
            entropy([bad, 1.0])


class TestPessimisticError:
    def test_closed_forms(self):
        assert pessimistic_error(0, 1, 0.25) == pytest.approx(0.75, abs=1e-12)
        assert pessimistic_error(0, 4, 0.25) == pytest.approx(1 - 0.25 ** 0.25, abs=1e-12)

    def test_zero_errors_match_closed_form(self):
        for n in range(1, 51):
            closed = 1 - 0.25 ** (1 / n)
            assert invert_binomial_tail(0, n, 0.25) == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("cf", [0.0001, 0.01, 0.25, 0.5])
    def test_tail_inversion_grid(self, cf):
        special, stats = pytest.importorskip("scipy.special"), pytest.importorskip("scipy.stats")
        pairs = [(e, n) for n in range(1, 41) for e in range(1, n)]
        for n in (616, 2464, 9856):
            spread = set(np.linspace(1, n - 1, 25).astype(int).tolist()) | {2, 3, n - 2}
            pairs += [(e, n) for e in sorted(spread)]
        e, n = np.array(pairs).T
        p = np.array([invert_binomial_tail(a, b, cf) for a, b in pairs])
        assert np.all((p > 0.0) & (p < 1.0))
        assert np.max(np.abs(stats.binom.cdf(e, n, p) - cf)) <= 1e-9
        reference = special.betaincinv(e + 1, n - e, 1.0 - cf)
        assert np.max(np.abs(p - reference) / reference) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 10_000).flatmap(lambda n: st.tuples(st.integers(1, n - 2), st.just(n))),
        # below ~1e-12 the root can lie closer to 1 than a float can
        st.floats(1e-10, 0.5),
    )
    def test_tail_inversion_in_unit_interval_and_increasing_in_errors(self, en, cf):
        e, n = en
        p, p_next = invert_binomial_tail(e, n, cf), invert_binomial_tail(e + 1, n, cf)
        assert 0.0 < p < p_next < 1.0

    @pytest.mark.parametrize("e, n, cf", [(1, 2, 1e-20), (99999, 100000, 1e-12)])
    def test_tail_inversion_returns_one_when_the_root_rounds_to_it(self, e, n, cf):
        # no float lies between the bracket's ends, so the search returns the upper end
        assert invert_binomial_tail(e, n, cf) == 1.0

    def test_tail_inversion_at_cf_1e_20_stays_in_unit_interval_and_never_decreases(self):
        for n in range(2, 60):
            p = [invert_binomial_tail(e, n, 1e-20) for e in range(n)]
            assert all(0.0 < v <= 1.0 for v in p), n
            assert p == sorted(p), n

    def test_grow_completes_at_cf_1e_20(self):
        ds = generate(GeneratorSpec((20, 8, 8, 44), separation=1.0, seed=3))
        params = LearnerParams(confidence_factor=1e-20)
        model = grow(ds, params)
        assert same_tree(model.root, reference_prune(grow_unpruned(ds, params).root, 1e-20))
        assert parse(serialize(model)) == model

    def test_import_and_cli_leave_scipy_unloaded(self):
        env = {**os.environ, "PYTHONPATH": str(Path(solvtree.__file__).resolve().parents[1])}
        for args in (["-c", "import solvtree"], ["-m", "solvtree.cli", "--help"]):
            out = subprocess.run(
                [sys.executable, "-X", "importtime", *args],
                env=env, capture_output=True, text=True, check=True,
            )
            # -X importtime writes "import time: self | cumulative | module" per import
            modules = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()]
            assert "solvtree" in modules
            assert [m for m in modules if m.split(".")[0] == "scipy"] == []

    def test_strictly_increasing_in_errors(self):
        values = [pessimistic_error(e, 30, 0.25) for e in range(31)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_n_at_zero_errors(self):
        values = [pessimistic_error(0, n, 0.25) for n in range(1, 51)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_all_wrong_is_one(self):
        assert pessimistic_error(7, 7, 0.25) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pessimistic_error(0, 5, 0.0)
        with pytest.raises(ValueError):
            pessimistic_error(0, 5, 1.0)
        with pytest.raises(ValueError):
            pessimistic_error(6, 5, 0.25)
        with pytest.raises(ValueError):
            pessimistic_error(0, 0, 0.25)


class TestLeaf:
    def test_predicted_class_is_the_first_majority(self):
        assert Leaf((3, 3, 0, 0), SolvencyClass.INSOLVENCY).predicted is SolvencyClass.INSOLVENCY
        for counts, predicted in [((1, 5, 0, 0), SolvencyClass.STRONG), ((3, 3, 0, 0), SolvencyClass.WEAK)]:
            with pytest.raises(ValueError, match="predicts"):
                Leaf(counts, predicted)


class TestBestSplit:
    def test_pure_node(self):
        assert best_split([[1.0], [2.0]], [3, 3]) is None

    def test_min_leaf_blocks_all(self):
        assert best_split([[1.0], [2.0]], [0, 3], LearnerParams(min_leaf=2)) is None

    def test_one_dimensional_hand_case(self):
        X = [[1.0], [2.0], [3.0], [4.0]]
        y = [0, 0, 3, 3]
        cand = best_split(X, y, LearnerParams(min_leaf=2))
        assert cand.attribute_index == 0
        assert cand.threshold == 2.0
        assert cand.gain == 1.0
        assert cand.gain_ratio == 1.0

    def test_tie_breaks_earliest_attribute(self):
        # V1 and V2 identical, both split perfectly: first attribute wins
        X = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]
        y = [0, 0, 3, 3]
        cand = best_split(X, y, LearnerParams(min_leaf=2))
        assert cand.attribute_index == 0

    def test_tie_breaks_smaller_threshold(self):
        # thresholds 1 and 3 give mirrored partitions with identical scores
        X = [[1.0], [2.0], [3.0], [4.0]]
        y = [0, 3, 3, 0]
        cand = best_split(X, y, LearnerParams(min_leaf=1))
        assert cand.threshold == 1.0

    def test_threshold_is_an_occurring_value(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 2))
        y = rng.integers(0, 4, size=12)
        cand = best_split(X, y, LearnerParams(min_leaf=2))
        if cand is not None:
            assert cand.threshold in set(X[:, cand.attribute_index])

    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    def test_matches_exhaustive_oracle(self, min_leaf):
        rng = np.random.default_rng(123)
        for _ in range(150):
            rows, labels = random_split_instance(rng)
            got = best_split(rows, labels, LearnerParams(min_leaf=min_leaf))
            want = oracle_best_split(rows, labels, min_leaf=min_leaf)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.attribute_index, got.threshold) == (want[0], want[1])
                assert got.gain == pytest.approx(want[2], abs=1e-9)
                assert got.gain_ratio == pytest.approx(want[3], abs=1e-9)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(14, 2))
        y = rng.integers(0, 3, size=14)
        base = best_split(X, y, LearnerParams(min_leaf=2))
        X2 = X.copy()
        X2[:, 0] = 2.0 * X2[:, 0] + 1.0  # strictly increasing transform
        moved = best_split(X2, y, LearnerParams(min_leaf=2))
        assert moved.attribute_index == base.attribute_index
        assert moved.gain == pytest.approx(base.gain, abs=1e-12)
        assert moved.gain_ratio == pytest.approx(base.gain_ratio, abs=1e-12)
        if base.attribute_index == 0:
            assert moved.threshold == 2.0 * base.threshold + 1.0


def _row_major_best_split(values, labels, params):
    """The split scorer as it was before attribute-major scoring: the byte reference.

    Stable row-major sort, per-row one-hot cumulative counts, and entropies
    of (candidates, classes) rows under np.where. The winner scan is the
    plain loop that the library's strict-new-maximum scan shortcuts.
    """

    def entropy_rows(counts, totals):
        p = counts / np.reshape(totals, (-1, 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * np.log2(p), 0.0)
        h = terms[:, 0]
        for j in range(1, terms.shape[1]):
            h = h + terms[:, j]
        return -h

    X = np.asarray(values, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    n = len(y)
    if n < 2 or X.shape[1] == 0:
        return None
    node_counts = np.bincount(y, minlength=4)
    if node_counts.max() == n:
        return None
    h_node = entropy_rows(node_counts[None, :], n)[0]
    lo, hi = params.min_leaf - 1, n - params.min_leaf
    if lo >= hi:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    vs = np.take_along_axis(X, order, axis=0)
    attrs, cut = np.nonzero((vs[lo:hi] < vs[lo + 1:hi + 1]).T)
    if cut.size == 0:
        return None
    cut += lo
    thresholds, nl = vs[cut, attrs], cut + 1
    left = np.eye(4, dtype=np.int32)[y[order[:hi]]]
    left = np.cumsum(left, axis=0, dtype=np.int32, out=left)[cut, attrs]
    nr = n - nl
    h_left, h_right = entropy_rows(left, nl), entropy_rows(node_counts - left, nr)
    gains = h_node - nl / n * h_left - nr / n * h_right
    nls = np.arange(lo + 1, hi + 1)
    ratios = gains / entropy_rows(np.column_stack((nls, n - nls)), n)[cut - lo]
    mean_gain = float(np.add.accumulate(gains)[-1]) / gains.size
    eligible = np.flatnonzero(gains >= mean_gain - 1e-12)
    ratio = ratios[eligible].tolist()
    best = 0
    for i in range(1, len(ratio)):
        if ratio[i] > ratio[best] + 1e-12:
            best = i
    k = eligible[best]
    return SplitCandidate(int(attrs[k]), float(thresholds[k]), float(gains[k]), float(ratios[k]))


def _assert_same_split(got, want):
    assert got == want
    if want is not None:  # == cannot tell -0.0 from 0.0
        signs = [np.signbit([c.gain, c.threshold]).tolist() for c in (got, want)]
        assert signs[0] == signs[1]


class TestBestSplitAgainstRowMajorScorer:
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    def test_same_candidate_bit_for_bit(self, min_leaf):
        rng = np.random.default_rng(100 + min_leaf)
        params = LearnerParams(min_leaf=min_leaf)
        found = 0
        for case in range(264):
            k, kind = 1 + case % 11, case // 11 % 4
            n = int(rng.integers(2, 150))
            classes = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)  # often some absent
            y = rng.choice(classes, size=n)
            if kind == 0:  # continuous
                X = rng.normal(size=(n, k))
            elif kind == 1:  # tie-heavy integer columns
                X = rng.integers(0, int(rng.integers(1, 6)), size=(n, k)).astype(float)
            elif kind == 2:  # ties of -0.0 and 0.0, where only a stable pick keeps the sign
                X = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(n, k))
            else:  # labels follow the first column, so some cuts leave pure children
                X = rng.integers(0, 4, size=(n, k)).astype(float)
                y = classes[(X[:, 0] >= 2) % len(classes)]
            want = _row_major_best_split(X, y, params)
            _assert_same_split(best_split(X, y, params), want)
            found += want is not None
        assert found > 150

    @settings(deadline=None)
    @given(st.data())
    def test_row_order_changes_nothing(self, data):
        n, k = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 4))
        value = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-1e3, 1e3)
        X = np.array(data.draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        perm = np.array(data.draw(st.permutations(range(n))))
        params = LearnerParams(min_leaf=data.draw(st.integers(1, 3)))
        got, want = best_split(X[perm], y[perm], params), best_split(X, y, params)
        # only the sign of a tied -0.0/0.0 threshold may follow the row order
        assert got == want
        if want is not None:
            assert np.signbit(got.gain) == np.signbit(want.gain)


def _training_accuracy(model: TreeModel, ds) -> float:
    hits = sum(predict(model, r)[0] is r.label for r in ds.records)
    return hits / len(ds)


class TestGrow:
    def test_single_record(self):
        ds = make_dataset([(0.3,)], [2])
        model = grow(ds)
        assert isinstance(model.root, Leaf)
        assert model.root.predicted is SolvencyClass.MODERATE
        assert model.training_fingerprint == (1, (0, 0, 1, 0))

    def test_separable_perfect_fit(self):
        rows = [(float(i),) for i in range(8)]
        labels = [0] * 4 + [3] * 4
        ds = make_dataset(rows, labels)
        assert _training_accuracy(grow_unpruned(ds), ds) == 1.0

    def test_pruned_no_better_than_unpruned_and_beats_majority(self):
        rng = np.random.default_rng(5)
        rows = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(40)]
        labels = [int(v) for v in rng.integers(0, 4, size=40)]
        ds = make_dataset(rows, labels)
        unpruned_acc = _training_accuracy(grow_unpruned(ds), ds)
        pruned_acc = _training_accuracy(grow(ds), ds)
        majority = max(labels.count(c) for c in set(labels)) / len(labels)
        assert pruned_acc <= unpruned_acc
        assert pruned_acc >= majority

    def test_max_depth_zero_gives_single_leaf(self):
        ds = make_dataset([(float(i),) for i in range(8)], [0] * 4 + [3] * 4)
        model = grow(ds, LearnerParams(max_depth=0))
        assert isinstance(model.root, Leaf)

    def test_empty_dataset_rejected(self):
        from solvtree import ATTRIBUTE_NAMES, Dataset

        with pytest.raises(ValueError):
            grow(Dataset((), ATTRIBUTE_NAMES))

    def test_grow_is_deterministic(self):
        rng = np.random.default_rng(23)
        rows = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(30)]
        labels = [int(v) for v in rng.integers(0, 4, size=30)]
        ds = make_dataset(rows, labels)
        assert grow(ds) == grow(ds)

    def test_routing_matches_leaf_counts(self):
        # every training record ends in the leaf that tallied it
        rng = np.random.default_rng(17)
        rows = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(30)]
        labels = [int(v) for v in rng.integers(0, 4, size=30)]
        ds = make_dataset(rows, labels)
        model = grow(ds)
        routed: dict[int, list[int]] = {}
        for r in ds.records:
            node = model.root
            while isinstance(node, Split):
                node = node.left if r.value(node.attribute) <= node.threshold else node.right
            routed.setdefault(id(node), [0, 0, 0, 0])[r.label.value] += 1

        def leaves(node):
            if isinstance(node, Leaf):
                yield node
            else:
                yield from leaves(node.left)
                yield from leaves(node.right)

        for leaf in leaves(model.root):
            assert routed[id(leaf)] == list(leaf.class_counts)


    @given(
        st.integers(1, 3).flatmap(lambda k: st.lists(
            st.tuples(st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.5])] * k), st.integers(0, 3)),
            min_size=1, max_size=14)),
        st.integers(1, 3),
        st.none() | st.integers(0, 4),
    )
    def test_unpruned_tree_matches_the_reference_grower(self, rows_labels, min_leaf, max_depth):
        # tie-heavy values, -0.0 against 0.0 included, on up to three attributes
        rows, labels = map(list, zip(*rows_labels))
        ds = make_dataset(rows, labels)
        params = LearnerParams(min_leaf=min_leaf, max_depth=max_depth)
        model = grow_unpruned(ds, params)
        root = reference_grow(rows, labels, min_leaf, max_depth)
        assert serialize(model) == serialize(TreeModel(root, params, ds.schema))
        counts = tuple(labels.count(c) for c in range(4))
        assert model.training_fingerprint == (len(rows), counts)

    @pytest.mark.parametrize("fit", [grow_unpruned, grow])
    def test_deep_alternating_set_grows_without_recursion(self, fit):
        # labels alternate in pairs along one attribute, so the tree is a
        # chain about 1100 splits deep
        ds = make_dataset([(float(i),) for i in range(2200)], [(i // 2) % 2 for i in range(2200)])
        model = fit(ds)
        assert node_count(model.root) > 2000
        classes, _ = solvtree.tree._route(model, [r.values for r in ds.records])
        assert (classes == ds.label_indices()).all()


# hard-fit's shape at a quarter of its rows: four balanced classes at separation 1.0 grow a
# ~140-node tree whose top three levels leave four or five subtrees open
_DEEP = generate(GeneratorSpec((150, 150, 150, 150), separation=1.0, seed=1))


def _frontier(ds, params=LearnerParams()) -> list:
    """Row indices of the subtrees that growth leaves open below the top it grows in the caller,
    largest first, the order in which they are dealt to workers."""
    top = solvtree.tree._grow_nodes(ds.matrix(), ds.label_indices(), ds.schema, params,
                                    np.arange(len(ds)), 0, solvtree.tree._FORK_DEPTH)
    return sorted((node[1] for node in top if node[0] is None), key=len, reverse=True)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="subtrees grow in forked workers on Linux only")
class TestForkedGrowth:
    @pytest.mark.parametrize("params", [
        *(LearnerParams(min_leaf=m) for m in (1, 2, 5)),
        *(LearnerParams(max_depth=d) for d in (0, 2, 3, 4)),
    ], ids=["min_leaf=1", "min_leaf=2", "min_leaf=5", "max_depth=0", "max_depth=2", "max_depth=3", "max_depth=4"])
    def test_model_text_matches_the_serial_run(self, monkeypatch, params):
        _cpus(monkeypatch, 1)
        serial = [serialize(fit(_DEEP, params)) for fit in (grow_unpruned, grow)]
        _cpus(monkeypatch, 3)
        forks = _count_forks(monkeypatch)
        assert [serialize(fit(_DEEP, params)) for fit in (grow_unpruned, grow)] == serial
        # a node at max_depth is a leaf, so a tree stopped at or above the frontier maps nothing
        opened = params.max_depth is None or params.max_depth > solvtree.tree._FORK_DEPTH
        assert len(_frontier(_DEEP, params)) >= (3 if opened else 0)
        assert forks == ([os.getpid()] * 4 if opened else [])
        _assert_no_child_left()

    def test_no_fork_for_a_frontier_of_one_subtree_or_none(self, monkeypatch):
        one = generate(GeneratorSpec((80, 80, 80, 80), separation=4.0, seed=0))
        none = generate(GeneratorSpec((100, 100, 100, 100), separation=6.0, seed=1))
        assert [len(_frontier(ds)) for ds in (one, none)] == [1, 0]
        _cpus(monkeypatch, 1)
        serial = [serialize(grow(ds)) for ds in (one, none)]
        _cpus(monkeypatch, 3)
        forks = _count_forks(monkeypatch)
        assert [serialize(grow(ds)) for ds in (one, none)] == serial
        assert forks == []

    def test_no_fork_below_the_row_gate_or_beside_a_thread(self, monkeypatch):
        small = generate(GeneratorSpec((63, 64, 64, 64), separation=1.0, seed=1))
        assert len(small) == FORK_MIN_ROWS - 1 and len(_frontier(small)) >= 3
        _cpus(monkeypatch, 3)
        forks = _count_forks(monkeypatch)
        grow(small)
        assert forks == []
        released = threading.Event()
        thread = threading.Thread(target=released.wait)
        thread.start()
        try:
            grow(_DEEP)
        finally:
            released.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        grow(_DEEP)
        assert len(forks) == 2
        _assert_no_child_left()

    @pytest.mark.parametrize("failing", [[1], [2, 4]])
    def test_a_failing_subtree_raises_the_serial_error_here(self, monkeypatch, tmp_path, failing):
        # 3 workers: subtrees 0 and 3 (largest first) grow here, 1 and 4 in one child, 2 in another;
        # best_split fails at the root of each failing subtree and logs the process it failed in
        frontier = _frontier(_DEEP)
        keys = {_DEEP.matrix()[frontier[i]].tobytes(): i for i in failing}
        real, log = solvtree.tree.best_split, tmp_path / "failed"

        def best_split(values, labels, params):
            if values.tobytes() in keys:
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                raise ValueError(f"subtree {keys[values.tobytes()]} failed")
            return real(values, labels, params)

        monkeypatch.setattr(solvtree.tree, "best_split", best_split)
        raised = {}
        for cpus in (1, 3):
            log.unlink(missing_ok=True)
            _cpus(monkeypatch, cpus)
            forks = _count_forks(monkeypatch)
            with pytest.raises(ValueError) as exc_info:
                grow(_DEEP)
            raised[cpus] = str(exc_info.value)
            assert len(forks) == cpus - 1
            assert "best_split" in [entry.name for entry in exc_info.traceback]
            _assert_no_child_left()
        # at 3 CPUs the lowest failing subtree failed first in a child, then again here
        assert log.read_text(encoding="utf-8").split()[-1] == str(os.getpid())
        assert str(os.getpid()) != log.read_text(encoding="utf-8").split()[0]
        assert raised[3] == raised[1] == f"subtree {failing[0]} failed"

    def test_subtrees_grow_here_when_fork_fails(self, monkeypatch):
        _cpus(monkeypatch, 1)
        serial = serialize(grow(_DEEP))
        _cpus(monkeypatch, 3)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert serialize(grow(_DEEP)) == serial

    def test_cross_validate_forks_only_its_fold_workers(self, monkeypatch, tmp_path):
        # forks are logged to a file, so a fork in a child, such as a fold's growth, is counted too
        log, real_fork = tmp_path / "forks", os.fork

        def fork():
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_fork()

        _cpus(monkeypatch, 1)
        serial = cross_validate(_DEEP, 10, seed=3)
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", fork)
        assert cross_validate(_DEEP, 10, seed=3) == serial
        assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 2
        _assert_no_child_left()


class TestPrune:
    def test_same_majority_children_collapse(self):
        subtree = Split(
            "V1", 0.5,
            Leaf((3, 1, 0, 0), SolvencyClass.INSOLVENCY),
            Leaf((4, 1, 0, 0), SolvencyClass.INSOLVENCY),
        )
        pruned = prune(subtree, 0.25)
        assert pruned == Leaf((7, 2, 0, 0), SolvencyClass.INSOLVENCY)

    def test_informative_split_retained(self):
        subtree = Split(
            "V1", 0.5,
            Leaf((20, 0, 0, 0), SolvencyClass.INSOLVENCY),
            Leaf((0, 20, 0, 0), SolvencyClass.WEAK),
        )
        assert prune(subtree, 0.25) == subtree

    def test_leaf_wins_ties(self):
        # an empty child adds 0.0, so the subtree bound equals the leaf bound exactly
        subtree = Split(
            "V1", 0.5,
            Leaf((0, 0, 0, 0), SolvencyClass.INSOLVENCY),
            Leaf((3, 1, 0, 0), SolvencyClass.INSOLVENCY),
        )
        assert prune(subtree, 0.25) == Leaf((3, 1, 0, 0), SolvencyClass.INSOLVENCY)

    def test_idempotent_on_random_trees(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            rows = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(24)]
            labels = [int(v) for v in rng.integers(0, 4, size=24)]
            root = grow_unpruned(make_dataset(rows, labels)).root
            once = prune(root, 0.25)
            assert prune(once, 0.25) == once

    def test_matches_pruning_with_reference_bound(self, monkeypatch):
        special = pytest.importorskip("scipy.special")

        def reference(e, n, cf):
            return float(special.betaincinv(e + 1, n - e, 1.0 - cf))

        def pruned_texts():
            return [
                serialize(TreeModel(prune(model.root, cf), LearnerParams(cf), model.schema))
                for model in unpruned for cf in (0.05, 0.25, 0.5)
            ]

        unpruned = [
            grow_unpruned(generate(GeneratorSpec((20, 20, 20, 20), separation, seed=seed)))
            for seed in range(40) for separation in (0.5, 1.0, 2.0)
        ]
        texts = pruned_texts()
        monkeypatch.setattr(solvtree.tree, "invert_binomial_tail", reference)
        assert texts == pruned_texts()

    @pytest.mark.parametrize("weight, kept", [(1, 3), (2, 5999)])
    def test_deep_chain_prunes_and_counts(self, weight, kept):
        # 3000 splits, each peeling a pure leaf off a mixed right spine; the
        # kept sizes are those of the recursive pass run with a raised limit
        node = Leaf((weight, 0, 0, weight), SolvencyClass.INSOLVENCY)
        for i in range(3000):
            pure = (0, 0, 0, weight) if i % 2 else (weight, 0, 0, 0)
            node = Split("V1", float(3000 - i), Leaf(pure, SolvencyClass(3 if i % 2 else 0)), node)
        assert node_count(node) == 6001
        pruned = prune(node, 0.25)
        assert node_count(pruned) == kept
        assert node_count(prune(pruned, 0.25)) == kept

    def test_weaker_confidence_never_grows_the_tree(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            rows = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(40)]
            labels = [int(v) for v in rng.integers(0, 3, size=40)]
            root = grow_unpruned(make_dataset(rows, labels)).root
            sizes = [
                node_count(prune(root, cf))
                for cf in (0.5, 0.4, 0.3, 0.25, 0.2, 0.1, 0.05, 0.01)
            ]
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def _peeling_chain(weight: int) -> Split:
    """3000 splits, each peeling a pure leaf off a mixed right spine: 6001 nodes."""
    node = Leaf((weight, 0, 0, weight), SolvencyClass.INSOLVENCY)
    for i in range(3000):
        pure = (0, 0, 0, weight) if i % 2 else (weight, 0, 0, 0)
        node = Split("V1", float(3000 - i), Leaf(pure, SolvencyClass(3 if i % 2 else 0)), node)
    return node


class TestPruneMatchesReference:
    """``prune`` on pre-order nodes gives the trees of the Leaf/Split pruner in ``oracles``."""

    def test_grown_trees(self):
        for seed in range(40):
            for separation in (0.5, 1.0, 2.0):
                root = grow_unpruned(generate(GeneratorSpec((20, 20, 20, 20), separation, seed=seed))).root
                for cf in (0.05, 0.25, 0.5):
                    assert prune(root, cf) == reference_prune(root, cf)

    @pytest.mark.parametrize("weight", [1, 2])
    def test_deep_chain(self, weight):
        chain = _peeling_chain(weight)
        assert same_tree(prune(chain, 0.25), reference_prune(chain, 0.25))

    def test_empty_leaf_tie(self):
        subtree = Split(
            "V1", 0.5,
            Leaf((0, 0, 0, 0), SolvencyClass.INSOLVENCY),
            Leaf((3, 1, 0, 0), SolvencyClass.INSOLVENCY),
        )
        assert prune(subtree, 0.25) == reference_prune(subtree, 0.25)


class TestPreOrderNodes:
    def test_hot_paths_build_no_leaf_or_split(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Leaf or Split was built")

        ds = generate(GeneratorSpec((30, 20, 20, 30), 1.0, seed=4))
        train, test = stratified_split(ds, 0.7, 4)
        monkeypatch.setattr(Leaf, "__init__", refuse)
        monkeypatch.setattr(Split, "__init__", refuse)
        balance = BalanceTargets("smote", target_counts=(30, 30, 30, 30), k_neighbors=3)
        assert cross_validate(ds, 5, LearnerParams(), balance, seed=1).n == len(ds)
        model = parse(serialize(grow(train)))
        assert evaluate_on(model, test).n == len(test)
        assert "<=" in render_text(model)

    @staticmethod
    def _check_round_trips(model: TreeModel) -> None:
        again = parse(serialize(model))
        assert TreeModel(model.root, model.params, model.schema) == model
        assert again == model
        # dataclass == recurses once per level, so deep trees are compared node by node
        assert same_tree(again.root, model.root)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 3.0]), st.integers(1, 3))
    def test_grown_trees_round_trip(self, seed, separation, min_leaf):
        ds = generate(GeneratorSpec((12, 6, 6, 12), separation, seed=seed))
        params = LearnerParams(min_leaf=min_leaf)
        for model in (grow_unpruned(ds, params), grow(ds, params)):
            self._check_round_trips(model)
            assert parse(serialize(model)).root == model.root

    @pytest.mark.parametrize("weight", [1, 2])
    def test_deep_chain_round_trips(self, weight):
        self._check_round_trips(TreeModel(_peeling_chain(weight), LearnerParams(), ("V1",)))


class TestPredict:
    def test_single_leaf_probabilities(self):
        model = TreeModel(
            Leaf((0, 0, 0, 9), SolvencyClass.STRONG),
            LearnerParams(),
            ("V1",),
        )
        ds = make_dataset([(0.0,)], [3])
        cls, probs = predict(model, ds.records[0])
        assert cls is SolvencyClass.STRONG
        assert probs.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_reproduces_training_labels_when_separable(self):
        rows = [(float(i),) for i in range(12)]
        labels = [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
        ds = make_dataset(rows, labels)
        model = grow_unpruned(ds)
        for r in ds.records:
            assert predict(model, r)[0] is r.label

    def test_probability_vector_contract(self):
        rng = np.random.default_rng(3)
        rows = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(30)]
        labels = [int(v) for v in rng.integers(0, 4, size=30)]
        ds = make_dataset(rows, labels)
        model = grow(ds)
        for r in ds.records:
            cls, probs = predict(model, r)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert cls.value == int(np.argmax(probs))

    def test_unknown_attribute_rejected(self):
        model = TreeModel(
            Split("V99", 0.0, Leaf((1, 0, 0, 0), SolvencyClass.INSOLVENCY),
                  Leaf((0, 0, 0, 1), SolvencyClass.STRONG)),
            LearnerParams(),
            ("V1",),
        )
        ds = make_dataset([(0.0,)], [0])
        with pytest.raises(ValueError):
            predict(model, ds.records[0])


    def test_router_matches_a_hand_walk(self):
        rng = np.random.default_rng(11)
        rows = [tuple(float(v) for v in rng.integers(0, 12, size=3)) for _ in range(300)]
        ds = make_dataset(rows, [int(v) for v in rng.integers(0, 4, size=300)])
        model = grow_unpruned(ds)
        root = model.root
        assert node_count(root) > 50
        thresholds = []
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Split):
                thresholds.append((node.attribute, node.threshold))
                stack += (node.left, node.right)
        values = [list(r.values) for r in ds.records]
        for attribute, threshold in thresholds:  # rows sitting exactly on each threshold
            row = list(values[0])
            row[ATTRIBUTE_NAMES.index(attribute)] = threshold
            values.append(row)
        classes, freqs = solvtree.tree._route(model, values)
        for row, cls, freq in zip(values, classes.tolist(), freqs.tolist()):
            node = root
            while isinstance(node, Split):
                value = row[ATTRIBUTE_NAMES.index(node.attribute)]
                node = node.left if value <= node.threshold else node.right
            assert cls == node.predicted.value
            assert freq == [c / sum(node.class_counts) for c in node.class_counts]

class TestLearnerParams:
    def test_defaults(self):
        p = LearnerParams()
        assert p.confidence_factor == 0.25
        assert p.min_leaf == 2
        assert p.max_depth is None

    def test_validation(self):
        with pytest.raises(ValueError):
            LearnerParams(confidence_factor=0.0)
        with pytest.raises(ValueError):
            LearnerParams(confidence_factor=0.6)
        with pytest.raises(ValueError):
            LearnerParams(min_leaf=0)
        with pytest.raises(ValueError):
            LearnerParams(max_depth=-1)

    @pytest.mark.parametrize("knobs, message", [
        ({"min_leaf": 2.5}, "min_leaf must be an integer, got 2.5"),
        ({"min_leaf": True}, "min_leaf must be an integer, got True"),
        ({"max_depth": 2.5}, "max_depth must be an integer, got 2.5"),
        ({"max_depth": "3"}, "max_depth must be an integer, got '3'"),
    ])
    def test_integer_knobs_are_checked_when_built(self, knobs, message):
        # refused when built: a float min_leaf would fail deep inside best_split, and a
        # float max_depth would give model text that parse rejects
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LearnerParams(**knobs)

    @pytest.mark.parametrize("value", ["0.25", True, None])
    def test_confidence_factor_must_be_a_real_number(self, value):
        # refused naming the field, not by a TypeError from the range check
        with pytest.raises(ValueError, match=f"^confidence_factor must be a real number, got {re.escape(repr(value))}$"):
            LearnerParams(confidence_factor=value)

    def test_numpy_confidence_factor_is_stored_as_a_float(self):
        # a numpy float would otherwise reach the model text as "np.float32(...)", which parse refuses
        params = LearnerParams(confidence_factor=np.float32(0.3))
        assert type(params.confidence_factor) is float
        model = grow(generate(GeneratorSpec((6, 6, 6, 6), seed=2)), params)
        assert parse(serialize(model)).params == params

    def test_numpy_integer_knobs_are_accepted(self):
        params = LearnerParams(min_leaf=np.int64(2), max_depth=np.int32(3))
        model = grow(generate(GeneratorSpec((6, 6, 6, 6), seed=2)), params)
        assert parse(serialize(model)).params == LearnerParams(min_leaf=2, max_depth=3)
