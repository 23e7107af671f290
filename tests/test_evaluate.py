import errno
import itertools
import math
import os
import signal
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solvtree import (
    CLASS_ALPHABET,
    BalanceTargets,
    ConfusionMatrix,
    EvalReport,
    GeneratorSpec,
    LearnerParams,
    class_distribution,
    cross_validate,
    evaluate_on,
    generate,
    grow,
    mae,
    render_report,
    report_from_predictions,
    resample,
    rmse,
    smote,
    stratified_folds,
    summary_lines,
)

from solvtree import _fork, evaluate
from solvtree._fork import FORK_MIN_ROWS

from forks import _assert_no_child_left, _count_forks, _cpus
from oracles import make_dataset, reference_cross_validate


class TestMetrics:
    def test_perfect_one_hot(self):
        probs = np.eye(4)[[0, 1, 2, 3]]
        assert mae(probs, [0, 1, 2, 3]) == 0.0
        assert rmse(probs, [0, 1, 2, 3]) == 0.0

    def test_confident_wrong_single_instance(self):
        probs = [[1.0, 0.0, 0.0, 0.0]]
        assert mae(probs, [3]) == 0.5
        assert rmse(probs, [3]) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_uniform_prediction(self):
        probs = [[0.25, 0.25, 0.25, 0.25]]
        assert mae(probs, [2]) == pytest.approx(0.375, abs=1e-12)

    def test_rmse_dominates_mae_on_random_inputs(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            raw = rng.random((n, 4)) + 1e-9
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = rng.integers(0, 4, size=n)
            assert rmse(probs, labels) >= mae(probs, labels)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        raw = rng.random((10, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=10)
        perm = rng.permutation(10)
        assert mae(probs, labels) == pytest.approx(mae(probs[perm], labels[perm]), abs=1e-12)
        assert rmse(probs, labels) == pytest.approx(rmse(probs[perm], labels[perm]), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            mae([[0.5, 0.5, 0.0, 0.0]], [0, 1])
        with pytest.raises(ValueError):
            mae([[0.9, 0.0, 0.0, 0.0]], [0])  # sums to 0.9
        with pytest.raises(ValueError, match="must be a \\(n, n_classes\\) array"):
            mae([0.25, 0.25, 0.25, 0.25], [0])
        with pytest.raises(ValueError, match="length mismatch: 1 predictions vs 2 labels"):
            rmse([[0.25, 0.25, 0.25, 0.25]], [0, 1])
        with pytest.raises(ValueError, match="actual and predicted lengths differ"):
            report_from_predictions([0, 1], [0], [[1.0, 0.0, 0.0, 0.0]] * 2)
        with pytest.raises(ValueError, match="confusion matrix must be 4x4"):
            evaluate.ConfusionMatrix(((1, 0, 0, 0),) * 3)


    def test_labels_as_classes_or_indices(self):
        probs = np.eye(4)[[0, 3, 1]] * 0.5 + 0.125
        classes = [CLASS_ALPHABET[i] for i in (0, 2, 1)]
        assert mae(probs, classes) == mae(probs, np.array([0, 2, 1]))
        assert report_from_predictions(classes, classes, probs) == report_from_predictions(
            [0, 2, 1], (0, 2, 1), probs
        )
        with pytest.raises(ValueError, match="label index 4 out of range"):
            rmse(probs, [0, 4, 1])


class TestStratifiedFolds:
    def test_616_fold_sizes(self):
        ds = generate(GeneratorSpec((44, 13, 16, 543), seed=1))
        folds = stratified_folds(ds, 10, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [61] * 4 + [62] * 6

    def test_per_class_spread_at_most_one(self):
        ds = generate(GeneratorSpec((44, 13, 16, 543), seed=1))
        folds = stratified_folds(ds, 10, seed=0)
        labels = ds.label_indices()
        for c in range(4):
            per_fold = [sum(1 for i in f if labels[i] == c) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_partition(self):
        ds = generate(GeneratorSpec((10, 4, 5, 21), seed=2))
        folds = stratified_folds(ds, 7, seed=3)
        joined = sorted(i for f in folds for i in f)
        assert joined == list(range(len(ds)))

    def test_leave_one_out(self):
        ds = generate(GeneratorSpec((2, 2, 2, 2), seed=2))
        folds = stratified_folds(ds, len(ds), seed=0)
        assert all(len(f) == 1 for f in folds)

    def test_validation(self):
        ds = generate(GeneratorSpec((2, 2, 2, 2), seed=2))
        with pytest.raises(ValueError):
            stratified_folds(ds, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_folds(ds, 9, seed=0)
        with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
            stratified_folds(ds, 2.5, seed=0)

    def test_deterministic(self):
        ds = generate(GeneratorSpec((10, 4, 5, 21), seed=2))
        assert stratified_folds(ds, 5, seed=8) == stratified_folds(ds, 5, seed=8)


class TestCrossValidate:
    def test_constant_label_dataset(self):
        ds = make_dataset([(float(i),) for i in range(20)], [3] * 20)
        report = cross_validate(ds, 5, seed=0)
        assert report.overall_accuracy == 1.0
        assert report.mae == 0.0
        assert report.n == 20

    def test_pooled_total_and_accuracy_cross_check(self):
        rng = np.random.default_rng(6)
        rows = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(40)]
        labels = [int(v) for v in rng.integers(0, 4, size=40)]
        ds = make_dataset(rows, labels)
        report = cross_validate(ds, 4, seed=1)
        assert report.matrix.total == len(ds)
        # two code paths must agree: matrix trace vs pooled correct fraction
        assert report.overall_accuracy == pytest.approx(
            report.matrix.trace / report.n, abs=0
        )
        counts = class_distribution(ds)
        assert report.matrix.row_sums() == counts

    def test_bit_reproducible_including_rendering(self):
        ds = generate(GeneratorSpec((12, 6, 6, 26), separation=2.0, seed=4))
        balance = BalanceTargets(mode="resample", bias_to_uniform=1.0)
        a = cross_validate(ds, 5, LearnerParams(), balance, seed=5)
        b = cross_validate(ds, 5, LearnerParams(), balance, seed=5)
        assert a == b
        assert render_report(a) == render_report(b)
        assert summary_lines(a) == summary_lines(b)

    def test_balancing_never_touches_holdout(self):
        # held-out predictions must cover exactly the input records even
        # when training folds are resampled to a different size
        ds = generate(GeneratorSpec((8, 6, 6, 20), separation=2.0, seed=9))
        balance = BalanceTargets(mode="resample", bias_to_uniform=1.0, sample_size_percent=150.0)
        report = cross_validate(ds, 4, LearnerParams(), balance, seed=2)
        assert report.n == len(ds)
        assert report.matrix.row_sums() == class_distribution(ds)

    def test_smote_balanced_run(self):
        ds = generate(GeneratorSpec((6, 5, 5, 30), separation=6.0, seed=10))
        balance = BalanceTargets(mode="smote", target_counts=(30, 30, 30, 30), k_neighbors=3)
        report = cross_validate(ds, 5, LearnerParams(), balance, seed=3)
        assert report.overall_accuracy >= 0.9
        assert report.warnings == ()

    def test_fold_losing_a_class_warns_instead_of_failing(self):
        # exactly one insolvency record: the fold holding it out trains
        # without that class, which is a warning, not an error
        ds = generate(GeneratorSpec((1, 3, 3, 9), separation=6.0, seed=11))
        balance = BalanceTargets(mode="resample", bias_to_uniform=1.0)
        report = cross_validate(ds, 2, LearnerParams(min_leaf=1), balance, seed=0)
        assert len(report.warnings) == 1
        assert "insolvency" in report.warnings[0]
        assert report.n == len(ds)

    def test_smote_insufficient_class_warns(self):
        ds = generate(GeneratorSpec((2, 3, 3, 12), separation=6.0, seed=12))
        balance = BalanceTargets(mode="smote", target_counts=(10, 10, 10, 12), k_neighbors=2)
        report = cross_validate(ds, 2, LearnerParams(min_leaf=1), balance, seed=0)
        # each fold sees one of the two insolvency records in training
        assert any("fewer than 2" in w for w in report.warnings)
        assert report.n == len(ds)

    def test_fold_skipped_exactly_when_balancing_refuses(self):
        # every per-class count 0-3, bias 0 and subnormal to 1, and SMOTE targets that
        # leave classes short, too small to synthesize from, or at their counts
        requests = [BalanceTargets("resample", bias_to_uniform=b) for b in (0.0, 5e-324, 0.5, 1.0)]
        requests += [BalanceTargets("smote", target_counts=t, k_neighbors=2)
                     for t in ((2, 2, 2, 2), (3, 0, 3, 0), (4, 4, 4, 4))]
        outcomes = set()
        for counts in itertools.product(range(4), repeat=4):
            if sum(counts) < 2:
                continue
            ds = generate(GeneratorSpec(counts, seed=sum(counts)))
            folds = stratified_folds(ds, 2, seed=0)
            for balance in requests:
                warned = {int(w.split(":")[0].removeprefix("fold "))
                          for w in cross_validate(ds, 2, LearnerParams(min_leaf=1), balance, seed=0).warnings}
                refused = set()
                for i, fold in enumerate(folds):
                    train = ds.take(np.delete(np.arange(len(ds)), fold))
                    try:
                        if balance.mode == "resample":
                            resample(train, balance.bias_to_uniform, seed=0)
                        else:
                            clamped = tuple(map(max, balance.target_counts, class_distribution(train)))
                            smote(train, clamped, balance.k_neighbors, seed=0)
                    except ValueError:
                        refused.add(i)
                assert warned == refused, (counts, balance)
                outcomes.add(bool(refused))
        assert outcomes == {True, False}


# 306 rows, at least FORK_MIN_ROWS: two insolvency records, so with k = 10 the two folds holding
# one out train on a single one, which SMOTE cannot grow (fold 0 runs here, fold 1 in a child)
_FORKED = generate(GeneratorSpec((2, 24, 80, 200), separation=1.5, seed=21))
_SMOTE_TO = BalanceTargets("smote", target_counts=(200, 200, 200, 200), k_neighbors=3)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="folds run in forked workers on Linux only")
class TestForkedFolds:
    @pytest.mark.parametrize("balance", [
        BalanceTargets("smote", target_counts=(24, 60, 80, 200), k_neighbors=3),
        _SMOTE_TO,
        None,
    ], ids=["smote", "smote-skipping-two-folds", "unbalanced"])
    def test_report_bytes_match_the_serial_run(self, monkeypatch, balance):
        assert len(_FORKED) >= FORK_MIN_ROWS
        _cpus(monkeypatch, 1)
        serial = cross_validate(_FORKED, 10, LearnerParams(), balance, seed=4)
        _cpus(monkeypatch, 3)
        forks = _count_forks(monkeypatch)
        forked = cross_validate(_FORKED, 10, LearnerParams(), balance, seed=4)
        assert forks == [os.getpid()] * 2
        assert render_report(forked) == render_report(serial)
        assert summary_lines(forked) == summary_lines(serial)
        if balance is _SMOTE_TO:
            assert [w.split(":")[0] for w in forked.warnings] == ["fold 0", "fold 1"]
        _assert_no_child_left()

    @pytest.mark.parametrize("failing", [{1}, {3, 4}, {2, 5, 9}, {8}])
    @pytest.mark.parametrize("picklable", [True, False])
    def test_a_failing_fold_raises_what_the_serial_loop_raises(self, monkeypatch, failing, picklable):
        # 3 workers: folds 0, 3, 6, 9 run here, 1, 4, 7 and 2, 5, 8 in two children; an
        # exception class local to this test cannot be pickled, which no path may depend on
        class Unpicklable(ValueError):
            pass

        error = ValueError if picklable else Unpicklable
        real = evaluate._balanced_training

        def balanced_training(train, balance, seed, fold):
            if fold in failing:
                raise error(f"fold {fold} failed")
            return real(train, balance, seed, fold)

        monkeypatch.setattr(evaluate, "_balanced_training", balanced_training)
        raised = {}
        for cpus in (1, 3):
            _cpus(monkeypatch, cpus)
            with pytest.raises(Exception) as exc_info:
                cross_validate(_FORKED, 10, LearnerParams(), _SMOTE_TO, seed=4)
            raised[cpus] = (exc_info.type, str(exc_info.value))
            _assert_no_child_left()
        assert raised[3] == raised[1] == (error, f"fold {min(failing)} failed")

    def test_a_childs_failing_fold_raises_here_with_its_traceback(self, monkeypatch):
        real = evaluate._balanced_training

        def balanced_training(train, balance, seed, fold):
            if fold == 1:  # a fold of the first child among 3 workers
                raise ValueError("fold 1 failed")
            return real(train, balance, seed, fold)

        monkeypatch.setattr(evaluate, "_balanced_training", balanced_training)
        _cpus(monkeypatch, 3)
        forks = _count_forks(monkeypatch)
        with pytest.raises(ValueError, match="fold 1 failed") as exc_info:
            cross_validate(_FORKED, 10, LearnerParams(), _SMOTE_TO, seed=4)
        assert len(forks) == 2
        assert "balanced_training" in [entry.name for entry in exc_info.traceback]
        _assert_no_child_left()

    def test_python_3_12_fork_warning_beside_threads_is_silenced(self, monkeypatch):
        # Python >= 3.12 warns at each fork while numpy's OpenBLAS pool has threads
        _cpus(monkeypatch, 1)
        serial = cross_validate(_FORKED, 10, seed=4)
        _cpus(monkeypatch, 3)
        forks, real_fork = [], os.fork

        def fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
                          "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
            forked = cross_validate(_FORKED, 10, seed=4)
        assert forks == [os.getpid()] * 2
        assert summary_lines(forked) == summary_lines(serial)
        _assert_no_child_left()

    def test_no_fork_below_the_row_gate_or_beside_a_thread(self, monkeypatch):
        _cpus(monkeypatch, 3)
        forks = _count_forks(monkeypatch)
        small = generate(GeneratorSpec((10, 20, 30, FORK_MIN_ROWS - 61), seed=1))
        assert len(small) == FORK_MIN_ROWS - 1
        cross_validate(small, 10, seed=2)
        assert forks == []
        released = threading.Event()
        thread = threading.Thread(target=released.wait)
        thread.start()
        try:
            cross_validate(_FORKED, 10, seed=2)
        finally:
            released.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        cross_validate(_FORKED, 10, seed=2)
        assert len(forks) == 2
        _assert_no_child_left()

    def test_folds_run_here_when_fork_fails(self, monkeypatch):
        _cpus(monkeypatch, 1)
        serial = cross_validate(_FORKED, 10, LearnerParams(), _SMOTE_TO, seed=6)
        _cpus(monkeypatch, 3)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        report = cross_validate(_FORKED, 10, LearnerParams(), _SMOTE_TO, seed=6)
        assert render_report(report) == render_report(serial)
        assert summary_lines(report) == summary_lines(serial)

    def test_a_caller_ignoring_sigchld_gets_the_report(self, monkeypatch):
        # with SIGCHLD ignored the kernel reaps each child itself, so kill and waitpid find none
        _cpus(monkeypatch, 1)
        serial = cross_validate(_FORKED, 10, seed=4)
        _cpus(monkeypatch, 3)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            forked = cross_validate(_FORKED, 10, seed=4)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert summary_lines(forked) == summary_lines(serial)
        _assert_no_child_left()


def _pooled_run(ds, k, params, balance, seed, cpus: int):
    """cross_validate's report and the (actual, predicted, probs, warnings) it pooled, on ``cpus`` usable CPUs
    with the row gate of the forked map lowered to 1, and the forks it made."""
    pooled = []

    def report_from(*args):
        pooled.append(args)
        return report_from_predictions(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "report_from_predictions", report_from)
        mp.setattr(_fork, "FORK_MIN_ROWS", 1)
        _cpus(mp, cpus)
        forks = _count_forks(mp)
        report = cross_validate(ds, k, params, balance, seed)
    return report, pooled[0], len(forks)


_TIE_HEAVY = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.tuples(st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.5])] * k), st.integers(0, 3)),
    min_size=4, max_size=20))


class TestReferencePipeline:
    """cross_validate against ``oracles.reference_cross_validate``, which composes the per-record
    references of each stage: the same pooled rows and the same report bytes, serially and forked."""

    @settings(max_examples=250, deadline=None)
    @given(
        _TIE_HEAVY, st.integers(2, 4), st.integers(1, 3), st.none() | st.integers(0, 3),
        st.sampled_from([0.05, 0.25, 0.5]),
        st.none() | st.builds(
            lambda targets, k_neighbors: BalanceTargets("smote", target_counts=targets, k_neighbors=k_neighbors),
            st.tuples(*[st.just(0) | st.integers(1, 12)] * 4), st.integers(1, 4),  # 0 asks nothing of a class
        ) | st.builds(
            lambda bias, percent: BalanceTargets("resample", bias, percent),
            st.sampled_from([0, 0.5, 1]), st.sampled_from([50, 100, 150]),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_reference_pipeline(self, rows_labels, k, min_leaf, max_depth, cf, balance, seed):
        rows, labels = map(list, zip(*rows_labels))
        ds = make_dataset(rows, labels)
        params = LearnerParams(cf, min_leaf, max_depth)
        expected = reference_cross_validate(ds, k, params, balance, seed)
        reference = report_from_predictions(*expected)
        for cpus in (1, 3):
            report, (actual, predicted, probs, notes), forks = _pooled_run(ds, k, params, balance, seed, cpus)
            assert forks == min(k, cpus) - 1
            assert actual.tolist() == expected[0]
            assert list(zip(predicted.tolist(), probs.tolist())) == list(zip(expected[1], expected[2]))
            assert list(notes) == expected[3]
            # MAE and RMSE are compared as the report prints them: their bits follow numpy's summation order
            assert render_report(report) + summary_lines(report) == render_report(reference) + summary_lines(reference)
        _assert_no_child_left()


class TestEvaluateOn:
    def test_perfect_model_on_training_data(self):
        rows = [(float(i),) for i in range(12)]
        labels = [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
        ds = make_dataset(rows, labels)
        report = evaluate_on(grow(ds, LearnerParams(min_leaf=1)), ds)
        assert report.overall_accuracy == 1.0
        off_diagonal = [
            report.matrix.cells[a][p] for a in range(4) for p in range(4) if a != p
        ]
        assert all(v == 0 for v in off_diagonal)

    def test_schema_mismatch_rejected(self):
        ds = generate(GeneratorSpec((3, 3, 3, 3), seed=0))
        model = grow(ds)
        with pytest.raises(ValueError, match="schema"):
            evaluate_on(model, ds.with_schema(("V1", "V2")))

    def test_unlabeled_test_rejected(self):
        ds = generate(GeneratorSpec((3, 3, 3, 3), seed=0))
        model = grow(ds)
        from dataclasses import replace
        from solvtree import Dataset

        unlabeled = Dataset(tuple(replace(r, label=None) for r in ds.records), ds.schema)
        with pytest.raises(ValueError, match="unlabeled"):
            evaluate_on(model, unlabeled)

    def test_empty_test_set_rejected(self):
        ds = generate(GeneratorSpec((3, 3, 3, 3), seed=0))
        with pytest.raises(ValueError, match="test set is empty"):
            evaluate_on(grow(ds), ds.take([]))


class TestReportRendering:
    def _supplied_test_set_report(self):
        # row-correct counts 4/1/1/53 over row totals 6/1/1/57
        actual, predicted = [], []
        actual += [0] * 6
        predicted += [0, 0, 0, 0, 2, 3]
        actual += [1]
        predicted += [1]
        actual += [2]
        predicted += [2]
        actual += [3] * 57
        predicted += [3] * 53 + [0, 1, 1, 2]
        probs = np.eye(4)[predicted]
        return report_from_predictions(actual, predicted, probs)

    def test_ninety_point_eight_percent_case(self):
        report = self._supplied_test_set_report()
        assert report.n == 65
        assert report.matrix.trace == 59
        assert report.overall_accuracy == pytest.approx(59 / 65)
        rendered = render_report(report)
        assert "90.8%" in rendered
        assert "66.7%" in rendered  # insolvency row: 4 of 6

    def test_layout(self):
        report = self._supplied_test_set_report()
        lines = render_report(report).splitlines()
        assert lines[0].split() == ["Classification", "I", "W", "M", "S", "Total", "Correct", "(%)"]
        for cls_line, letter in zip(lines[1:5], "IWMS"):
            parts = cls_line.split()
            assert parts[0] == letter
            assert len(parts) == 7
            assert parts[-1].endswith("%")
        assert lines[5].split()[0] == "Total"
        assert lines[7] == "I = insolvency, W = weak, M = moderate, S = strong"
        assert "Overall accuracy:" in lines[9]
        assert "MAE:" in lines[10]
        assert "RMSE:" in lines[11]

    def test_report_and_summary_text(self):
        # an empty class row, a three-digit cell and one warning, in the exact bytes of both renderings
        matrix = ConfusionMatrix(((123, 4, 0, 1), (0, 0, 0, 0), (2, 0, 7, 1), (0, 3, 0, 59)))
        warning = "fold 2: class weak absent from the training portion; resampling skipped"
        report = EvalReport(matrix, 0.0625, 0.125, (warning,))
        assert render_report(report) == f"""\
Classification      I      W      M      S    Total   Correct (%)
I                 123      4      0      1      128         96.1%
W                   0      0      0      0        0           n/a
M                   2      0      7      1       10         70.0%
S                   0      3      0     59       62         95.2%
Total                                           200         94.5%

I = insolvency, W = weak, M = moderate, S = strong

Overall accuracy: 0.9450
MAE:              0.0625
RMSE:             0.1250
Warning: {warning}
"""
        assert summary_lines(report) == f"""\
n=200
accuracy=0.945
mae=0.0625
rmse=0.125
recall_insolvency=0.9609375
recall_weak=nan
recall_moderate=0.7
recall_strong=0.9516129032258065
cell_insolvency_insolvency=123
cell_insolvency_weak=4
cell_insolvency_moderate=0
cell_insolvency_strong=1
cell_weak_insolvency=0
cell_weak_weak=0
cell_weak_moderate=0
cell_weak_strong=0
cell_moderate_insolvency=2
cell_moderate_weak=0
cell_moderate_moderate=7
cell_moderate_strong=1
cell_strong_insolvency=0
cell_strong_weak=3
cell_strong_moderate=0
cell_strong_strong=59
warnings=1
warning_1={warning}
"""

    def test_summary_lines_keys(self):
        report = self._supplied_test_set_report()
        text = summary_lines(report)
        for key in (
            "n=65",
            "accuracy=",
            "mae=",
            "rmse=",
            "recall_insolvency=",
            "cell_strong_strong=53",
            "warnings=0",
        ):
            assert key in text
