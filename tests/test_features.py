import functools
import math
import operator
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solvtree import (
    cfs_merit,
    discretize,
    greedy_stepwise,
    merit_from_correlations,
    symmetric_uncertainty,
)
from solvtree import features
from solvtree.features import _merit

from oracles import brute_force_best_subset, make_dataset


def _entropy_reference(counts) -> float:
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _su_reference(x, y) -> float:
    """Symmetric uncertainty with joint cells from np.unique over stacked rows."""
    x, y = np.asarray(x), np.asarray(y)
    hx = _entropy_reference(np.unique(x, return_counts=True)[1])
    hy = _entropy_reference(np.unique(y, return_counts=True)[1])
    if hx + hy == 0.0:
        return 0.0
    _, joint = np.unique(np.stack([x, y], axis=1), axis=0, return_counts=True)
    gain = max(0.0, hx + hy - _entropy_reference(joint))
    return min(1.0, 2.0 * gain / (hx + hy))


def _merit_reference(names, ds, view) -> float:
    """CFS merit with every SU recomputed in subset order, pairs as combinations form them."""
    cols = [view.attributes.index(n) for n in names]
    labels = ds.label_indices()
    k = len(cols)
    r_cf = sum(_su_reference(view.bins[:, c], labels) for c in cols) / k
    pair_sus = [_su_reference(view.bins[:, a], view.bins[:, b]) for a, b in combinations(cols, 2)]
    r_ff = sum(pair_sus) / len(pair_sus) if pair_sus else 0.0
    return merit_from_correlations(k, r_cf, r_ff)


def _greedy_reference(ds, n_bins):
    """Forward search over _merit_reference: best strict improvement, ties to schema order."""
    view = discretize(ds, n_bins)
    selected, current = [], -math.inf
    while True:
        best_name, best_merit = None, -math.inf
        for name in ds.schema:
            if name not in selected:
                m = _merit_reference([*selected, name], ds, view)
                if m > best_merit:
                    best_name, best_merit = name, m
        if best_name is None or (selected and best_merit <= current):
            return tuple(selected), current
        selected.append(best_name)
        current = best_merit


class TestDiscretize:
    def test_distinct_values_bin_sizes_within_one(self):
        ds = make_dataset([(float(i),) for i in range(25)], [0] * 25)
        view = discretize(ds, n_bins=10)
        sizes = np.bincount(view.bins[:, 0], minlength=10)
        assert sizes.max() - sizes.min() <= 1
        assert view.bins[:, 0].min() >= 0 and view.bins[:, 0].max() < 10

    def test_ties_share_a_bin(self):
        ds = make_dataset([(float(i % 3), float(i)) for i in range(12)], [0] * 12)
        view = discretize(ds, n_bins=4)
        col = view.bins[:, 0]
        raw = ds.matrix()[:, 0]
        for v in set(raw):
            assert len(set(col[raw == v])) == 1

    def test_constant_column_is_one_bin(self):
        ds = make_dataset([(1.0,)] * 9, [0] * 9)
        view = discretize(ds, n_bins=5)
        assert set(view.bins[:, 0]) == {0}

    @pytest.mark.parametrize("n_bins", [2, 3, 10, 1000, 2**62])
    def test_bins_match_the_count_of_smaller_values(self, n_bins):
        # tie-heavy columns mixing -0.0 and 0.0, which Python compares as equal
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, k = int(rng.integers(1, 60)), int(rng.integers(1, 12))
            values = rng.integers(-2, 3, size=(n, k)) * 0.5
            values[rng.random((n, k)) < 0.3] = -0.0
            rows = values.tolist()
            ds = make_dataset(rows, [0] * n)
            expected = [
                [sum(v[j] < x for v in rows) * min(n_bins, n) // n for j, x in enumerate(row)]
                for row in rows
            ]
            view = discretize(ds, n_bins)
            assert view.bins.dtype == np.int64
            assert view.bins.tolist() == expected

    def test_needs_records_and_bins(self):
        ds = make_dataset([(0.0,)], [0])
        with pytest.raises(ValueError):
            discretize(ds, n_bins=1)
        with pytest.raises(ValueError, match="cannot discretize an empty dataset"):
            discretize(ds.take([]))


class TestSymmetricUncertainty:
    def test_identical_non_constant(self):
        x = np.array([0, 0, 1, 1, 2])
        assert symmetric_uncertainty(x, x) == 1.0

    def test_exhaustive_product_design_is_zero(self):
        # every (x, y) combination equally often: zero mutual information
        x = [0, 0, 1, 1]
        y = [0, 1, 0, 1]
        assert symmetric_uncertainty(x, y) == 0.0
        x3 = [0, 0, 1, 1, 2, 2]
        y3 = [0, 1, 0, 1, 0, 1]
        assert symmetric_uncertainty(x3, y3) == pytest.approx(0.0, abs=1e-12)

    def test_both_constant(self):
        assert symmetric_uncertainty([5, 5, 5], [2, 2, 2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            symmetric_uncertainty([0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            symmetric_uncertainty([], [])

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        st.data(),
    )
    def test_symmetric_and_bounded(self, x, data):
        y = data.draw(st.lists(st.integers(0, 3), min_size=len(x), max_size=len(x)))
        a = symmetric_uncertainty(x, y)
        b = symmetric_uncertainty(y, x)
        assert a == pytest.approx(b, abs=1e-12)
        assert 0.0 <= a <= 1.0

    @pytest.mark.parametrize(
        "x, y",
        [
            ([-3, -1, -3, 2, -1, 0, -3, 2], [5, -5, 5, 5, -5, 0, 0, 5]),
            ([-2.5, 0.125, -2.5, 3.0, 0.125, 1e-9], [1.5, 1.5, -7.25, -7.25, 0.0, 1.5]),
            ([-1, 0, 1, 0, -1, 1, 1], [0.5, -0.5, 0.5, 0.25, 0.25, -0.5, 0.5]),
            (["b", "a", "c", "a", "b", "a"], ["x", "yy", "x", "x", "yy", "z"]),
            ([4, 4, 4, 4, 4], [0, 1, 0, 2, 1]),
            (["k"] * 5, ["q", "r", "q", "r", "s"]),
            ([1.5] * 4, [-2.0] * 4),
        ],
    )
    def test_matches_stacked_unique_reference(self, x, y):
        assert symmetric_uncertainty(x, y) == _su_reference(x, y)
        assert symmetric_uncertainty(y, x) == _su_reference(y, x)

    def test_matches_stacked_unique_reference_on_random_columns(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            x = rng.integers(-6, int(rng.integers(-5, 12)), size=n)
            y = rng.integers(0, int(rng.integers(1, 15)), size=n) * 0.5 - 3.0
            assert symmetric_uncertainty(x, y) == _su_reference(x, y)
            assert symmetric_uncertainty(y, x) == _su_reference(y, x)

    def test_bin_relabeling_invariance(self):
        x = np.array([0, 1, 2, 0, 1, 2, 0, 0])
        y = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        relabeled = np.array([7, 3, 5, 7, 3, 5, 7, 7])  # permuted bin ids
        assert symmetric_uncertainty(x, y) == pytest.approx(
            symmetric_uncertainty(relabeled, y), abs=1e-12
        )


class TestCfsMerit:
    def test_formula_values(self):
        assert merit_from_correlations(2, 0.5, 0.0) == pytest.approx(1 / math.sqrt(2))
        assert merit_from_correlations(1, 0.73, 0.0) == pytest.approx(0.73)

    def test_singleton_equals_class_correlation(self):
        rows = [(float(i % 2), float(i)) for i in range(8)]
        labels = [i % 2 for i in range(8)]
        ds = make_dataset(rows, [3 * l for l in labels])
        view = discretize(ds, n_bins=2)
        su = symmetric_uncertainty(view.bins[:, 0], ds.label_indices())
        assert cfs_merit(["V1"], ds, view) == pytest.approx(su)

    def test_redundant_duplicate_never_beats_singleton(self):
        # a perfect copy has pairwise correlation 1, so the pair's merit
        # collapses to the singleton's; greedy's strict-improvement rule
        # therefore never admits the duplicate
        rows = [(float(i % 2), float(i % 2)) for i in range(10)]
        labels = [3 * (i % 2) for i in range(10)]
        ds = make_dataset(rows, labels)
        view = discretize(ds, n_bins=2)
        single = cfs_merit(["V1"], ds, view)
        pair = cfs_merit(["V1", "V2"], ds, view)
        assert pair <= single
        assert pair == pytest.approx(single)
        assert greedy_stepwise(ds, n_bins=2).selected == ("V1",)

    def test_merit_adds_correlations_left_to_right(self):
        # on this table a compensated sum (math.fsum, or sum from Python 3.12)
        # of r_cf and of r_ff differs from one rounding per addition
        rng = np.random.default_rng(5)
        k = 6
        su = {(a, b): float(rng.random()) for a in range(k + 1) for b in range(k + 1) if a != b}
        cols = list(range(k))
        r_cf = [su[c, k] for c in cols]
        r_ff = [su[pair] for pair in combinations(cols, 2)]

        def merit(total):
            return merit_from_correlations(k, total(r_cf) / k, total(r_ff) / len(r_ff))

        def in_order(values):
            return functools.reduce(operator.add, values, 0.0)

        assert merit(math.fsum) != merit(in_order)
        assert _merit(cols, su, k) == merit(in_order)

    def test_empty_subset_rejected(self):
        ds = make_dataset([(0.0,)] * 4, [0, 0, 3, 3])
        view = discretize(ds)
        with pytest.raises(ValueError):
            cfs_merit([], ds, view)

    @pytest.mark.parametrize("subset, message", [
        ([], "schema must name at least one attribute"),
        (["V1", "V1"], "duplicate attribute 'V1' in schema"),
        (["V12"], "unknown attribute 'V12' in schema"),
        (["V3"], "attribute 'V3' not in the discretized view"),
    ])
    def test_subset_follows_the_schema_rule(self, subset, message):
        ds = make_dataset([(0.0, 1.0)] * 4, [0, 0, 3, 3])
        with pytest.raises(ValueError, match=f"^{message}$"):
            cfs_merit(subset, ds, discretize(ds))

    def test_non_integer_bin_count_rejected(self):
        ds = make_dataset([(0.0,)] * 4, [0, 0, 3, 3])
        with pytest.raises(ValueError, match="^n_bins must be an integer, got 2.5$"):
            discretize(ds, 2.5)


class TestGreedyStepwise:
    def _twelve_record_dataset(self):
        # V1 predicts the class exactly; V2 and V3 are fixed noise patterns
        rng = np.random.default_rng(8)
        labels = [0, 3, 1, 2, 3, 0, 3, 1, 2, 3, 0, 3]
        rows = [
            (float(y), float(rng.integers(0, 3)), float(rng.integers(0, 3)))
            for y in labels
        ]
        return make_dataset(rows, labels)

    def test_selects_the_perfect_attribute(self):
        ds = self._twelve_record_dataset()
        view = discretize(ds, n_bins=4)
        result = greedy_stepwise(ds, n_bins=4)
        assert result.selected[0] == "V1"
        # exhaustive subset evaluation confirms the greedy pick is globally best
        best_subset, best_merit = brute_force_best_subset(ds, view, cfs_merit)
        assert set(best_subset) == set(result.selected)
        assert result.merit == pytest.approx(best_merit)

    def test_all_constant_selects_first_with_zero_merit(self):
        ds = make_dataset([(1.0, 1.0, 1.0)] * 6, [0, 0, 1, 1, 3, 3])
        result = greedy_stepwise(ds, n_bins=3)
        assert result.selected == ("V1",)
        assert result.merit == 0.0

    def test_merit_dominates_singletons_and_first_pick_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(6, 21))
            k = int(rng.integers(2, 6))
            rows = [tuple(float(v) for v in rng.integers(0, 3, size=k)) for _ in range(n)]
            labels = [int(y) for y in rng.integers(0, 4, size=n)]
            ds = make_dataset(rows, labels)
            view = discretize(ds, n_bins=3)
            result = greedy_stepwise(ds, n_bins=3)
            for name in ds.schema:
                assert result.merit >= cfs_merit([name], ds, view) - 1e-12
            first = result.selected[0]
            for name in ds.schema:
                if name != first:
                    assert result.merit >= cfs_merit([first, name], ds, view) - 1e-12

    def test_merit_non_decreasing_along_selection(self):
        ds = self._twelve_record_dataset()
        view = discretize(ds, n_bins=4)
        result = greedy_stepwise(ds, n_bins=4)
        merits = [
            cfs_merit(result.selected[: i + 1], ds, view)
            for i in range(len(result.selected))
        ]
        assert all(b >= a - 1e-12 for a, b in zip(merits, merits[1:]))

    def test_computes_each_pair_once_in_one_order(self, monkeypatch):
        # seven distinct attribute columns, five of them picked, out of schema order
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, size=120)
        cols = [int(rng.integers(0, 3)) * labels + rng.integers(0, int(rng.integers(2, 6)), size=120)
                for _ in range(7)]
        ds = make_dataset([tuple(map(float, row)) for row in np.column_stack(cols)], labels)
        view = discretize(ds, n_bins=4)
        assert len({c.tobytes() for c in [*view.bins.T, ds.label_indices()]}) == 8
        calls = []

        def counted(x, y):
            calls.append((np.asarray(x).tobytes(), np.asarray(y).tobytes()))
            return symmetric_uncertainty(x, y)

        monkeypatch.setattr(features, "symmetric_uncertainty", counted)
        assert greedy_stepwise(ds, n_bins=4).selected == ("V3", "V4", "V5", "V1", "V7")
        assert len(calls) == len(set(calls))
        assert not {(y, x) for x, y in calls} & set(calls)

    def test_matches_forward_search_over_reference_merits(self):
        # tie-heavy columns (few distinct values, many rows) over shuffled
        # schemas; merits are compared with ==, so SU must be taken over
        # ordered pairs in selection order, as the reference does
        rng = np.random.default_rng(13)
        out_of_schema_order = 0
        for trial in range(12):
            n = int(rng.integers(60, 250))
            labels = rng.integers(0, 4, size=n)
            cols = []
            for _ in range(8):
                noise = rng.integers(0, int(rng.integers(2, 6)), size=n)
                weight = int(rng.integers(0, 3))
                cols.append(weight * labels + noise)
            rows = [tuple(float(v) for v in row) for row in np.column_stack(cols)]
            schema = tuple(rng.permutation([f"V{i}" for i in range(1, 9)]))
            ds = make_dataset(rows, labels, schema)
            n_bins = int(rng.choice([3, 5, 10]))
            result = greedy_stepwise(ds, n_bins=n_bins)
            expected = _greedy_reference(ds, n_bins)
            assert (result.selected, result.merit) == expected
            view = discretize(ds, n_bins=n_bins)
            for subset in (result.selected, result.selected[::-1]):
                assert cfs_merit(subset, ds, view) == _merit_reference(subset, ds, view)
            positions = [ds.schema.index(name) for name in result.selected]
            out_of_schema_order += positions != sorted(positions)
        assert out_of_schema_order >= 3
