import io
import re

import numpy as np
import pytest

from solvtree import (
    BalanceTargets,
    Dataset,
    GeneratorSpec,
    SolvencyClass,
    class_distribution,
    generate,
    load_csv,
    nearest_neighbors,
    resample,
    smote,
    write_csv,
)
from solvtree import balance

from oracles import make_dataset, reference_smote


def _scalar_draws(entropy, nn, count):
    """The (rng.integers(nn), rng.random()) calls SMOTE's draw block stands for, one pair at a time."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy))
    pairs = [(int(rng.integers(nn)), float(rng.random())) for _ in range(count)]
    return [p for p, _ in pairs], np.array([u for _, u in pairs])


class TestNearestNeighbors:
    def test_pool_of_one(self):
        ds = make_dataset([(0.0, 0.0), (1.0, 0.0)], [0, 0])
        q, only = ds.records
        assert nearest_neighbors(q, [only], k=5, schema=ds.schema) == [only]

    def test_hand_computed_distances(self):
        ds = make_dataset([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (3.0, 0.0)], [0] * 4)
        q, a, b, c = ds.records
        assert nearest_neighbors(q, [a, b, c], k=2, schema=ds.schema) == [a, b]

    def test_tie_break_by_pool_order(self):
        ds = make_dataset([(0.0,), (1.0,), (1.0,), (1.0,)], [0] * 4)
        q, a, b, c = ds.records
        got = nearest_neighbors(q, [c, a, b], k=2, schema=ds.schema)
        assert got == [c, a]

    def test_squares_that_share_a_root_tie(self):
        # distances are compared as roots: these squares differ in the last bit but
        # their roots are equal, so the tie goes to pool order
        near, far = (0.04097352393619469, 0.016527635528529094), (0.04097352393619469, 0.016527635528529098)
        ds = make_dataset([(0.0, 0.0), near, far], [0] * 3)
        q, a, b = ds.records
        assert sum(v * v for v in near) < sum(v * v for v in far)
        assert nearest_neighbors(q, [b, a], k=1, schema=ds.schema) == [b]

    def test_empty_pool_rejected(self):
        ds = make_dataset([(0.0,)], [0])
        with pytest.raises(ValueError):
            nearest_neighbors(ds.records[0], [], k=1)

    @pytest.mark.parametrize("schema, message", [
        (("V1", "V1"), "duplicate attribute 'V1' in schema"),
        ((), "schema must name at least one attribute"),
        (("V1", "V12"), "unknown attribute 'V12' in schema"),
    ])
    def test_schema_rule_is_the_datasets(self, schema, message):
        # the schema rule of a Dataset, so a repeated attribute cannot count twice in the distance
        ds = make_dataset([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)], [0] * 3)
        q, a, b = ds.records
        with pytest.raises(ValueError, match=f"^{message}$"):
            nearest_neighbors(q, [a, b], k=1, schema=schema)

    def test_non_integer_k_rejected(self):
        ds = make_dataset([(0.0,), (1.0,)], [0, 0])
        with pytest.raises(ValueError, match="^k must be an integer, got 1.5$"):
            nearest_neighbors(ds.records[0], ds.records[1:], k=1.5)


class TestResample:
    def test_output_size_and_membership(self):
        ds = generate(GeneratorSpec((10, 5, 5, 30), seed=1))
        out = resample(ds, 1.0, 100.0, seed=4)
        assert len(out) == len(ds)
        originals = set(ds.records)
        assert all(r in originals for r in out.records)

    def test_percent_scales_size(self):
        ds = generate(GeneratorSpec((10, 5, 5, 30), seed=1))
        assert len(resample(ds, 1.0, 50.0, seed=0)) == 25
        assert len(resample(ds, 1.0, 200.0, seed=0)) == 100

    def test_bias_zero_allows_missing_class(self):
        ds = generate(GeneratorSpec((0, 0, 10, 30), seed=1))
        out = resample(ds, 0.0, 100.0, seed=0)
        counts = class_distribution(out)
        assert counts[0] == counts[1] == 0 and sum(counts) == 40

    def test_full_bias_missing_class_rejected(self):
        ds = generate(GeneratorSpec((0, 5, 5, 30), seed=1))
        with pytest.raises(ValueError, match="insolvency"):
            resample(ds, 1.0, 100.0, seed=0)

    def test_full_bias_counts_near_uniform(self):
        ds = generate(GeneratorSpec((45, 13, 17, 541), seed=2))
        counts = class_distribution(resample(ds, 1.0, 100.0, seed=0))
        assert sum(counts) == 616
        assert all(abs(c - 154) <= 33 for c in counts)

    def test_deterministic(self):
        ds = generate(GeneratorSpec((10, 5, 5, 30), seed=1))
        a = resample(ds, 0.7, 120.0, seed=9)
        b = resample(ds, 0.7, 120.0, seed=9)
        assert a.records == b.records

    def test_parameter_validation(self):
        ds = generate(GeneratorSpec((2, 2, 2, 2), seed=1))
        with pytest.raises(ValueError):
            resample(ds, -0.1, 100.0, seed=0)
        with pytest.raises(ValueError):
            resample(ds, 0.5, 0.0, seed=0)
        with pytest.raises(ValueError, match="cannot resample an empty dataset"):
            resample(ds.take([]), 0.5, 100.0, seed=0)


class TestSmote:
    def test_targets_equal_counts_is_identity(self):
        ds = generate(GeneratorSpec((5, 4, 3, 8), seed=3))
        out = smote(ds, (5, 4, 3, 8), k_neighbors=3, seed=0)
        assert out.records == ds.records

    def test_exact_counts_and_originals_kept(self):
        ds = generate(GeneratorSpec((3, 2, 2, 5), seed=3))
        out = smote(ds, (6, 4, 2, 5), k_neighbors=2, seed=1)
        assert class_distribution(out) == (6, 4, 2, 5)
        assert out.records[: len(ds)] == ds.records
        synth = out.records[len(ds):]
        assert all(r.is_synthetic for r in synth)
        assert all(r.tca is None and r.tcr is None for r in synth)

    def test_two_member_class_betweenness(self):
        # with exactly two members the parents are known, so betweenness is exact
        ds = generate(GeneratorSpec((2, 0, 0, 4), seed=5))
        a, b = [r for r in ds.records if r.label is SolvencyClass.INSOLVENCY]
        out = smote(ds, (8, 0, 0, 4), k_neighbors=5, seed=2)
        for r in out.records[len(ds):]:
            for va, vb, v in zip(a.values, b.values, r.values):
                lo, hi = min(va, vb), max(va, vb)
                assert lo <= v <= hi
            assert min(a.car, b.car) <= r.car <= max(a.car, b.car)
            assert r.label is SolvencyClass.INSOLVENCY

    def test_synthetics_stay_in_class_bounding_box(self):
        ds = generate(GeneratorSpec((6, 5, 4, 10), seed=7))
        out = smote(ds, (12, 10, 8, 10), k_neighbors=3, seed=3)
        X = ds.matrix()
        y = ds.label_indices()
        for r in out.records[len(ds):]:
            box = X[y == r.label.value]
            vec = np.array([r.value(aname) for aname in ds.schema])
            assert np.all(vec >= box.min(axis=0)) and np.all(vec <= box.max(axis=0))

    def test_deterministic(self):
        ds = generate(GeneratorSpec((4, 3, 3, 6), seed=3))
        a = smote(ds, (8, 6, 6, 6), k_neighbors=2, seed=11)
        b = smote(ds, (8, 6, 6, 6), k_neighbors=2, seed=11)
        assert a.records == b.records

    def test_csv_round_trip_of_synthetics(self):
        ds = generate(GeneratorSpec((3, 2, 2, 4), seed=3))
        out = smote(ds, (5, 4, 2, 4), k_neighbors=1, seed=0)
        buf = io.StringIO()
        write_csv(out, buf)
        again = load_csv(io.StringIO(buf.getvalue()))
        assert again.records == out.records

    def test_target_below_count_rejected(self):
        ds = generate(GeneratorSpec((3, 2, 2, 5), seed=3))
        with pytest.raises(ValueError, match="below current count"):
            smote(ds, (3, 2, 2, 4), seed=0)

    def test_singleton_class_cannot_synthesize(self):
        ds = generate(GeneratorSpec((1, 2, 2, 5), seed=3))
        with pytest.raises(ValueError, match="at least 2 members"):
            smote(ds, (4, 2, 2, 5), seed=0)

    def test_label_consistency_of_synthetics(self):
        ds = generate(GeneratorSpec((4, 4, 4, 4), seed=9))
        out = smote(ds, (9, 9, 9, 9), k_neighbors=3, seed=4)
        from solvtree import label_from_car

        for r in out.records:
            assert label_from_car(r.car) is r.label


class TestSmoteReference:
    def _with_duplicates(self, ds, every):
        # repeated rows put several members at distance 0 from each other
        return Dataset(ds.records + ds.records[::every], ds.schema)

    @pytest.mark.parametrize("k", [1, 3, 5, 40])
    def test_matches_per_record_reference(self, k):
        ds = self._with_duplicates(generate(GeneratorSpec((9, 4, 6, 12), seed=21)), 2)
        counts = class_distribution(ds)
        # deficits below the class size, several times it, and zero
        targets = (counts[0] + 5, counts[1] * 4, counts[2] + 1, counts[3])
        assert smote(ds, targets, k_neighbors=k, seed=3).records == tuple(
            reference_smote(ds, targets, k, seed=3)
        )

    def test_narrowed_schema_matches_reference(self):
        base = generate(GeneratorSpec((7, 5, 8, 6), separation=1.0, seed=4))
        for schema in (("V9", "V2"), ("V4",), ("V11", "V1", "V6", "V3")):
            ds = self._with_duplicates(base, 3).with_schema(schema)
            counts = class_distribution(ds)
            targets = tuple(c + extra for c, extra in zip(counts, (3, 17, 0, 30)))
            assert smote(ds, targets, k_neighbors=3, seed=8).records == tuple(
                reference_smote(ds, targets, 3, seed=8)
            )

    def test_class_of_several_chunks_matches_reference(self):
        # 300 insolvency members over three attributes: the visited members' distances
        # come in several chunks, and duplicated rows tie across chunk boundaries
        base = generate(GeneratorSpec((200, 6, 8, 10), seed=5))
        ds = self._with_duplicates(base, 2).with_schema(("V3", "V7", "V10"))
        M = ds.matrix()[ds.label_indices() == 0]
        assert len(M) == 300 and len(list(balance._squared_distances(M, M))) > 2
        counts = class_distribution(ds)
        targets = (counts[0] + 330, counts[1] + 7, counts[2], counts[3] + 12)
        assert smote(ds, targets, k_neighbors=4, seed=6).records == tuple(
            reference_smote(ds, targets, 4, seed=6)
        )

    @pytest.mark.parametrize("schema", [("V3", "V7", "V10"), tuple(f"V{i}" for i in range(1, 12))])
    def test_block_distances_equal_the_row_form(self, schema):
        # the 8-accumulator pairwise sum applies from 8 attributes on; both forms must use it alike
        ds = self._with_duplicates(generate(GeneratorSpec((200, 6, 8, 10), seed=5)), 2).with_schema(schema)
        M = ds.matrix()[ds.label_indices() == 0]
        block = np.concatenate(list(balance._squared_distances(M, M)))
        for q, row in zip(M, block):
            assert row.tobytes() == ((M - q) ** 2).sum(axis=1).tobytes()

    def test_all_tied_class_matches_reference(self):
        # V1 ties every member with every other, so neighbours fall back to
        # member order; V2 is outside the schema and shows which one was taken
        rows = [(1.0, float(i)) for i in range(6)] + [(0.0, 0.0), (5.0, 5.0)]
        ds = make_dataset(rows, [0] * 6 + [3, 3], schema=("V1",))
        targets = (20, 0, 0, 5)
        assert smote(ds, targets, k_neighbors=2, seed=1).records == tuple(
            reference_smote(ds, targets, 2, seed=1)
        )


class TestDraws:
    """SMOTE reads its picks and fractions from one block of raw PCG64 outputs,
    following numpy internals; these tests fail loudly if numpy changes them."""

    @pytest.mark.parametrize("nn", [1, 2, 3, 5, 7])
    def test_block_matches_scalar_calls(self, nn):
        for seed in range(10):
            for count in (1, 2, 3, 17, 1000):
                entropy = [seed, seed % 4]
                picks, fractions = balance._draws(entropy, nn, count)
                want_picks, want_fractions = _scalar_draws(entropy, nn, count)
                assert picks.tolist() == want_picks, (seed, count)
                assert fractions.tobytes() == want_fractions.tobytes(), (seed, count)

    def test_rejected_draw_falls_back_to_scalar_calls(self):
        # with nn = 3 * 2**30, Lemire's method rejects a quarter of all values, so reading
        # one value per pick no longer matches the calls and the fallback must run
        nn, count = 3 * 2**30, 40
        raw = np.random.PCG64(np.random.SeedSequence([4, 1])).random_raw(60).reshape(-1, 3)
        one_value_each = (np.column_stack((raw[:, 0] & 0xFFFFFFFF, raw[:, 0] >> 32)).ravel() * nn) >> 32
        want_picks, want_fractions = _scalar_draws([4, 1], nn, count)
        assert one_value_each.tolist() != want_picks
        picks, fractions = balance._draws([4, 1], nn, count)
        assert picks.tolist() == want_picks
        assert fractions.tobytes() == want_fractions.tobytes()


class TestBalanceTargets:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            BalanceTargets(mode="other")
        with pytest.raises(ValueError):
            BalanceTargets(mode="smote")  # needs targets
        bt = BalanceTargets(mode="smote", target_counts=(1, 2, 3, 4))
        assert bt.target_counts == (1, 2, 3, 4)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            BalanceTargets(mode="resample", bias_to_uniform=1.5)
        with pytest.raises(ValueError):
            BalanceTargets(mode="resample", sample_size_percent=-10.0)
        with pytest.raises(ValueError):
            BalanceTargets(mode="smote", target_counts=(1, 2, 3, 4), k_neighbors=0)


_KNOB_DATA = generate(GeneratorSpec((3, 3, 3, 3), seed=1))
# (knobs, message): each knob alone out of range, with the message resample/smote and
# BalanceTargets all give for it
_BAD_KNOBS = [
    ({"bias_to_uniform": -0.1}, "bias_to_uniform must be in [0, 1], got -0.1"),
    ({"bias_to_uniform": float("nan")}, "bias_to_uniform must be in [0, 1], got nan"),
    ({"sample_size_percent": 0.0}, "sample_size_percent must be finite and > 0, got 0.0"),
    ({"sample_size_percent": float("inf")}, "sample_size_percent must be finite and > 0, got inf"),
    ({"k_neighbors": 0}, "k_neighbors must be >= 1, got 0"),
    ({"target_counts": (3, 3, 3)}, "target_counts must have one entry per class"),
]


class TestKnobMessages:
    @pytest.mark.parametrize("knobs, message", _BAD_KNOBS, ids=[m for _, m in _BAD_KNOBS])
    def test_functions_and_request_give_one_message(self, knobs, message):
        resampling = "bias_to_uniform" in knobs or "sample_size_percent" in knobs
        run = resample if resampling else smote
        kwargs = knobs if resampling else {"target_counts": (3, 3, 3, 3), **knobs}
        with pytest.raises(ValueError) as exc_info:
            run(_KNOB_DATA, **kwargs, seed=0)
        assert str(exc_info.value) == message
        # a resampling request carries no targets to check
        for mode in ("smote",) if "target_counts" in knobs else ("resample", "smote"):
            with pytest.raises(ValueError) as exc_info:
                BalanceTargets(mode, **{"target_counts": (3, 3, 3, 3), **knobs})
            assert str(exc_info.value) == message, mode

    def test_non_integer_k_neighbors_is_refused_when_built(self):
        # refused when built, not by a TypeError inside the neighbour search
        ds = generate(GeneratorSpec((8, 8, 8, 8), seed=1))
        with pytest.raises(ValueError, match="^k_neighbors must be an integer, got 2.5$"):
            smote(ds, (8, 8, 8, 8), k_neighbors=2.5)
        with pytest.raises(ValueError, match="^k_neighbors must be an integer, got 2.5$"):
            BalanceTargets("resample", k_neighbors=2.5)

    def test_non_integer_target_counts_are_refused(self):
        # refused, not truncated by int to (8, 8, 8, 8)
        message = r"^target_counts must hold non-negative integers, got \('8', 8.9, 8, 8\)$"
        with pytest.raises(ValueError, match=message):
            BalanceTargets("smote", target_counts=("8", 8.9, 8, 8))
        for bad in ((True, 8, 8, 8), (-1, 8, 8, 8), 8, "8888"):
            with pytest.raises(ValueError, match="^target_counts must "):
                BalanceTargets("smote", target_counts=bad)

    @pytest.mark.parametrize("value", ["1", True])
    def test_bias_to_uniform_must_be_a_real_number(self, value):
        # refused naming the field, not by a TypeError from the range check
        message = f"^bias_to_uniform must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            BalanceTargets("resample", bias_to_uniform=value)
        with pytest.raises(ValueError, match=message):
            resample(_KNOB_DATA, bias_to_uniform=value)

    @pytest.mark.parametrize("value", ["50", False])
    def test_sample_size_percent_must_be_a_real_number(self, value):
        message = f"^sample_size_percent must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            BalanceTargets("resample", sample_size_percent=value)
        with pytest.raises(ValueError, match=message):
            resample(_KNOB_DATA, sample_size_percent=value)

    def test_numpy_float_knobs_are_stored_as_floats(self):
        request = BalanceTargets("resample", bias_to_uniform=np.float32(0.5), sample_size_percent=np.int64(150))
        assert (request.bias_to_uniform, request.sample_size_percent) == (0.5, 150.0)
        assert all(type(v) is float for v in (request.bias_to_uniform, request.sample_size_percent))
        assert len(resample(_KNOB_DATA, np.float64(0.5), np.float32(150.0), seed=0)) == 18

    def test_numpy_integer_knobs_are_accepted(self):
        request = BalanceTargets("smote", target_counts=np.array([8, 9, 8, 8]), k_neighbors=np.int64(3))
        assert request.target_counts == (8, 9, 8, 8)
        assert all(type(c) is int for c in request.target_counts)

    def test_two_bad_knobs_report_k_first(self):
        # one check order for smote and BalanceTargets: k_neighbors before target_counts
        message = "k_neighbors must be >= 1, got 0"
        with pytest.raises(ValueError, match=f"^{message}$"):
            smote(_KNOB_DATA, (3, 3, 3), k_neighbors=0, seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            BalanceTargets("smote", target_counts=(3, 3, 3), k_neighbors=0)
