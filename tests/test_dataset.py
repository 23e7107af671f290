import functools
import io
import math
import operator

import pytest
from hypothesis import given, strategies as st

from solvtree import (
    ATTRIBUTE_NAMES,
    ActionLevel,
    CLASS_ALPHABET,
    CompanyRecord,
    CsvFormatError,
    Dataset,
    GeneratorSpec,
    SolvencyClass,
    class_distribution,
    generate,
    label_from_car,
    load_csv,
    stratified_split,
    write_csv,
)

from solvtree.dataset import _sum_in_order

from oracles import make_dataset


class TestLabelFromCar:
    @pytest.mark.parametrize(
        "car,expected",
        [
            (160.0, SolvencyClass.STRONG),
            (150.0, SolvencyClass.STRONG),
            (135.0, SolvencyClass.MODERATE),
            (120.0, SolvencyClass.MODERATE),
            (119.999, SolvencyClass.WEAK),
            (100.0, SolvencyClass.WEAK),
            (99.9, SolvencyClass.INSOLVENCY),
            (0.0, SolvencyClass.INSOLVENCY),
            (-250.0, SolvencyClass.INSOLVENCY),
        ],
    )
    def test_band_edges(self, car, expected):
        assert label_from_car(car) is expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            label_from_car(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_total_partition(self, car):
        cls = label_from_car(car)
        in_band = {
            SolvencyClass.STRONG: car >= 150,
            SolvencyClass.MODERATE: 120 <= car < 150,
            SolvencyClass.WEAK: 100 <= car < 120,
            SolvencyClass.INSOLVENCY: car < 100,
        }
        assert in_band[cls]
        assert sum(in_band.values()) == 1

    def test_action_levels(self):
        assert SolvencyClass.STRONG.action_level is ActionLevel.NO_ACTION
        assert SolvencyClass.MODERATE.action_level is ActionLevel.COMPANY_ACTION
        assert SolvencyClass.WEAK.action_level is ActionLevel.REGULATORY_ACTION
        assert SolvencyClass.INSOLVENCY.action_level is ActionLevel.AUTHORIZED_CONTROL


class TestCompanyRecord:
    def test_car_consistency_checked(self):
        CompanyRecord("A", 2001, 300.0, 200.0, 150.0, (0.0,) * 11)
        with pytest.raises(ValueError):
            CompanyRecord("A", 2001, 300.0, 200.0, 149.0, (0.0,) * 11)

    def test_tca_requires_tcr(self):
        with pytest.raises(ValueError):
            CompanyRecord("A", 2001, 300.0, None, 150.0, (0.0,) * 11)

    def test_value_count_enforced(self):
        with pytest.raises(ValueError):
            CompanyRecord("A", 2001, None, None, 150.0, (0.0,) * 10)

    def test_non_finite_attribute_rejected(self):
        values = (0.0,) * 6 + (math.nan,) + (0.0,) * 4
        with pytest.raises(ValueError):
            CompanyRecord("A", 2001, None, None, 150.0, values)

    def test_synthetic_marker(self):
        rec = CompanyRecord(None, None, None, None, 150.0, (0.0,) * 11)
        assert rec.is_synthetic
        with pytest.raises(ValueError):
            CompanyRecord("A", None, None, None, 150.0, (0.0,) * 11)


def _csv(rows):
    header = "company_id,year,tca,tcr,car," + ",".join(ATTRIBUTE_NAMES)
    return io.StringIO("\n".join([header, *rows]) + "\n")


ELEVEN = ",".join("0.5" for _ in ATTRIBUTE_NAMES)


class TestLoadCsv:
    def test_single_row_labeled_from_car(self):
        ds = load_csv(_csv([f"A,2001,,,160.0,{ELEVEN}"]), expect_labels=True)
        assert len(ds) == 1
        assert ds.records[0].label is SolvencyClass.STRONG

    def test_car_computed_from_tca_tcr(self):
        ds = load_csv(_csv([f"A,2001,330,220,,{ELEVEN}"]))
        assert ds.records[0].car == pytest.approx(150.0)

    def test_missing_value_names_row_and_column(self):
        cells = ["0.5"] * 11
        cells[6] = ""  # V7
        row = "A,2001,,,160.0," + ",".join(cells)
        with pytest.raises(CsvFormatError) as exc_info:
            load_csv(_csv([row]))
        err = exc_info.value
        assert err.row == 2 and err.column == "V7"
        assert "row 2" in str(err) and "V7" in str(err)

    def test_non_numeric_cell(self):
        with pytest.raises(CsvFormatError) as exc_info:
            load_csv(_csv([f"A,2001,,,abc,{ELEVEN}"]))
        assert exc_info.value.column == "car"

    def test_missing_column_rejected(self):
        text = io.StringIO("company_id,year,tca,tcr,car,V1\nA,2001,,,160.0,0.5\n")
        with pytest.raises(CsvFormatError) as exc_info:
            load_csv(text)
        assert exc_info.value.row == 1

    def test_car_and_tca_tcr_both_blank(self):
        with pytest.raises(CsvFormatError):
            load_csv(_csv([f"A,2001,,,,{ELEVEN}"]))

    def test_duplicate_company_year(self):
        rows = [f"A,2001,,,160.0,{ELEVEN}", f"A,2001,,,90.0,{ELEVEN}"]
        with pytest.raises(CsvFormatError) as exc_info:
            load_csv(_csv(rows))
        assert exc_info.value.row == 3
        assert len(load_csv(_csv(rows), allow_duplicates=True)) == 2

    def test_class_column_parsed(self):
        header = "company_id,year,tca,tcr,car," + ",".join(ATTRIBUTE_NAMES) + ",class"
        text = io.StringIO(f"{header}\nA,2001,,,90.0,{ELEVEN},insolvency\n")
        ds = load_csv(text)
        assert ds.records[0].label is SolvencyClass.INSOLVENCY

    def test_blank_class_cell_rejected(self):
        header = "company_id,year,tca,tcr,car," + ",".join(ATTRIBUTE_NAMES) + ",class"
        with pytest.raises(CsvFormatError) as exc_info:
            load_csv(io.StringIO(f"{header}\nA,2001,,,90.0,{ELEVEN},\n"))
        assert exc_info.value.column == "class"

    def test_unlabeled_when_not_expected(self):
        ds = load_csv(_csv([f"A,2001,,,160.0,{ELEVEN}"]))
        assert ds.records[0].label is None

    def test_616_row_file_labels_from_car_bands(self, tmp_path):
        from dataclasses import replace

        ds = generate(GeneratorSpec((44, 13, 16, 543), seed=9))
        unlabeled = Dataset(tuple(replace(r, label=None) for r in ds.records), ds.schema)
        path = tmp_path / "t2.csv"
        write_csv(unlabeled, path)
        loaded = load_csv(path, expect_labels=True)
        assert class_distribution(loaded) == (44, 13, 16, 543)

    def test_round_trip_identity(self):
        ds = generate(GeneratorSpec((5, 4, 3, 8), seed=3))
        buf = io.StringIO()
        write_csv(ds, buf)
        again = load_csv(io.StringIO(buf.getvalue()))
        assert again.records == ds.records

    def test_round_trip_bytes_stable(self):
        ds = generate(GeneratorSpec((5, 4, 3, 8), seed=3))
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv(ds, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]


    def test_overlong_cell_names_its_row(self):
        # the csv module refuses fields over 131072 characters
        rows = [f"A,2001,,,160.0,{ELEVEN}", f"B,2001,,,160.0,{'1' * 200_000},{ELEVEN[4:]}"]
        with pytest.raises(CsvFormatError) as exc_info:
            load_csv(_csv(rows))
        assert exc_info.value.row == 3
        assert "field limit" in str(exc_info.value)

    def test_invalid_utf8_is_a_format_error(self, tmp_path):
        data = _csv([f"A,2001,,,160.0,{ELEVEN}"]).getvalue().encode().replace(b"A,", b"\xffA,")
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        for source in (path, io.BytesIO(data)):
            with pytest.raises(CsvFormatError, match="UTF-8"):
                load_csv(source)


class TestSumInOrder:
    def test_adds_left_to_right_without_compensation(self):
        values = [0.1] * 10 + [1e16, 1.0, -1e16]
        naive = functools.reduce(operator.add, values, 0.0)
        assert naive == 0.0 and math.fsum(values) == 2.0
        assert _sum_in_order(values) == naive
        assert _sum_in_order(values[:10]) == functools.reduce(operator.add, values[:10], 0.0)

    def test_negative_zeros_sum_to_positive_zero(self):
        assert math.copysign(1.0, _sum_in_order([-0.0, -0.0])) == 1.0


class TestClassDistribution:
    def test_empty(self):
        ds = Dataset((), ATTRIBUTE_NAMES)
        assert class_distribution(ds) == (0, 0, 0, 0)

    def test_counts_sum_and_order(self):
        ds = make_dataset([(0.0,)] * 6, [3, 0, 3, 1, 3, 2])
        assert class_distribution(ds) == (1, 1, 1, 3)

    def test_permutation_invariant(self):
        ds = make_dataset([(float(i),) for i in range(6)], [3, 0, 3, 1, 3, 2])
        flipped = Dataset(tuple(reversed(ds.records)), ds.schema)
        assert class_distribution(ds) == class_distribution(flipped)

    def test_unlabeled_rejected(self):
        rec = CompanyRecord("A", 2001, None, None, 160.0, (0.0,) * 11)
        with pytest.raises(ValueError):
            class_distribution(Dataset((rec,), ATTRIBUTE_NAMES))


class TestStratifiedSplit:
    def test_per_class_rounding(self):
        ds = generate(GeneratorSpec((44, 13, 16, 543), seed=5))
        train, test = stratified_split(ds, 0.8, seed=1)
        assert class_distribution(train) == (35, 10, 13, 434)
        assert class_distribution(test) == (9, 3, 3, 109)

    def test_partition_no_loss(self):
        ds = generate(GeneratorSpec((10, 6, 7, 20), seed=5))
        train, test = stratified_split(ds, 0.6, seed=2)
        assert len(train) + len(test) == len(ds)
        assert sorted(train.records + test.records, key=lambda r: r.company_id) == list(ds.records)

    def test_deterministic(self):
        ds = generate(GeneratorSpec((10, 6, 7, 20), seed=5))
        a = stratified_split(ds, 0.6, seed=9)
        b = stratified_split(ds, 0.6, seed=9)
        assert a[0].records == b[0].records and a[1].records == b[1].records

    def test_one_record_per_class_half(self):
        # round(0.5) goes up, so every singleton class lands in the train side
        ds = make_dataset([(float(i),) for i in range(4)], [0, 1, 2, 3])
        train, test = stratified_split(ds, 0.5, seed=0)
        assert class_distribution(train) == (1, 1, 1, 1)
        assert len(test) == 0

    def test_fraction_bounds(self):
        ds = make_dataset([(0.0,)], [0])
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                stratified_split(ds, bad, seed=0)

    def test_schema_preserved(self):
        ds = generate(GeneratorSpec((4, 4, 4, 4), n_attributes=5, seed=5))
        train, test = stratified_split(ds, 0.5, seed=0)
        assert train.schema == ds.schema == test.schema
