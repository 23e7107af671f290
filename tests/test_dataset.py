import csv
import functools
import io
import math
import operator
import sys
import tracemalloc

import numpy as np
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
    smote,
    stratified_folds,
    stratified_split,
    write_csv,
)

from solvtree.dataset import CSV_BASE_COLUMNS, _row, _sum_in_order

from oracles import make_dataset, reference_row


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

    @pytest.mark.parametrize("car", [math.nan, math.inf, -math.inf])
    def test_non_finite_car_rejected(self, car):
        with pytest.raises(ValueError, match="car is not finite"):
            CompanyRecord("A", 2001, None, None, car, (0.0,) * 11)

    def test_synthetic_marker(self):
        rec = CompanyRecord(None, None, None, None, 150.0, (0.0,) * 11)
        assert rec.is_synthetic
        with pytest.raises(ValueError):
            CompanyRecord("A", None, None, None, 150.0, (0.0,) * 11)

    @pytest.mark.parametrize("company_id", ["", "  ", " Acme", "Acme\t", "\u00a0Acme", 7])
    def test_company_id_is_what_the_csv_reader_reads_back(self, company_id):
        # after write_csv, load_csv would refuse these or read back a stripped id
        with pytest.raises(ValueError, match="^company_id must be non-empty text without surrounding whitespace"):
            CompanyRecord(company_id, 2001, None, None, 150.0, (0.0,) * 11)

    @pytest.mark.parametrize("year", [2001.5, 2001.0, True, "2001"])
    def test_year_is_an_integer(self, year):
        with pytest.raises(ValueError, match="^year must be an integer, got "):
            CompanyRecord("Acme", year, None, None, 150.0, (0.0,) * 11)

    def test_numpy_integer_year_reads_back_equal(self):
        rec = CompanyRecord("Acme", np.int64(2001), None, None, 150.0, (0.0,) * 11)
        assert load_csv(io.StringIO(_dump(Dataset([rec])))).records == (rec,)


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

    def test_empty_file_names_row_one(self):
        with pytest.raises(CsvFormatError, match="empty file, expected a header row") as exc_info:
            load_csv(io.StringIO(""))
        assert exc_info.value.row == 1

    def test_partially_labeled_dataset_is_not_written(self):
        from dataclasses import replace

        ds = generate(GeneratorSpec((1, 1, 1, 1), seed=0))
        mixed = Dataset((replace(ds.records[0], label=None), *ds.records[1:]), ds.schema)
        with pytest.raises(ValueError, match="cannot write a partially labeled dataset"):
            write_csv(mixed, io.StringIO())

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

    def test_a_bad_row_read_before_the_bad_bytes_wins(self, tmp_path):
        # text is decoded as it is read, 8 KiB at a time, for a path and a file object alike,
        # so a bad row at least a chunk before undecodable bytes is the fault reported
        rows = [f"A,2001,,,160.0,{ELEVEN}", f"B,2001,,,x,{ELEVEN}"]
        rows += [f"C{i},2001,,,160.0,{ELEVEN}" for i in range(2000)] + ["\udcff"]
        data = _csv(rows).getvalue().encode("utf-8", "surrogateescape")
        assert data.index(b"\xff") > 65536
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        for source in (path, io.BytesIO(data)):
            with pytest.raises(CsvFormatError) as exc_info:
                load_csv(source)
            assert (exc_info.value.row, exc_info.value.column) == (3, "car")
        assert not source.closed

    @pytest.mark.parametrize("wrap", [io.BytesIO, lambda data: io.StringIO(data.decode())])
    def test_a_file_object_streams_as_a_path_does(self, tmp_path, wrap):
        ds = generate(GeneratorSpec((500, 500, 500, 500), seed=1))
        path = tmp_path / "rows.csv"
        write_csv(ds, path)
        peaks = []
        for source in (path, wrap(path.read_bytes())):
            tracemalloc.start()
            try:
                loaded = load_csv(source)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert _dump(loaded) == _dump(ds)
        # a copy of the whole text would more than double the peak
        assert peaks[1] < 1.25 * peaks[0]
        assert not source.closed


    @pytest.mark.parametrize("expect_labels", [False, True])
    def test_overflowing_computed_car_names_row_and_column(self, expect_labels):
        with pytest.raises(CsvFormatError) as exc_info:
            load_csv(_csv([f"A,2001,1e308,1e-308,,{ELEVEN}"]), expect_labels=expect_labels)
        assert (exc_info.value.row, exc_info.value.column) == (2, "car")

    @pytest.mark.parametrize(
        "column, cell",
        [("year", "２００１"), ("year", "2_001"), ("car", "1_6_0"), ("car", "١٦٠"), ("tca", "٥"),
         ("V3", "٥"), ("V11", "0.5_1")],
    )
    def test_numbers_are_ascii_without_underscores(self, column, cell):
        cells = dict(zip(CSV_BASE_COLUMNS, ["A", "2001", "", "", "160.0", *["0.5"] * 11]))
        cells[column] = cell
        with pytest.raises(CsvFormatError) as exc_info:
            load_csv(_csv([",".join(cells.values())]))
        assert (exc_info.value.row, exc_info.value.column) == (2, column)
        assert repr(cell) in str(exc_info.value)

    def test_unicode_padding_around_a_number_is_stripped(self):
        ds = load_csv(_csv([f"A,\u30002001\u3000,,,\xa0160.0,{ELEVEN}"]))
        assert ds.year.tolist() == [2001] and ds.car.tolist() == [160.0]

    def test_first_fault_in_file_order_is_reported(self):
        rows = [f"A,2001,,,abc,{ELEVEN}", f"B,2001,,,160.0,{ELEVEN}", f"C,2001,,,160.0,{'1' * 200_000}"]
        with pytest.raises(CsvFormatError) as exc_info:
            load_csv(_csv(rows))
        assert (exc_info.value.row, exc_info.value.column) == (2, "car")


def _labeled_csv_lines() -> list[str]:
    """A valid labeled CSV: generated rows, rows with tca/tcr, a synthetic row."""
    buf = io.StringIO()
    write_csv(generate(GeneratorSpec((2, 1, 1, 2), seed=1)), buf)
    return buf.getvalue().splitlines() + [
        f"Z,2001,300.0,200.0,150.0,{ELEVEN},strong",
        f"Y,2002,330,220,,{ELEVEN},strong",
        f"X,2003,330.0,220.0,,{ELEVEN},strong",
        f"W,2004,330.0,220.0,  ,{ELEVEN},strong",
        f",,,,130.5,{ELEVEN},moderate",
    ]


_SPECIAL_CELLS = ["", "1e308", "-1e308", "5e-324", "1e400", "strong", '"', ",", "\n", "\x00", " 1.5 ",
                  "1_0", "２", "٥", "\xa01.5", "nan", "-inf", "+7", "0x10", "Strong", " strong", "0", "-1",
                  "  ", "\u3000", "weak", "WEAK", "ſtrong"]

_CELLS = st.one_of(st.text(max_size=12), st.floats().map(repr), st.sampled_from(_SPECIAL_CELLS))


def _dump(ds) -> str:
    buf = io.StringIO()
    write_csv(ds, buf)
    return buf.getvalue()


def _mutated_csv(data, with_class: bool) -> str:
    """A valid CSV (:func:`_labeled_csv_lines`) with one to three rows replaced, grown or cut."""
    lines = _labeled_csv_lines()
    if not with_class:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        kind = data.draw(st.sampled_from(["replace", "add", "drop", "raw line"]))
        if kind == "replace":
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_CELLS)
        elif kind == "add":
            cells.insert(data.draw(st.integers(0, len(cells))), data.draw(_CELLS))
        elif kind == "drop":
            cells.pop(data.draw(st.integers(0, len(cells) - 1)))
        else:
            cells = [data.draw(st.text(max_size=40))]
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _assert_reads_as_reference(cells, row_no, with_class):
    """``_row`` returns exactly what ``reference_row`` returns, or raises its CsvFormatError."""
    try:
        expected = reference_row(cells, row_no, with_class)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as got:
            _row(cells, row_no, with_class)
        assert (str(got.value), got.value.row, got.value.column) == (str(exc), exc.row, exc.column), cells
    else:
        assert repr(_row(cells, row_no, with_class)) == repr(expected), cells


# NUL is a csv.reader error before Python 3.11, in any cell
_ID_CHARS = st.characters(exclude_characters="\x00" if sys.version_info < (3, 11) else None)


class TestCsvFuzz:
    @given(st.data(), st.booleans())
    def test_mutated_csv_loads_or_raises_a_format_error(self, data, with_class):
        text = _mutated_csv(data, with_class)
        for expect_labels in (False, True):
            for allow_duplicates in (False, True):
                try:
                    ds = load_csv(io.StringIO(text), expect_labels, allow_duplicates)
                except CsvFormatError:
                    continue
                assert isinstance(ds, Dataset)

    @given(st.data(), st.booleans())
    def test_row_reader_matches_the_reference_on_mutated_rows(self, data, with_class):
        try:
            rows = list(csv.reader(io.StringIO(_mutated_csv(data, with_class))))
        except csv.Error:
            return
        for row_no, cells in enumerate(rows[1:], 2):
            _assert_reads_as_reference(cells, row_no, with_class)

    def test_row_reader_matches_the_reference_on_each_special_cell_in_each_column(self):
        for with_class in (True, False):
            for line in _labeled_csv_lines()[1:]:
                valid = line.split(",") if with_class else line.split(",")[:-1]
                for column in range(len(valid)):
                    for cell in _SPECIAL_CELLS:
                        _assert_reads_as_reference(valid[:column] + [cell] + valid[column + 1:], 2, with_class)

    @given(
        st.lists(st.text(_ID_CHARS, min_size=1).map(str.strip).filter(bool), min_size=1, max_size=6),
        st.booleans(),
    )
    def test_company_ids_are_quoted_as_csv_writer_quotes_them(self, ids, money):
        ds = Dataset(
            CompanyRecord(company_id, 2001 + i, 330.0 if money else None, 220.0 if money else None,
                          150.0, (0.25 * i,) * 11, SolvencyClass.STRONG)
            for i, company_id in enumerate(ids)
        )
        text = _dump(ds)
        # csv.writer leaves a CR unquoted before Python 3.13, and its reader then rejects the file
        if sys.version_info >= (3, 13) or not any("\r" in company_id for company_id in ids):
            reference = io.StringIO()
            writer = csv.writer(reference, lineterminator="\n")
            writer.writerow(CSV_BASE_COLUMNS + ("class",))
            for r in ds.records:
                writer.writerow([r.company_id, r.year, r.tca, r.tcr, r.car, *r.values, "strong"])
            assert text == reference.getvalue()
        loaded = load_csv(io.StringIO(text))
        for old, new in zip(ds._columns(), loaded._columns(), strict=True):
            assert old.tobytes() == new.tobytes() if old.dtype != object else old.tolist() == new.tolist()

    @given(
        st.tuples(*[st.integers(2, 6)] * 4),
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(st.floats(0.0, 1e6), st.floats(1e-3, 1e6), st.floats(-1e3, 1e3)),
            min_size=1, max_size=5,
        ),
    )
    def test_write_load_write_keeps_bytes(self, counts, seed, money):
        generated = generate(GeneratorSpec(counts, seed=seed))
        oversampled = smote(generated, [c + 3 for c in counts], k_neighbors=2, seed=seed)
        with_money = Dataset(
            CompanyRecord(f"M{i}", 2001, tca, tcr, 100.0 * tca / tcr, (v,) * 11)
            for i, (tca, tcr, v) in enumerate(money)
        )
        for ds in (generated, oversampled, with_money):
            text = _dump(ds)
            assert _dump(load_csv(io.StringIO(text))) == text


def _record_args(labeled: bool):
    """CompanyRecord arguments, real or synthetic, with or without tca/tcr; some ids and years are refused."""
    key = st.tuples(st.text(_ID_CHARS, max_size=4) | st.integers(0, 9),
                    st.integers(-10**6, 10**6) | st.sampled_from([2001.5, 2001.0, True, "2001", np.int64(2001)]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    money = st.tuples(st.floats(0.0, 1e6), st.floats(1e-3, 1e6)).map(lambda m: (*m, 100.0 * m[0] / m[1]))
    return st.tuples(
        key | st.just((None, None)),
        money | finite.map(lambda car: (None, None, car)),
        st.tuples(*[finite] * len(ATTRIBUTE_NAMES)),
        st.sampled_from(CLASS_ALPHABET) if labeled else st.none(),
    )


def _accepted(args) -> list[CompanyRecord]:
    """The records the constructor accepts, of each (key, money, values, label)."""
    records = []
    for key, money, values, label in args:
        try:
            records.append(CompanyRecord(*key, *money, values, label))
        except ValueError:
            pass
    return records


class TestRecordRoundTrip:
    @given(st.booleans().flatmap(lambda labeled: st.lists(_record_args(labeled), max_size=6)))
    def test_load_csv_reads_back_every_record_the_constructor_accepts(self, args):
        records = _accepted(args)
        loaded = load_csv(io.StringIO(_dump(Dataset(records))), allow_duplicates=True)
        assert loaded.records == tuple(records)


class TestColumnarDataset:
    def test_columns_from_records(self):
        records = (
            CompanyRecord("A", 2001, 330.0, 220.0, 150.0, (0.5,) * 11, SolvencyClass.STRONG),
            CompanyRecord(None, None, None, None, 99.0, (1.5,) * 11),
        )
        ds = Dataset(records, ("V3", "V1"))
        assert ds.records is records
        assert ds.company_id.tolist() == ["A", None] and ds.year.tolist() == [2001, None]
        assert ds.tca[0] == 330.0 and math.isnan(ds.tca[1]) and math.isnan(ds.tcr[1])
        assert ds.y.tolist() == [SolvencyClass.STRONG.value, -1]
        assert ds.values.shape == (2, 11)
        assert ds.matrix().tolist() == [[0.5, 0.5], [1.5, 1.5]]

    def test_records_built_from_columns(self):
        ds = generate(GeneratorSpec((3, 2, 2, 3), seed=4))
        assert Dataset(ds.records, ds.schema).records == ds.records
        assert [r.label.value for r in ds.records] == ds.y.tolist()
        assert all(r.tca is None and r.tcr is None for r in ds.records)

    def test_take_by_indices_and_mask(self):
        ds = generate(GeneratorSpec((3, 2, 2, 3), seed=4))
        picked = ds.take(np.array([4, 0, 4]))
        assert picked.records == (ds.records[4], ds.records[0], ds.records[4])
        assert picked.schema == ds.schema
        mask = ds.y == 3
        assert ds.take(mask).records == tuple(r for r in ds.records if r.label.value == 3)

    def test_columns_are_read_only(self):
        ds = generate(GeneratorSpec((1, 1, 1, 1), seed=4))
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1.0
        ds.matrix()[0, 0] = 1.0  # a copy
        ds.label_indices()[0] = 2  # a copy
        assert ds.y[0] == 0


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

    def test_train_side_is_the_head_of_each_class_shuffle_the_folds_deal(self):
        counts = (5, 3, 4, 8)
        ds = generate(GeneratorSpec(counts, seed=5))
        # leave-one-out folds hold one row each, in dealing order: the class shuffles end to end
        dealt = [fold[0] for fold in stratified_folds(ds, len(ds), seed=4)]
        starts = np.cumsum((0,) + counts)
        heads = [dealt[start:start + n] for start, n in zip(starts, (3, 2, 2, 5))]  # round(0.6 * count)
        train, _ = stratified_split(ds, 0.6, seed=4)
        assert train.company_id.tolist() == [f"C{i:04d}" for i in sorted(sum(heads, []))]

    def test_schema_preserved(self):
        ds = generate(GeneratorSpec((4, 4, 4, 4), n_attributes=5, seed=5))
        train, test = stratified_split(ds, 0.5, seed=0)
        assert train.schema == ds.schema == test.schema
