"""Insurer-year records: solvency bands, CSV ingestion, stratified partitioning.

The capital adequacy ratio (CAR, total capital available over total capital
required, in percent) drives a four-band solvency grading; each band carries
a supervisory action level. Records hold eleven financial ratios (V1..V11)
that downstream learners consume.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Sequence

import numpy as np

ATTRIBUTE_NAMES: tuple[str, ...] = tuple(f"V{i}" for i in range(1, 12))

_ATTR_INDEX = {name: i for i, name in enumerate(ATTRIBUTE_NAMES)}

#: CSV columns preceding the optional trailing ``class`` column.
CSV_BASE_COLUMNS: tuple[str, ...] = ("company_id", "year", "tca", "tcr", "car") + ATTRIBUTE_NAMES

STRONG_MIN_CAR = 150.0
MODERATE_MIN_CAR = 120.0
WEAK_MIN_CAR = 100.0


class ActionLevel(Enum):
    """Supervisory consequence attached to a solvency band."""

    NO_ACTION = "no_action"
    COMPANY_ACTION = "company_action"
    REGULATORY_ACTION = "regulatory_action"
    AUTHORIZED_CONTROL = "authorized_control"


class SolvencyClass(Enum):
    """Four-band solvency grading, weakest first; values index count vectors."""

    INSOLVENCY = 0
    WEAK = 1
    MODERATE = 2
    STRONG = 3

    @property
    def action_level(self) -> ActionLevel:
        return _ACTION_LEVELS[self]

    @property
    def csv_name(self) -> str:
        return self.name.lower()

    @classmethod
    def from_csv_name(cls, name: str) -> "SolvencyClass":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown class label {name!r}") from None


_ACTION_LEVELS = {
    SolvencyClass.STRONG: ActionLevel.NO_ACTION,
    SolvencyClass.MODERATE: ActionLevel.COMPANY_ACTION,
    SolvencyClass.WEAK: ActionLevel.REGULATORY_ACTION,
    SolvencyClass.INSOLVENCY: ActionLevel.AUTHORIZED_CONTROL,
}

#: Fixed class order used by every count vector, fold, and report.
CLASS_ALPHABET: tuple[SolvencyClass, ...] = (
    SolvencyClass.INSOLVENCY,
    SolvencyClass.WEAK,
    SolvencyClass.MODERATE,
    SolvencyClass.STRONG,
)

N_CLASSES = len(CLASS_ALPHABET)


def label_from_car(car: float) -> SolvencyClass:
    """Map a capital adequacy ratio (percent) to its solvency band.

    Bands are lower-inclusive and upper-exclusive: Strong at 150 and above,
    Moderate on [120, 150), Weak on [100, 120), Insolvency below 100.
    The four bands partition the finite reals; non-finite input is rejected.
    """
    car = float(car)
    if not math.isfinite(car):
        raise ValueError(f"CAR must be finite, got {car!r}")
    if car >= STRONG_MIN_CAR:
        return SolvencyClass.STRONG
    if car >= MODERATE_MIN_CAR:
        return SolvencyClass.MODERATE
    if car >= WEAK_MIN_CAR:
        return SolvencyClass.WEAK
    return SolvencyClass.INSOLVENCY


@dataclass(frozen=True)
class CompanyRecord:
    """One insurer-year row.

    ``company_id`` and ``year`` are both present for real rows and both None
    for synthetic rows produced by oversampling. ``values`` always carries
    all eleven ratios in ``ATTRIBUTE_NAMES`` order; the active subset is a
    property of the containing :class:`Dataset`, not of the record.
    """

    company_id: str | None
    year: int | None
    tca: float | None
    tcr: float | None
    car: float
    values: tuple[float, ...]
    label: SolvencyClass | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "car", float(self.car))
        if (self.company_id is None) != (self.year is None):
            raise ValueError("company_id and year must be given together")
        if len(self.values) != len(ATTRIBUTE_NAMES):
            raise ValueError(f"expected {len(ATTRIBUTE_NAMES)} attribute values, got {len(self.values)}")
        for name, v in zip(ATTRIBUTE_NAMES, self.values):
            if not math.isfinite(v):
                raise ValueError(f"attribute {name} is not finite: {v!r}")
        if not math.isfinite(self.car):
            raise ValueError(f"car is not finite: {self.car!r}")
        if (self.tca is None) != (self.tcr is None):
            raise ValueError("tca and tcr must be given together")
        if self.tca is not None and self.tcr is not None:
            object.__setattr__(self, "tca", float(self.tca))
            object.__setattr__(self, "tcr", float(self.tcr))
            if self.tca < 0:
                raise ValueError(f"tca must be >= 0, got {self.tca}")
            if self.tcr <= 0:
                raise ValueError(f"tcr must be > 0, got {self.tcr}")
            implied = 100.0 * self.tca / self.tcr
            if not math.isclose(self.car, implied, rel_tol=1e-9, abs_tol=1e-12):
                raise ValueError(f"car {self.car} disagrees with 100*tca/tcr = {implied}")

    @property
    def is_synthetic(self) -> bool:
        return self.company_id is None

    def value(self, attribute: str) -> float:
        return self.values[attribute_column(attribute)]


def attribute_column(attribute: str) -> int:
    """Position of a named attribute in ``ATTRIBUTE_NAMES`` order."""
    if attribute not in _ATTR_INDEX:
        raise ValueError(f"unknown attribute {attribute!r}")
    return _ATTR_INDEX[attribute]


@dataclass(frozen=True)
class Dataset:
    """Ordered records plus the active attribute schema.

    The schema is an ordered subset of V1..V11; records always carry all
    eleven values, so narrowing the schema never touches the records.
    """

    records: tuple[CompanyRecord, ...]
    schema: tuple[str, ...] = ATTRIBUTE_NAMES

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "schema", tuple(self.schema))
        if not self.schema:
            raise ValueError("schema must name at least one attribute")
        seen: set[str] = set()
        for name in self.schema:
            if name not in _ATTR_INDEX:
                raise ValueError(f"unknown attribute {name!r} in schema")
            if name in seen:
                raise ValueError(f"duplicate attribute {name!r} in schema")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.records)

    def matrix(self) -> np.ndarray:
        """Record attribute values as a float array, schema order, shape (n, k)."""
        cols = [_ATTR_INDEX[a] for a in self.schema]
        if not self.records:
            return np.empty((0, len(cols)), dtype=float)
        return np.array([[r.values[c] for c in cols] for r in self.records], dtype=float)

    def label_indices(self) -> np.ndarray:
        """Class indices (0..3 in alphabet order); raises on unlabeled records."""
        out = np.empty(len(self.records), dtype=np.int64)
        for i, r in enumerate(self.records):
            if r.label is None:
                raise ValueError(f"record {i} is unlabeled")
            out[i] = r.label.value
        return out

    def with_schema(self, schema: Sequence[str]) -> "Dataset":
        return Dataset(self.records, tuple(schema))


def class_distribution(ds: Dataset) -> tuple[int, int, int, int]:
    """Per-class record counts in alphabet order; requires a labeled dataset."""
    return tuple(np.bincount(ds.label_indices(), minlength=N_CLASSES).tolist())


def _sum_in_order(values) -> float:
    """Sum floats left to right, one rounding per addition, as ``sum`` did before Python 3.12.

    3.12's ``sum`` is compensated and np.sum is pairwise; either can move a mean
    that decides output. Adding 0.0 maps a -0.0 total to 0.0, as ``sum`` does.
    """
    return float(np.add.accumulate(np.asarray(values, dtype=float))[-1]) + 0.0


def _round_half_up(x: float) -> int:
    # round() would take halves to even, which is surprising for sizing draws
    return int(math.floor(x + 0.5))


def stratified_split(
    ds: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Per-class random split preserving input order on both sides.

    Each class contributes round(train_fraction * n_c) records (half rounds
    up) to the training side. The two sides partition the input exactly and
    are deterministic for a given seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    y = ds.label_indices()
    rng = np.random.default_rng(seed)
    in_train = np.zeros(len(y), dtype=bool)
    for c in range(N_CLASSES):
        idx = np.flatnonzero(y == c)
        n_train = min(len(idx), max(0, _round_half_up(train_fraction * len(idx))))
        in_train[idx[rng.permutation(len(idx))[:n_train]]] = True
    train = tuple(r for r, t in zip(ds.records, in_train) if t)
    test = tuple(r for r, t in zip(ds.records, in_train) if not t)
    return Dataset(train, ds.schema), Dataset(test, ds.schema)


class CsvFormatError(ValueError):
    """Malformed dataset CSV; carries the 1-based row (header is row 1) and column."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where = f"row {row}"
            if column is not None:
                where += f", column {column}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")


def _open_text(source) -> IO[str]:
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data)
    return open(Path(source), "r", encoding="utf-8", newline="")


def _cell_float(cell: str, row: int, column: str, required: bool) -> float | None:
    cell = cell.strip()
    if cell == "":
        if required:
            raise CsvFormatError("missing value", row=row, column=column)
        return None
    try:
        v = float(cell)
    except ValueError:
        raise CsvFormatError(f"non-numeric value {cell!r}", row=row, column=column) from None
    if not math.isfinite(v):
        raise CsvFormatError(f"non-finite value {cell!r}", row=row, column=column)
    return v


def load_csv(source, expect_labels: bool = False, allow_duplicates: bool = False) -> Dataset:
    """Read the dataset CSV format.

    Header (exact names): company_id,year,tca,tcr,car,V1..V11 and optionally
    class. Every row must supply car or the tca/tcr pair; car is recomputed
    from tca/tcr when blank. Rows with blank company_id and year are
    synthetic. With ``expect_labels`` set and no class column, labels are
    derived from the CAR bands. Duplicate (company_id, year) pairs are
    rejected unless ``allow_duplicates`` is set, as sampling with
    replacement legitimately repeats rows.

    Raises :class:`CsvFormatError` naming the offending row and column.
    """
    rows: list[list[str]] = []
    try:
        with _open_text(source) as fh:
            for cells in csv.reader(fh):
                rows.append(cells)
    except csv.Error as exc:  # such as a cell over the csv module's field size limit
        raise CsvFormatError(str(exc), row=len(rows) + 1) from None
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"not valid UTF-8: {exc.reason}") from None
    if not rows:
        raise CsvFormatError("empty file, expected a header row", row=1)

    header = [h.strip() for h in rows[0]]
    base = list(CSV_BASE_COLUMNS)
    if header == base:
        has_class = False
    elif header == base + ["class"]:
        has_class = True
    else:
        raise CsvFormatError(
            "header must be company_id,year,tca,tcr,car,V1..V11 optionally followed by class",
            row=1,
        )

    records: list[CompanyRecord] = []
    seen: set[tuple[str, int]] = set()
    for i, cells in enumerate(rows[1:]):
        row_no = i + 2
        if len(cells) != len(header):
            raise CsvFormatError(
                f"expected {len(header)} cells, found {len(cells)}", row=row_no
            )
        cells = [c.strip() for c in cells]
        company_id = cells[0] or None
        year_cell = cells[1]
        year: int | None
        if year_cell == "":
            year = None
        else:
            try:
                year = int(year_cell)
            except ValueError:
                raise CsvFormatError(
                    f"non-numeric year {year_cell!r}", row=row_no, column="year"
                ) from None
        tca = _cell_float(cells[2], row_no, "tca", required=False)
        tcr = _cell_float(cells[3], row_no, "tcr", required=False)
        car = _cell_float(cells[4], row_no, "car", required=False)
        if car is None:
            if tca is None or tcr is None:
                raise CsvFormatError(
                    "car is blank and tca/tcr are not both present", row=row_no, column="car"
                )
            if tcr == 0:
                raise CsvFormatError("tcr must be nonzero", row=row_no, column="tcr")
            car = 100.0 * tca / tcr
        values = tuple(
            _cell_float(cells[5 + j], row_no, name, required=True)
            for j, name in enumerate(ATTRIBUTE_NAMES)
        )
        label: SolvencyClass | None = None
        if has_class:
            cls_cell = cells[5 + len(ATTRIBUTE_NAMES)]
            if cls_cell == "":
                raise CsvFormatError("missing value", row=row_no, column="class")
            try:
                label = SolvencyClass.from_csv_name(cls_cell)
            except ValueError as exc:
                raise CsvFormatError(str(exc), row=row_no, column="class") from None
        elif expect_labels:
            label = label_from_car(car)
        try:
            record = CompanyRecord(company_id, year, tca, tcr, car, values, label)
        except ValueError as exc:
            raise CsvFormatError(str(exc), row=row_no) from None
        if not record.is_synthetic and not allow_duplicates:
            key = (record.company_id, record.year)
            if key in seen:
                raise CsvFormatError(
                    f"duplicate company_id/year pair {key!r}", row=row_no
                )
            seen.add(key)
        records.append(record)
    return Dataset(tuple(records), ATTRIBUTE_NAMES)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(ds: Dataset, dest) -> None:
    """Write the dataset CSV; the inverse of :func:`load_csv` on content.

    All eleven value columns are always written regardless of the active
    schema. The class column is written only for fully labeled datasets.
    """
    labels = [r.label for r in ds.records]
    with_class = all(l is not None for l in labels)
    if not with_class and any(l is not None for l in labels):
        raise ValueError("cannot write a partially labeled dataset")

    own = not hasattr(dest, "write")
    fh = open(Path(dest), "w", encoding="utf-8", newline="") if own else dest
    try:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(CSV_BASE_COLUMNS) + (["class"] if with_class else [])
        writer.writerow(header)
        for r in ds.records:
            row = [
                _fmt(r.company_id),
                _fmt(r.year),
                _fmt(r.tca),
                _fmt(r.tcr),
                _fmt(r.car),
                *(_fmt(v) for v in r.values),
            ]
            if with_class:
                row.append(r.label.csv_name)
            writer.writerow(row)
    finally:
        if own:
            fh.close()
