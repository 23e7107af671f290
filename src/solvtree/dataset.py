"""Insurer-year records: solvency bands, CSV ingestion, stratified partitioning.

The capital adequacy ratio (CAR, total capital available over total capital
required, in percent) drives a four-band solvency grading; each band carries
a supervisory action level. Records hold eleven financial ratios (V1..V11)
that downstream learners consume.
"""

from __future__ import annotations

import csv
import io
import math
import re
from array import array
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

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
CLASS_ALPHABET: tuple[SolvencyClass, ...] = tuple(SolvencyClass)

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
    return CLASS_ALPHABET[int(_car_bands(car))]


def _is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is neither here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, low: int) -> None:
    """Raise ValueError naming the field ``name`` unless ``value`` is an integer of at least ``low``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _real(name: str, value) -> float:
    """``value`` as a float; raises ValueError naming the field ``name`` unless it is a real number.

    Ints, floats and numpy numbers are; a bool or a str is not.
    """
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _class_counts(name: str, counts) -> tuple[int, ...]:
    """``counts`` as a tuple of non-negative ints, one per class; raises ValueError naming the field ``name``."""
    counts = tuple(counts) if isinstance(counts, Iterable) else ()
    if len(counts) != N_CLASSES:
        raise ValueError(f"{name} must have one entry per class")
    if not all(_is_int(c) and c >= 0 for c in counts):
        raise ValueError(f"{name} must hold non-negative integers, got {counts!r}")
    return tuple(map(int, counts))


def _car_bands(car):
    """Class indices of finite CARs (a float or an array), by the bands of :func:`label_from_car`."""
    return np.searchsorted([WEAK_MIN_CAR, MODERATE_MIN_CAR, STRONG_MIN_CAR], car, side="right")


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
        if len(self.values) != len(ATTRIBUTE_NAMES):
            raise ValueError(f"expected {len(ATTRIBUTE_NAMES)} attribute values, got {len(self.values)}")
        for name, v in zip(ATTRIBUTE_NAMES, self.values):
            if not math.isfinite(v):
                raise ValueError(f"attribute {name} is not finite: {v!r}")
        if not math.isfinite(self.car):
            raise ValueError(f"car is not finite: {self.car!r}")
        if self.tca is not None and self.tcr is not None:
            object.__setattr__(self, "tca", float(self.tca))
            object.__setattr__(self, "tcr", float(self.tcr))
        # the CSV reader reads back only a non-empty, stripped id and an int year
        cid = self.company_id
        if cid is not None and not (isinstance(cid, str) and cid and cid == cid.strip()):
            raise ValueError(f"company_id must be non-empty text without surrounding whitespace, got {cid!r}")
        if self.year is not None and not _is_int(self.year):
            raise ValueError(f"year must be an integer, got {self.year!r}")
        _check_row(self.company_id, self.year, self.tca, self.tcr, self.car)

    @property
    def is_synthetic(self) -> bool:
        return self.company_id is None

    def value(self, attribute: str) -> float:
        return self.values[attribute_column(attribute)]


def _check_row(company_id, year, tca, tcr, car: float) -> None:
    """Cross-column checks of one row, for records and CSV rows alike; raises ValueError.

    ``tca`` and ``tcr`` are None when absent, and ``car`` is finite.
    """
    if (company_id is None) != (year is None):
        raise ValueError("company_id and year must be given together")
    if (tca is None) != (tcr is None):
        raise ValueError("tca and tcr must be given together")
    if tca is not None:
        if tca < 0:
            raise ValueError(f"tca must be >= 0, got {tca}")
        if tcr <= 0:
            raise ValueError(f"tcr must be > 0, got {tcr}")
        implied = 100.0 * tca / tcr
        if not math.isclose(car, implied, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"car {car} disagrees with 100*tca/tcr = {implied}")


def attribute_column(attribute: str) -> int:
    """Position of a named attribute in ``ATTRIBUTE_NAMES`` order."""
    if attribute not in _ATTR_INDEX:
        raise ValueError(f"unknown attribute {attribute!r}")
    return _ATTR_INDEX[attribute]


def _check_schema(names: Sequence[str]) -> None:
    """Raise ValueError unless ``names`` are one or more distinct attributes of V1..V11."""
    if not names:
        raise ValueError("schema must name at least one attribute")
    for i, name in enumerate(names):  # at most twelve rounds: the twelfth known name repeats one
        if name not in _ATTR_INDEX:
            raise ValueError(f"unknown attribute {name!r} in schema")
        if name in names[:i]:
            raise ValueError(f"duplicate attribute {name!r} in schema")


#: Dataset columns, each as a 0-d array of its dtype that holds the entry of a row where it is absent.
_COLUMNS = dict(company_id=np.array(None), year=np.array(None), tca=np.array(math.nan), tcr=np.array(math.nan),
                car=np.array(math.nan), values=np.array(math.nan), y=np.array(-1, dtype=np.int64))


class Dataset:
    """Insurer-year rows held as columns, plus the active attribute schema.

    One entry per row in each column: ``company_id`` and ``year`` (None on
    synthetic rows), ``tca`` and ``tcr`` (NaN where absent), ``car``,
    ``values`` of shape (n, 11) with all eleven ratios in ``ATTRIBUTE_NAMES``
    order whatever the schema, and ``y``, the class index (-1 unlabeled).
    Columns are read-only and built by name: one left out, bar ``car`` and
    ``values``, is absent in every row. :meth:`take` is the one way to select
    rows. The schema, an ordered subset of V1..V11, never touches the rows.
    """

    def __init__(self, records: Iterable[CompanyRecord], schema: Sequence[str] = ATTRIBUTE_NAMES):
        records = tuple(records)
        self._set(
            schema, company_id=[r.company_id for r in records], year=[r.year for r in records],
            tca=[r.tca for r in records], tcr=[r.tcr for r in records], car=[r.car for r in records],
            values=np.reshape([r.values for r in records], (len(records), len(ATTRIBUTE_NAMES))),
            y=[-1 if r.label is None else r.label.value for r in records],
        )
        self.records = records

    @classmethod
    def _of(cls, schema: Sequence[str], **columns) -> "Dataset":
        return cls.__new__(cls)._set(schema, **columns)

    def _set(self, schema: Sequence[str], **columns) -> "Dataset":
        self.schema = tuple(schema)
        _check_schema(self.schema)
        for name, absent in _COLUMNS.items():  # an absent column is a view of one entry: it allocates no rows
            column = np.asarray(columns.get(name, np.broadcast_to(absent, len(columns["car"]))), absent.dtype)
            column.flags.writeable = False
            setattr(self, name, column)
        return self

    def _columns(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _COLUMNS}

    def _with(self, **changes) -> "Dataset":
        """This dataset with the schema or the columns named in ``changes`` in place of its own."""
        return Dataset._of(**{"schema": self.schema, **self._columns(), **changes})

    def _append(self, **columns) -> "Dataset":
        """These rows, then the rows of the named columns as :meth:`_of` reads them."""
        more = Dataset._of(self.schema, **columns)._columns()
        return self._with(**{name: np.concatenate((c, more[name])) for name, c in self._columns().items()})

    @cached_property
    def records(self) -> tuple[CompanyRecord, ...]:
        """The rows as :class:`CompanyRecord` objects, built on first use."""
        return tuple(
            CompanyRecord(company_id, year, None if math.isnan(tca) else tca,
                          None if math.isnan(tcr) else tcr, car, values,
                          None if y < 0 else CLASS_ALPHABET[y])
            for company_id, year, tca, tcr, car, values, y in zip(*(c.tolist() for c in self._columns().values()))
        )

    def __len__(self) -> int:
        return len(self.y)

    def take(self, rows) -> "Dataset":
        """The rows at ``rows``, an index array or a boolean mask, in that order."""
        return self._with(**{name: c[rows] for name, c in self._columns().items()})

    def matrix(self) -> np.ndarray:
        """Attribute values in schema order, shape (n, k): a column slice of ``values``."""
        return self.values.take([_ATTR_INDEX[a] for a in self.schema], axis=1)

    def label_indices(self) -> np.ndarray:
        """Class indices (0..3 in alphabet order); raises on unlabeled records."""
        unlabeled = np.flatnonzero(self.y < 0)
        if unlabeled.size:
            raise ValueError(f"record {unlabeled[0]} is unlabeled")
        return self.y.copy()

    def with_schema(self, schema: Sequence[str]) -> "Dataset":
        return self._with(schema=schema)


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


def _shuffled_classes(y: np.ndarray, seed: int) -> list[np.ndarray]:
    """Each class's row indices, in alphabet order, each shuffled by one permutation of one generator."""
    rng = np.random.default_rng(seed)
    return [idx[rng.permutation(len(idx))] for idx in (np.flatnonzero(y == c) for c in range(N_CLASSES))]


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
    in_train = np.zeros(len(ds), dtype=bool)
    for idx in _shuffled_classes(ds.label_indices(), seed):
        in_train[idx[: _round_half_up(train_fraction * len(idx))]] = True
    return ds.take(in_train), ds.take(~in_train)


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


@contextmanager
def _open_text(source) -> Iterator[IO[str]]:
    """A path or a file object as text that is decoded as it is read: a binary stream as
    UTF-8, a text stream as it is. A caller's stream is left open."""
    if not hasattr(source, "read"):
        with open(Path(source), "r", encoding="utf-8", newline="") as fh:
            yield fh
    elif isinstance(source.read(0), bytes):
        fh = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            yield fh
        finally:
            fh.detach()  # closing the wrapper would close the caller's stream
    else:
        yield source


def _csv_rows(source):
    """(1-based row number, cells) of each CSV row, as ``csv.reader`` yields it."""
    row = 0
    try:
        with _open_text(source) as fh:
            for row, cells in enumerate(csv.reader(fh), 1):
                yield row, cells
    except csv.Error as exc:  # such as a cell over the csv module's field size limit
        raise CsvFormatError(str(exc), row=row + 1) from None
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"not valid UTF-8: {exc.reason}") from None


def _plain(text: str) -> bool:
    """Whether a numeric cell has only ASCII characters and no ``_``.

    Python's ``int`` and ``float`` also read ``1_6_0``, full-width and other
    Unicode digits; the CSV schema does not.
    """
    return text.isascii() and "_" not in text


def _plain_number(convert):
    """``convert`` of a text that :func:`_plain` passes; any other raises ValueError."""
    def read(text: str):
        if not _plain(text):
            raise ValueError(f"invalid literal for {convert.__name__}(): {text!r}")
        return convert(text)

    read.__name__ = convert.__name__  # argparse names the type in its "invalid int value" message
    return read


_plain_int, _plain_float = _plain_number(int), _plain_number(float)


def _cell_float(cell: str, row: int, column: str, required: bool) -> float | None:
    cell = cell.strip()
    if cell == "":
        if required:
            raise CsvFormatError("missing value", row=row, column=column)
        return None
    try:
        v = _plain_float(cell)
    except ValueError:
        raise CsvFormatError(f"non-numeric value {cell!r}", row=row, column=column) from None
    if not math.isfinite(v):
        raise CsvFormatError(f"non-finite value {cell!r}", row=row, column=column)
    return v


#: Class index of each label cell as :func:`write_csv` spells it.
_LABELS = {cls.csv_name: cls.value for cls in CLASS_ALPHABET}

_N_CELLS = len(CSV_BASE_COLUMNS)  # without the class column


def _numbers(cells: Sequence[str], start: int, stop: int, row: int, required: bool = True) -> list:
    """The number cells ``cells[start:stop]``, each as :func:`_cell_float` reads it.

    A group as :func:`write_csv` writes it takes one plain-number check, one
    ``float`` pass and one finite check. Should any of them fail, as on a
    padded cell or on finite cells whose sum overflows, the cells are read
    one by one in column order: that raises the first fault or returns the
    same floats.
    """
    group = cells[start:stop]
    try:
        if _plain("".join(group)):
            numbers = list(map(float, group))
            if math.isfinite(sum(numbers)):
                return numbers
    except ValueError:
        pass
    return [_cell_float(cell, row, column, required) for cell, column in zip(group, CSV_BASE_COLUMNS[start:stop])]


def _row(cells: Sequence[str], row: int, has_class: bool):
    """``(company_id, year, tca, tcr, car), values, label`` of one CSV row.

    Cells are read in column order, the number cells a group at a time by
    :func:`_numbers`: tca and tcr when either is present, then car and
    V1..V11, or V1..V11 alone once a blank car is derived from tca/tcr.
    Raises CsvFormatError at the first fault.
    """
    if len(cells) != _N_CELLS + has_class:
        raise CsvFormatError(f"expected {_N_CELLS + has_class} cells, found {len(cells)}", row=row)
    company_id, year_cell = cells[0].strip() or None, cells[1].strip()
    try:
        year = _plain_int(year_cell) if year_cell else None
    except ValueError:
        raise CsvFormatError(f"non-numeric year {year_cell!r}", row=row, column="year") from None
    money = cells[2] or cells[3]
    tca, tcr = _numbers(cells, 2, 4, row, required=False) if money else (None, None)
    if cells[4].strip():
        values = _numbers(cells, 4, _N_CELLS, row)
        car = values.pop(0)
    else:
        if tca is None or tcr is None:
            raise CsvFormatError("car is blank and tca/tcr are not both present", row=row, column="car")
        if tcr == 0:
            raise CsvFormatError("tcr must be nonzero", row=row, column="tcr")
        car = 100.0 * tca / tcr
        if not math.isfinite(car):
            raise CsvFormatError(f"100*tca/tcr is not finite: {car!r}", row=row, column="car")
        values = _numbers(cells, 5, _N_CELLS, row)
    label = _LABELS.get(cells[-1]) if has_class else -1
    if label is None:
        cls_cell = cells[-1].strip()
        if cls_cell == "":
            raise CsvFormatError("missing value", row=row, column="class")
        try:
            label = SolvencyClass.from_csv_name(cls_cell).value
        except ValueError as exc:
            raise CsvFormatError(str(exc), row=row, column="class") from None
    if money or (company_id is None) != (year is None):
        try:
            _check_row(company_id, year, tca, tcr, car)
        except ValueError as exc:
            raise CsvFormatError(str(exc), row=row) from None
    return (company_id, year, tca, tcr, car), values, label


def load_csv(source, expect_labels: bool = False, allow_duplicates: bool = False) -> Dataset:
    """Read the dataset CSV format from a path or an open file, binary (read as UTF-8) or text.

    Header (exact names): company_id,year,tca,tcr,car,V1..V11 and optionally
    class. Every row must supply car or the tca/tcr pair; car is recomputed
    from tca/tcr when blank. Rows with blank company_id and year are
    synthetic. Numbers are ASCII, ``.``-decimal and without ``_``. With
    ``expect_labels`` set and no class column, labels are derived from the
    CAR bands. Duplicate (company_id, year) pairs are rejected unless
    ``allow_duplicates`` is set, as sampling with replacement legitimately
    repeats rows. Each row is read by :func:`_row` as the reader yields it,
    so the first fault in the file is the one reported: a group of number
    cells as :func:`write_csv` writes it is read in one pass, and any other
    group is read again cell by cell to find the fault or the padded value.

    Raises :class:`CsvFormatError` naming the offending row and column.
    """
    with closing(_csv_rows(source)) as rows:  # closed at a fault too, which lets go of a caller's stream
        _, header = next(rows, (1, None))
        if header is None:
            raise CsvFormatError("empty file, expected a header row", row=1)
        base = list(CSV_BASE_COLUMNS)
        if [h.strip() for h in header] not in (base, base + ["class"]):
            raise CsvFormatError(
                "header must be company_id,year,tca,tcr,car,V1..V11 optionally followed by class",
                row=1,
            )
        has_class = len(header) > len(base)

        heads, labels, values = [], [], array("d")  # heads: (company_id, year, tca, tcr, car) per row
        seen: set[tuple[str, int]] = set()
        for row_no, cells in rows:
            head, row_values, label = _row(cells, row_no, has_class)
            key = head[:2]  # (company_id, year)
            if key[0] is not None and not allow_duplicates:
                if key in seen:
                    raise CsvFormatError(f"duplicate company_id/year pair {key!r}", row=row_no)
                seen.add(key)
            heads.append(head)
            values.extend(row_values)
            labels.append(label)
    ids, years, tcas, tcrs, cars = zip(*heads) if heads else [()] * 5
    if expect_labels and not has_class:  # otherwise a classless row keeps the -1 that _row gives it
        labels = _car_bands(cars)
    return Dataset._of(ATTRIBUTE_NAMES, company_id=ids, year=years, tca=tcas, tcr=tcrs, car=cars,
                       values=np.array(values).reshape(-1, len(ATTRIBUTE_NAMES)), y=labels)


#: Rows formatted per block by :func:`write_csv`; bounds its temporaries.
_BLOCK_ROWS = 256

_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_text(text) -> str:
    """The CSV cell of a text field, ``str(text)``, empty for None.

    Quoted, with each ``"`` doubled, only when the text holds a comma, a
    ``"``, CR or LF. This is what ``csv.writer`` with ``lineterminator="\n"``
    writes on Python 3.13; 3.10 to 3.12 leave a CR unquoted, which their
    reader then rejects.
    """
    if text is None:
        return ""
    text = str(text)
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _money_cells(column: np.ndarray) -> list[str]:
    """``repr`` of each tca or tcr value, empty where NaN (absent)."""
    return ["" if cell == "nan" else cell for cell in map(repr, column.tolist())]


def write_csv(ds: Dataset, dest) -> None:
    """Write the dataset CSV; the inverse of :func:`load_csv` on content.

    All eleven value columns are always written regardless of the active
    schema. The class column is written only for fully labeled datasets.
    Rows are formatted a block at a time, column by column: floats by
    ``repr``, absent cells empty, and ``company_id`` by :func:`_csv_text`.
    """
    labeled = ds.y >= 0
    with_class = bool(labeled.all())
    if not with_class and labeled.any():
        raise ValueError("cannot write a partially labeled dataset")
    names = [cls.csv_name for cls in CLASS_ALPHABET]
    own = not hasattr(dest, "write")
    with open(Path(dest), "w", encoding="utf-8", newline="") if own else nullcontext(dest) as fh:
        fh.write(",".join(CSV_BASE_COLUMNS + (("class",) if with_class else ())) + "\n")
        for start in range(0, len(ds), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            columns = [
                list(map(_csv_text, ds.company_id[rows].tolist())),
                ["" if year is None else str(year) for year in ds.year[rows].tolist()],
                _money_cells(ds.tca[rows]),
                _money_cells(ds.tcr[rows]),
                list(map(repr, ds.car[rows].tolist())),
                *(list(map(repr, column)) for column in ds.values[rows].T.tolist()),
            ]
            if with_class:
                columns.append(list(map(names.__getitem__, ds.y[rows].tolist())))
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
