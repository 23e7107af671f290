import io
import math
import re

import numpy as np
import pytest

from solvtree import (
    ATTRIBUTE_NAMES,
    GeneratorSpec,
    SolvencyClass,
    class_distribution,
    generate,
    label_from_car,
    write_csv,
)

from solvtree.datagen import _CAR_EDGES

from oracles import oracle_depth_limited_correct


def test_marginals_exact():
    ds = generate(GeneratorSpec((44, 13, 16, 543), seed=0))
    assert class_distribution(ds) == (44, 13, 16, 543)


def test_labels_match_car_bands():
    ds = generate(GeneratorSpec((20, 20, 20, 20), seed=1))
    for r in ds.records:
        assert label_from_car(r.car) is r.label


def test_single_class():
    ds = generate(GeneratorSpec((0, 0, 0, 5), seed=2))
    assert len(ds) == 5
    assert all(r.label is SolvencyClass.STRONG and r.car >= 150.0 for r in ds.records)


def test_same_seed_byte_identical_csv():
    texts = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(generate(GeneratorSpec((10, 5, 5, 30), seed=42)), buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


def test_different_seed_differs():
    a = generate(GeneratorSpec((5, 5, 5, 5), seed=1))
    b = generate(GeneratorSpec((5, 5, 5, 5), seed=2))
    assert a.records != b.records


def test_schema_follows_n_attributes():
    ds = generate(GeneratorSpec((2, 2, 2, 2), n_attributes=4, seed=0))
    assert ds.schema == ATTRIBUTE_NAMES[:4]
    # records still carry all eleven values for CSV round trips
    assert all(len(r.values) == 11 for r in ds.records)


def test_separation_six_is_exhaustively_separable():
    # the separability baseline behind the end-to-end accuracy floor
    ds = generate(GeneratorSpec((8, 4, 4, 12), separation=6.0, n_attributes=3, seed=3))
    rows = [tuple(r.value(a) for a in ds.schema) for r in ds.records]
    labels = [r.label.value for r in ds.records]
    assert oracle_depth_limited_correct(rows, labels, depth=2) == len(ds)


def _generate_per_record(spec):
    """Values and CAR as one ``rng.normal`` call with the class means and one ``rng.uniform`` per record."""
    rng = np.random.default_rng(spec.seed)
    means = np.zeros(len(ATTRIBUTE_NAMES))
    means[: math.ceil(spec.n_attributes / 2)] = 1.0
    values, car = [], []
    for cls, count in zip(SolvencyClass, spec.class_counts):
        for _ in range(count):
            values.append(rng.normal(means * cls.value * spec.separation, 1.0))
            car.append(rng.uniform(_CAR_EDGES[cls.value], _CAR_EDGES[cls.value + 1]))
    return np.reshape(values, (-1, len(ATTRIBUTE_NAMES))), np.array(car)


@pytest.mark.parametrize("n_attributes", [1, 6, 11])
@pytest.mark.parametrize("separation", [0.0, 1.0, 6.0])
@pytest.mark.parametrize("counts", [(7, 3, 5, 9), (4, 0, 2, 3)])
def test_draws_match_one_normal_call_per_record(n_attributes, separation, counts):
    spec = GeneratorSpec(counts, separation=separation, n_attributes=n_attributes, seed=11)
    ds = generate(spec)
    values, car = _generate_per_record(spec)
    assert ds.values.tobytes() == values.tobytes()
    assert ds.car.tobytes() == car.tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec((1, 2, 3), seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec((1, -2, 3, 4), seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec((1, 2, 3, 4), separation=-1.0)
    for separation in (float("nan"), float("inf"), 1e308):  # 1e308: the top class mean 3e308 overflows
        with pytest.raises(ValueError, match="separation"):
            GeneratorSpec((1, 2, 3, 4), separation=separation)
    assert GeneratorSpec((1, 2, 3, 4), separation=5e307).separation == 5e307
    with pytest.raises(ValueError):
        GeneratorSpec((1, 2, 3, 4), n_attributes=0)
    with pytest.raises(ValueError):
        GeneratorSpec((1, 2, 3, 4), n_attributes=12)


@pytest.mark.parametrize("value", ["2", True, None])
def test_separation_must_be_a_real_number(value):
    # refused naming the field: "2" ended in a TypeError and True was taken as 1
    with pytest.raises(ValueError, match=f"^separation must be a real number, got {re.escape(repr(value))}$"):
        GeneratorSpec((1, 1, 1, 1), separation=value)
    spec = GeneratorSpec((1, 1, 1, 1), separation=np.float32(2.0))
    assert type(spec.separation) is float
    assert np.array_equal(generate(spec).values, generate(GeneratorSpec((1, 1, 1, 1), separation=2.0)).values)


def test_integer_fields_are_checked_when_built():
    # refused when built, not inside generate, and counts are not truncated by int
    with pytest.raises(ValueError, match=r"^n_attributes must be an integer in \[1, 11\], got 2.5$"):
        GeneratorSpec((4, 4, 4, 4), n_attributes=2.5)
    with pytest.raises(ValueError, match=r"^class_counts must hold non-negative integers, got \(2.9, '3', 1, 1\)$"):
        GeneratorSpec((2.9, "3", 1, 1))
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        GeneratorSpec((1, 1, 1, 1), seed=1.5)
    spec = GeneratorSpec(np.array([1, 2, 3, 4]), n_attributes=np.int64(3), seed=np.uint32(7))
    assert spec.class_counts == (1, 2, 3, 4)
    assert len(generate(spec)) == 10
