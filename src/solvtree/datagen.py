"""Seeded synthetic insurer datasets with a tunable class-separation knob."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ATTRIBUTE_NAMES, CLASS_ALPHABET, MODERATE_MIN_CAR, N_CLASSES, STRONG_MIN_CAR, WEAK_MIN_CAR
from .dataset import Dataset, _check_int, _class_counts, _is_int, _real

# CAR draw ranges per band, between the band edges; the insolvency band is
# floored at 40 and the open-ended strong band capped at 300 so draws stay bounded.
_CAR_EDGES = (40.0, WEAK_MIN_CAR, MODERATE_MIN_CAR, STRONG_MIN_CAR, 300.0)
_CAR_BANDS = {cls: _CAR_EDGES[cls.value : cls.value + 2] for cls in CLASS_ALPHABET}


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape of a synthetic dataset: per-class sizes, separation, seed."""

    class_counts: tuple[int, int, int, int]
    separation: float = 6.0
    n_attributes: int = 11
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_counts", _class_counts("class_counts", self.class_counts))
        object.__setattr__(self, "separation", _real("separation", self.separation))
        if not (math.isfinite((N_CLASSES - 1) * self.separation) and self.separation >= 0):
            raise ValueError(f"separation must be >= 0 with a finite top class mean "
                             f"{N_CLASSES - 1} * separation, got {self.separation}")
        _check_int("seed", self.seed, 0)
        if not (_is_int(self.n_attributes) and 1 <= self.n_attributes <= len(ATTRIBUTE_NAMES)):
            raise ValueError(f"n_attributes must be an integer in [1, 11], got {self.n_attributes!r}")


def generate(spec: GeneratorSpec) -> Dataset:
    """Draw a labeled dataset with the requested class marginals.

    Attribute j of a class-c record comes from a unit-variance Gaussian.
    The first ceil(n_attributes / 2) attributes are informative: their class
    means sit ``separation`` standard deviations apart (mean = class index
    times separation). The remaining attributes, including the columns past
    ``n_attributes`` that keep CSV rows full width, are zero-mean noise.
    CAR is drawn uniformly inside the class band, so the derived label
    always matches the class that produced the record. Output is
    deterministic for a given spec: record by record, the generator draws
    eleven standard normals and then the CAR, and the class means are added
    to the whole value matrix afterwards, which gives the same floats as
    drawing each record with ``rng.normal(means, 1.0)``.
    """
    rng = np.random.default_rng(spec.seed)
    informative = math.ceil(spec.n_attributes / 2)
    y = np.repeat(np.arange(N_CLASSES), spec.class_counts)
    means = np.zeros((N_CLASSES, len(ATTRIBUTE_NAMES)))
    means[:, :informative] = np.arange(N_CLASSES)[:, None] * spec.separation
    bands = [_CAR_BANDS[c] for c in CLASS_ALPHABET]
    values = np.empty((len(y), len(ATTRIBUTE_NAMES)))
    car = np.empty(len(y))
    for i, c in enumerate(y.tolist()):
        values[i] = rng.standard_normal(len(ATTRIBUTE_NAMES))
        car[i] = rng.uniform(*bands[c])
    for rows, mean in zip(np.split(values, np.cumsum(spec.class_counts)[:-1]), means):
        rows += mean  # rng.normal computes mean + 1.0 * z, the same sum
    absent = np.full(len(y), np.nan)  # tca and tcr
    ids = list(map("C{:04d}".format, range(len(y))))
    years = (2000 + np.arange(len(y)) % 9).tolist()
    return Dataset._of(ATTRIBUTE_NAMES[: spec.n_attributes], ids, years, absent, absent, car, values, y)
