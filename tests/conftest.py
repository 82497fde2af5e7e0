"""Shared fixtures: standard maps and model parameter bundles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from magplan.magmap import MagMap, SyntheticMapSpec, generate_synthetic
from magplan.models import ModelSet, MotionNoise, SensorNoise

# Property tests share one profile: no wall-clock deadline (the sandbox is a
# single slow core) and a fixed derandomized order so runs are reproducible.
settings.register_profile("default", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("default")

# The parameter set used across the simulation tests: 10 Hz stepping,
# per-step motion sigmas of 1 cm / 1 cm / 0.15 deg, 150 nT magnetometer.
STD_MOTION = MotionNoise(0.01, 0.01, math.radians(0.15))
STD_SENSOR = SensorNoise(150.0)
STD_DT = 0.1


@pytest.fixture(scope="session")
def model_set() -> ModelSet:
    return ModelSet(STD_MOTION, STD_SENSOR, STD_DT)


@pytest.fixture(scope="session")
def peak_grid() -> MagMap:
    """Single 1000 nT Gaussian peak on a 25 uT background; start/goal scale map."""
    spec = SyntheticMapSpec(25000.0, (5.0, 3.0), 1000.0, (1.5, 1.5))
    return generate_synthetic(spec, (-2.0, -4.0), 0.1, 141, 101)


@pytest.fixture(scope="session")
def uniform_grid() -> MagMap:
    """Featureless 25 uT map, generous margins around the origin."""
    spec = SyntheticMapSpec(25000.0, (0.0, 0.0), 0.0, (1.0, 1.0))
    return generate_synthetic(spec, (-20.0, -20.0), 0.5, 81, 81)


RAMP_BASE = 25000.0
RAMP_SLOPE = 300.0  # nT per metre along x
RAMP_X0 = -2.0


@pytest.fixture(scope="session")
def ramp_grid() -> MagMap:
    """Field linear in x, flat in y: the one-dimensional localization bench."""
    xs = RAMP_X0 + 0.1 * np.arange(221)  # x in [-2, 20]
    values = np.tile(RAMP_BASE + RAMP_SLOPE * (xs - RAMP_X0), (41, 1))
    return MagMap((RAMP_X0, -2.0), 0.1, values)


def ramp_field(x: float, y: float) -> float:
    """Closed form of ramp_grid's field, for oracle implementations."""
    return RAMP_BASE + RAMP_SLOPE * (x - RAMP_X0)


def bit_equal(a, b) -> bool:
    """Same shape and the same float64 bit patterns (so -0.0 != 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Headings where a wrap can go wrong: signed zero, +/-pi, their neighbours
# inside the range and just outside it.
EDGE_HEADINGS = (
    -0.0, 0.0, math.pi, -math.pi,
    math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
    math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0),
)


# "４２" in fullwidth digits, which Python's int and float read as 42 and no
# magplan format accepts.
FULLWIDTH_42 = "４２"
# Its UTF-8 bytes spelled as a latin-1 string, for tests that write files as latin-1.
FULLWIDTH_42_LATIN1 = FULLWIDTH_42.encode("utf-8").decode("latin-1")

# Floats whose spelling a writer can get wrong: signed zero, the smallest
# subnormal, the largest float, nan and inf. Their repr round-trips.
ODD_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf)
