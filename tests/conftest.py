"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cdfmatch import (EmpiricalCdf, LesionSpec, MixtureComponent,
                      ScannerEffect, SynthSpec, Volume, build_cdf,
                      build_template, generate_synthetic, quantile)

# property tests draw the same examples on every run and keep no example
# database, so tier-1 results repeat and no .hypothesis/ directory appears
settings.register_profile("cdfmatch", derandomize=True, deadline=None, database=None)
settings.load_profile("cdfmatch")


def pytest_configure(config):
    # hypothesis also caches the constants it reads from source files under
    # its home directory when it collects tests, with or without a database:
    # keep that cache in the system's temporary directory, out of the checkout
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "cdfmatch-hypothesis")

# a T2-like base distribution: two tissue modes plus a heavy bright tail
T2_COMPONENTS = (
    MixtureComponent("gaussian", 0.45, 120.0, 30.0),
    MixtureComponent("gaussian", 0.45, 230.0, 50.0),
    MixtureComponent("lognormal", 0.10, 5.6, 0.5),
)


def t2_spec(seed: int, dims=(24, 24, 24), scanner: ScannerEffect | None = None,
            lesions: LesionSpec | None = None, channel: str = "T2") -> SynthSpec:
    return SynthSpec(components=T2_COMPONENTS, dims=dims,
                     scanner=scanner or ScannerEffect(),
                     lesions=lesions or LesionSpec(),
                     channel=channel, seed=seed)


def scanner_effect(i: int) -> ScannerEffect:
    """Deterministic multi-scanner variation: gain, offset, gamma, tail weight."""
    return ScannerEffect(gain=0.6 * 1.07 ** i,
                         offset=10.0 * (i % 5),
                         gamma=0.9 + 0.03 * (i % 8),
                         tail_weight=0.6 + 0.12 * (i % 7))


def scanner_cohort(n: int, dims=(24, 24, 24), seed0: int = 100) -> list[Volume]:
    return [generate_synthetic(t2_spec(seed0 + i, dims=dims,
                                       scanner=scanner_effect(i)))
            for i in range(n)]


def volume_from_values(values, channel: str = "", background: float = 0.0) -> Volume:
    values = np.asarray(values, dtype=np.float64).ravel()
    return Volume((values.size, 1, 1), values, channel=channel,
                  background_value=background)


def stored_volume(values, dtype, background: float = 0.0) -> Volume:
    """Volume holding ``values`` in ``dtype``, the way read_volume returns a
    file stored in that dtype."""
    values = np.asarray(values).astype(dtype).ravel()
    return Volume._owning((values.size, 1, 1), values, "", float(background))


def float32_read_rounding(table) -> float:
    """The rounding a float32 ``LutTable``'s read adds to the table bound,
    as its docstring derives it."""
    values, rise = np.abs(table.table.astype(np.float64)), table.rise.astype(np.float64)
    largest, steepest = values.max(), rise.max()

    def ulp(v):
        return float(np.spacing(np.float32(v)))

    drift = 0.0
    if (values < steepest).any():
        drift = 1.5 * ulp(largest) + 2.5 * ulp(2.0 * steepest)
    position = 4.001 * 2.0 ** -24 * ((np.arange(rise.size) + 2.0) * rise).max()
    return ulp(largest) + drift + 2.0 ** -24 * steepest + position


def cdf_from_samples(samples, grid_size: int = 1024) -> EmpiricalCdf:
    return build_cdf(volume_from_values(samples), exclude_background=False,
                     grid_size=grid_size)


def sample_from_cdf(cdf: EmpiricalCdf, n: int, seed: int) -> np.ndarray:
    """Inverse-transform sampling from a piecewise-linear CDF."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(1e-12, 1.0, n)
    return np.asarray(quantile(cdf, u))


@pytest.fixture(scope="session")
def template_12bit():
    """Template from 9 heterogeneous T2-like volumes, published 12-bit config."""
    cohort = scanner_cohort(9)
    return build_template(cohort)


@pytest.fixture(scope="session")
def template_unclipped():
    """Template from 3 heterogeneous T2-like volumes with no clip range."""
    return build_template(scanner_cohort(3, seed0=960), clip=None)
