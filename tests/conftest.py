"""Shared fixtures: small deterministic arrays in every regime the codecs see."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection battery (run in its own CI job: -m chaos)",
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(123456)


@pytest.fixture(scope="session")
def smooth_3d():
    """Smooth 3-D float32 field (the friendly case)."""
    x, y, z = np.meshgrid(*[np.linspace(0.0, 1.0, 20)] * 3, indexing="ij")
    return (np.sin(5 * x) * np.cos(4 * y) + z**2).astype(np.float32)


@pytest.fixture(scope="session")
def noisy_3d():
    """Rough 3-D float64 field (the adversarial case)."""
    r = np.random.default_rng(7)
    return r.standard_normal((18, 18, 18)) * 50.0 + 10.0


@pytest.fixture(scope="session")
def smooth_2d():
    x, y = np.meshgrid(np.linspace(0, 2, 33), np.linspace(0, 3, 47), indexing="ij")
    return (np.exp(-x) * np.sin(6 * y)).astype(np.float32)


@pytest.fixture(scope="session")
def walk_1d():
    r = np.random.default_rng(11)
    return np.cumsum(r.standard_normal(1500)).astype(np.float32)


@pytest.fixture(scope="session")
def field_4d():
    r = np.random.default_rng(13)
    base = r.standard_normal((3, 9, 10, 11))
    return np.cumsum(base, axis=3)


@pytest.fixture(
    params=["smooth_3d", "noisy_3d", "smooth_2d", "walk_1d", "field_4d"],
)
def any_field(request):
    """Every test array regime, parametrized."""
    return request.getfixturevalue(request.param)


EBLC_NAMES = ["sz2", "sz3", "qoz", "zfp", "szx"]
LOSSLESS_NAMES = ["zstd", "blosc", "fpzip", "fpc"]


@pytest.fixture(params=EBLC_NAMES)
def eblc_name(request):
    return request.param


@pytest.fixture(params=LOSSLESS_NAMES)
def lossless_name(request):
    return request.param
