"""Shared fixtures: the reference configuration used across the suite."""

import numpy as np
import pytest

from afbm.filterbank import prototype_filter
from afbm.modem import WaveformParams
from afbm.transforms import ChirpPair, DaftDims


@pytest.fixture(scope="session")
def ref_dims():
    return DaftDims(L=128, P=192, N=256)


@pytest.fixture(scope="session")
def ref_chirps():
    return ChirpPair(c1=3 / 384, c2=0.0)


@pytest.fixture(scope="session")
def hermite256():
    return prototype_filter("HERMITE", 1.5, 256)


@pytest.fixture(scope="session")
def phydyas256():
    return prototype_filter("PHYDYAS", 4, 256)


@pytest.fixture(scope="session")
def ref_params(ref_dims, ref_chirps, hermite256):
    """Single-symbol reference waveform (Hermite prototype)."""
    return WaveformParams(dims=ref_dims, K=1, chirps_pre=ref_chirps,
                          chirps_mod=ref_chirps, filter=hermite256)


@pytest.fixture(scope="session")
def ref_params_frame(ref_dims, ref_chirps, hermite256):
    """Full eight-symbol frame used by the envelope/spectrum experiments."""
    return WaveformParams(dims=ref_dims, K=8, chirps_pre=ref_chirps,
                          chirps_mod=ref_chirps, filter=hermite256)


def random_unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)
