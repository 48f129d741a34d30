"""Unit tests for the doubly-dispersive channel model and equalization."""

import numpy as np
import pytest

from afbm.channel import (
    ChannelSpec,
    ChirpPair,
    PathSpec,
    TimeSignal,
    WaveformParams,
    afdm_effective_channel,
    build_channel,
    circular_diagonal_energy,
    data_restricted_channel,
    effective_channel,
    path_separation_metric,
    pick_chirp_params,
    single_path_references,
)
from afbm.filterbank import prototype_filter
from afbm.modem import AfbmModem, afdm_modulate
from afbm.transforms import DaftDims
from oracles import (apply_channel, assemble_filter_matrix, mmse_equalize,
                     synthesis_matrix)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def small_params(kind="HERMITE", overlap=1.5, L=16, P=24, N=32, c1=0.02):
    chirps = ChirpPair(c1, 0.0)
    return WaveformParams(dims=DaftDims(L, P, N), K=1, chirps_pre=chirps,
                          chirps_mod=chirps,
                          filter=prototype_filter(kind, overlap, N))


# ---------------------------------------------------------------------------
# chirp rate selection
# ---------------------------------------------------------------------------

def test_pick_chirp_params_reference_values():
    assert pick_chirp_params(2, 1.0, 0, 192) == ChirpPair(3 / 384, 0.0)
    assert pick_chirp_params(0, 0.0, 0, 192) == ChirpPair(1 / 384, 0.0)
    # guard margin enters both the feasibility check and the rate
    assert pick_chirp_params(2, 1.0, 1, 192) == ChirpPair(5 / 384, 0.0)


def test_pick_chirp_params_boundary():
    # 2(f+xi)(ell+1) + ell == P is still feasible; P-1 is not
    assert pick_chirp_params(6, 2.0, 0, 34).c1 == 5 / 68
    with pytest.raises(ValueError) as err:
        pick_chirp_params(6, 2.0, 0, 33)
    assert "34" in str(err.value) and "33" in str(err.value)


def test_pick_chirp_params_bruteforce_table():
    rng = np.random.default_rng(51)
    for _ in range(50):
        ell = int(rng.integers(0, 8))
        f = float(rng.integers(0, 4)) + float(rng.random() < 0.5) * 0.5
        xi = int(rng.integers(0, 2))
        P = int(rng.integers(2, 60))
        feasible = 2 * (f + xi) * (ell + 1) + ell <= P
        if feasible:
            got = pick_chirp_params(ell, f, xi, P)
            assert got.c1 == (2 * (np.ceil(f) + xi) + 1) / (2 * P)
            assert got.c2 == 0.0
        else:
            with pytest.raises(ValueError):
                pick_chirp_params(ell, f, xi, P)


def test_pick_chirp_params_validation():
    with pytest.raises(ValueError):
        pick_chirp_params(-1, 0.0, 0, 64)
    with pytest.raises(ValueError):
        pick_chirp_params(0, 0.0, 0, 0)


# ---------------------------------------------------------------------------
# path and channel construction
# ---------------------------------------------------------------------------

def test_path_spec_validation():
    with pytest.raises(ValueError):
        PathSpec(gain=1.0, delay=-1, doppler=0.0)
    with pytest.raises(ValueError):
        PathSpec(gain=1.0, delay=0.5, doppler=0.0)
    with pytest.raises(ValueError):
        PathSpec(gain=1.0, delay=0, doppler=np.inf)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(paths=(), M=16)
    with pytest.raises(ValueError):
        ChannelSpec(paths=(PathSpec(1.0, 20, 0.0),), M=16)


def test_channel_spec_normalization():
    spec = ChannelSpec(paths=(PathSpec(3.0, 0, 0.0), PathSpec(4.0, 1, 1.0)),
                       M=16)
    norm = spec.normalized()
    power = sum(abs(p.gain) ** 2 for p in norm.paths)
    assert abs(power - 1.0) < 1e-12
    assert abs(norm.paths[0].gain / norm.paths[1].gain - 3 / 4) < 1e-12


def test_identity_channels():
    spec = ChannelSpec(paths=(PathSpec(1.0, 0, 0.0),), M=12)
    assert np.abs(build_channel(spec) - np.eye(12)).max() < 1e-12
    # an integer Doppler equal to the block length wraps to no shift
    spec = ChannelSpec(paths=(PathSpec(1.0, 0, 12.0),), M=12)
    assert np.abs(build_channel(spec) - np.eye(12)).max() < 1e-12


def test_single_path_population():
    spec = ChannelSpec(paths=(PathSpec(0.8, 3, 1.0),), M=16)
    H = build_channel(spec)
    nz = np.abs(H) > 1e-12
    assert nz.sum() == 16
    assert np.abs(np.abs(H[nz]) - 0.8).max() < 1e-12
    rows, cols = np.nonzero(nz)
    assert np.array_equal(np.sort((rows - cols) % 16), np.full(16, 3))


def test_two_path_population_and_linearity():
    p1 = PathSpec(1.0, 0, 1.0)
    p2 = PathSpec(0.5j, 2, -1.0)
    H12 = build_channel(ChannelSpec(paths=(p1, p2), M=16))
    H1 = build_channel(ChannelSpec(paths=(p1,), M=16))
    H2 = build_channel(ChannelSpec(paths=(p2,), M=16))
    assert np.count_nonzero(np.abs(H12) > 1e-12) == 32
    assert np.abs(H12 - H1 - H2).max() < 1e-14


def test_circular_channel_matches_linear_convolution_over_prefix():
    # the per-path phase on the wrapped rows makes the circular matrix act
    # on the prefixed stream exactly like a linear delay-Doppler channel
    rng = np.random.default_rng(52)
    M, cpp = 64, 6
    c1 = pick_chirp_params(cpp, 2.0, 0, M).c1
    chirps = ChirpPair(c1, 0.0)
    paths = (PathSpec(0.9, 2, 1.0), PathSpec(0.5 - 0.2j, 5, -1.7))
    spec = ChannelSpec(paths=paths, M=M, c1=c1)
    H = build_channel(spec)
    d = crandn(rng, M)
    s = afdm_modulate(d, chirps, cpp)          # prefix + body stream
    y_lin = np.zeros(M + cpp, dtype=complex)
    n = np.arange(M + cpp)
    for p in paths:
        shifted = np.zeros(M + cpp, dtype=complex)
        shifted[p.delay:] = s[:len(s) - p.delay]
        y_lin += p.gain * np.exp(-2j * np.pi * p.doppler * (n - cpp) / M) * shifted
    assert np.abs(y_lin[cpp:] - H @ s[cpp:]).max() < 1e-13


# ---------------------------------------------------------------------------
# noise injection (the per-frame channel of the BER reference)
# ---------------------------------------------------------------------------

def test_apply_channel_noiseless_and_deterministic():
    rng = np.random.default_rng(53)
    H = build_channel(ChannelSpec(paths=(PathSpec(1.0, 1, 0.5),), M=32))
    s = TimeSignal(crandn(rng, 32), 1.0)
    clean = apply_channel(s, H, np.inf)
    assert np.abs(clean.s - H @ s.s).max() < 1e-14
    a = apply_channel(s, H, 10.0, seed=99)
    b = apply_channel(s, H, 10.0, seed=99)
    assert np.array_equal(a.s, b.s)
    c = apply_channel(s, H, 10.0, seed=100)
    assert np.abs(a.s - c.s).max() > 1e-6


def test_apply_channel_noise_power():
    rng = np.random.default_rng(54)
    M = 4096
    H = np.eye(M, dtype=complex)
    s = TimeSignal(crandn(rng, M) / np.sqrt(2), 1.0)
    noisy = apply_channel(s, H, 10.0, seed=1)
    target = np.mean(np.abs(s.s) ** 2) / 10.0
    measured = np.mean(np.abs(noisy.s - s.s) ** 2)
    assert abs(10 * np.log10(measured / target)) < 0.2


# ---------------------------------------------------------------------------
# effective channel
# ---------------------------------------------------------------------------

def test_effective_channel_requires_single_symbol(ref_params_frame):
    with pytest.raises(ValueError):
        effective_channel(np.eye(1280, dtype=complex), ref_params_frame)


def test_effective_channel_of_identity_is_scaled_identity(ref_params):
    He = effective_channel(np.eye(384, dtype=complex), ref_params)
    scale = np.real(He[0, 0])
    assert abs(scale - 1 / 256) < 1e-12
    assert np.abs(He - scale * np.eye(128)).max() < 1e-12


def test_effective_channel_is_linear_in_the_channel():
    params = small_params()
    rng = np.random.default_rng(55)
    H = crandn(rng, params.M, params.M)
    lhs = effective_channel(1.7j * H, params)
    rhs = 1.7j * effective_channel(H, params)
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("kind,overlap,L,P,N", [
    ("HERMITE", 1.5, 16, 24, 32),
    ("PHYDYAS", 4, 8, 16, 16),
    ("RECT", 1, 8, 8, 8),
])
def test_effective_channel_matches_dense_triple_product(kind, overlap, L, P, N):
    params = small_params(kind, overlap, L, P, N)
    B = (assemble_filter_matrix(params.filter, 1)
         @ synthesis_matrix(params.dims, params.chirps_mod))
    rng = np.random.default_rng(56)
    H = crandn(rng, params.M, params.M)
    He = effective_channel(H, params)
    assert np.abs(He - B.conj().T @ H @ B).max() < 1e-10


def test_afdm_effective_channel_single_diagonal():
    chirps = ChirpPair(pick_chirp_params(2, 1.0, 0, 64).c1, 0.0)
    spec = ChannelSpec(paths=(PathSpec(1.0, 2, 1.0),), M=64, c1=chirps.c1)
    He = afdm_effective_channel(build_channel(spec), chirps)
    energy = circular_diagonal_energy(He)
    top = np.argmax(energy)
    assert energy[top] / energy.sum() > 1 - 1e-12


# ---------------------------------------------------------------------------
# diagonal energy and path separation
# ---------------------------------------------------------------------------

def test_circular_diagonal_energy_hand_case():
    H = np.array([[1.0, 2.0, 0.0],
                  [0.0, 1.0, 2.0],
                  [2.0, 0.0, 1.0]])
    assert np.allclose(circular_diagonal_energy(H), [3.0, 12.0, 0.0])


def test_path_separation_single_path_concentrates(ref_params):
    # a Doppler of 1.5 cycles per 384-sample frame is exactly one cycle per
    # 256-sample block, so the effective channel stays on one diagonal
    c1 = ref_params.chirps_mod.c1
    make = lambda H: effective_channel(H, ref_params)
    for path in (PathSpec(1.0, 2, 0.0), PathSpec(1.0, 1, 1.5)):
        spec = ChannelSpec(paths=(path,), M=384, c1=c1)
        refs = single_path_references(spec, make)
        metric = path_separation_metric(make(build_channel(spec)), refs)
        assert metric > 0.99


def test_path_separation_guard_width_absorbs_fractional_doppler(ref_params):
    # one cycle per frame is 2/3 cycle per block: energy leaks into the
    # neighbouring diagonals and a +-1 window recovers most of it
    c1 = ref_params.chirps_mod.c1
    make = lambda H: effective_channel(H, ref_params)
    spec = ChannelSpec(paths=(PathSpec(1.0, 1, 1.0),), M=384, c1=c1)
    refs = single_path_references(spec, make)
    He = make(build_channel(spec))
    narrow = path_separation_metric(He, refs, xi=0)
    wide = path_separation_metric(He, refs, xi=1)
    assert narrow < 0.8
    assert wide > 0.95


def test_path_separation_duplicate_paths_share_reference(ref_params):
    c1 = ref_params.chirps_mod.c1
    twin = (PathSpec(0.6, 1, 1.5), PathSpec(0.8j, 1, 1.5))
    spec = ChannelSpec(paths=twin, M=384, c1=c1)
    refs = single_path_references(
        spec, lambda H: effective_channel(H, ref_params))
    assert len(refs) == 1
    metric = path_separation_metric(
        effective_channel(build_channel(spec), ref_params), refs)
    assert metric > 0.99


def test_path_separation_exact_for_integer_doppler_baseline():
    c1 = pick_chirp_params(2, 1.0, 0, 64).c1
    chirps = ChirpPair(c1, 0.0)
    spec = ChannelSpec(paths=(PathSpec(1.0, 0, 0.0), PathSpec(0.7, 1, 1.0),
                              PathSpec(0.5, 2, -1.0)), M=64, c1=c1).normalized()
    make = lambda H: afdm_effective_channel(H, chirps)
    refs = single_path_references(spec, make)
    metric = path_separation_metric(make(build_channel(spec)), refs)
    assert abs(metric - 1.0) < 1e-12


def test_path_separation_rejects_empty_channel():
    with pytest.raises(ValueError):
        path_separation_metric(np.zeros((8, 8)), [np.eye(8)])


# ---------------------------------------------------------------------------
# detector-domain channel and equalization
# ---------------------------------------------------------------------------

def test_data_restricted_channel_identity(ref_params):
    H_d = data_restricted_channel(np.eye(384, dtype=complex),
                                  AfbmModem(ref_params))
    assert H_d.shape == (64, 64)
    assert np.abs(H_d - np.eye(64)).max() < 1e-12


def test_data_restricted_channel_requires_single_symbol(ref_params_frame):
    with pytest.raises(ValueError):
        data_restricted_channel(np.eye(1280, dtype=complex),
                                AfbmModem(ref_params_frame))


def test_mmse_zero_noise_is_zero_forcing():
    rng = np.random.default_rng(57)
    H = crandn(rng, 16, 16) + 4 * np.eye(16)
    x = crandn(rng, 16)
    est = mmse_equalize(H @ x, H, 0.0)
    assert np.abs(est - x).max() < 1e-8


def test_mmse_beats_zero_forcing_in_noise():
    rng = np.random.default_rng(58)
    mmse_err = zf_err = 0.0
    for _ in range(200):
        H = crandn(rng, 8, 8)
        x = (1 - 2 * rng.integers(0, 2, 8) +
             1j * (1 - 2 * rng.integers(0, 2, 8))) / np.sqrt(2)
        noise = crandn(rng, 8) * np.sqrt(0.5)   # 0 dB per complex dim
        y = H @ x + noise
        mmse_err += np.sum(np.abs(mmse_equalize(y, H, 1.0) - x) ** 2)
        zf_err += np.sum(np.abs(mmse_equalize(y, H, 1e-9) - x) ** 2)
    assert mmse_err < zf_err


def test_mmse_dimension_mismatch():
    with pytest.raises(ValueError):
        mmse_equalize(np.zeros(4, dtype=complex),
                      np.eye(5, dtype=complex), 0.1)
