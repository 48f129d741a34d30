"""Unit tests for the doubly-dispersive channel model and equalization."""

from dataclasses import replace

import numpy as np
import pytest

from afbm.channel import (
    PathSpec,
    apply_paths,
    circular_diagonal_energy,
    effective_channels,
    path_separation_metric,
    pick_chirp_params,
    unit_power,
)
from afbm.filterbank import prototype_filter
from afbm.metrics import ber_experiment
from afbm.modem import AfdmParams, WaveformParams, spread
from afbm.transforms import ChirpPair, DaftDims, apply_daft
from oracles import (apply_channel, assemble_filter_matrix, build_channel,
                     dense_receive_matrix, dense_transmit_matrix,
                     mmse_equalize, synthesis_matrix)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def channel_matrix(paths, M):
    """The matrix of ``apply_paths`` on M-sample blocks, column by column."""
    return apply_paths(paths, np.eye(M, dtype=complex))


def afbm_basis(params):
    """Time samples of each single-symbol subcarrier (M x L)."""
    return spread(np.eye(params.dims.L, dtype=complex)[:, None, :], params)


def afdm_basis(chirps, n):
    """Columns of the baseline's adjoint affine transform (n x n)."""
    return apply_daft(np.eye(n, dtype=complex), chirps, adjoint=True)


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
    # an empty path list, and a delay as long as the block (16 samples)
    block = np.zeros((16, 16), dtype=complex)
    for paths in ((), (PathSpec(1.0, 16, 0.0),)):
        with pytest.raises(ValueError):
            apply_paths(paths, block)
        with pytest.raises(ValueError):
            effective_channels(paths, block)


def test_channel_spec_normalization():
    norm = unit_power((PathSpec(3.0, 0, 0.0), PathSpec(4.0, 1, 1.0)))
    power = sum(abs(p.gain) ** 2 for p in norm)
    assert abs(power - 1.0) < 1e-12
    assert abs(norm[0].gain / norm[1].gain - 3 / 4) < 1e-12


def test_identity_channels():
    H = channel_matrix((PathSpec(1.0, 0, 0.0),), 12)
    assert np.abs(H - np.eye(12)).max() < 1e-12
    # an integer Doppler equal to the block length wraps to no shift
    H = channel_matrix((PathSpec(1.0, 0, 12.0),), 12)
    assert np.abs(H - np.eye(12)).max() < 1e-12


def test_single_path_population():
    H = channel_matrix((PathSpec(0.8, 3, 1.0),), 16)
    nz = np.abs(H) > 1e-12
    assert nz.sum() == 16
    assert np.abs(np.abs(H[nz]) - 0.8).max() < 1e-12
    rows, cols = np.nonzero(nz)
    assert np.array_equal(np.sort((rows - cols) % 16), np.full(16, 3))


def test_two_path_population_and_linearity():
    p1 = PathSpec(1.0, 0, 1.0)
    p2 = PathSpec(0.5j, 2, -1.0)
    H12 = channel_matrix((p1, p2), 16)
    H1 = channel_matrix((p1,), 16)
    H2 = channel_matrix((p2,), 16)
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
    d = crandn(rng, M)
    s = AfdmParams(L_a=M, K=1, chirps=chirps, cpp_len=cpp).modulate(d)
    y_lin = np.zeros(M + cpp, dtype=complex)
    n = np.arange(M + cpp)
    for p in paths:
        shifted = np.zeros(M + cpp, dtype=complex)
        shifted[p.delay:] = s[:len(s) - p.delay]
        y_lin += p.gain * np.exp(-2j * np.pi * p.doppler * (n - cpp) / M) * shifted
    assert np.abs(y_lin[cpp:] - apply_paths(paths, s[cpp:], c1)).max() < 1e-13


def _random_channel(rng, M):
    """``(paths, c1)``: 1-6 paths anywhere in [0, M), fractional and
    negative Doppler, at times a repeated (delay, doppler) pair with
    another gain, and a nonzero prefix chirp rate."""
    paths = [PathSpec(complex(*rng.standard_normal(2)),
                      int(rng.integers(0, M)),
                      float(rng.choice([0.0, 1.0, -2.0, 0.5, -1.37])))
             for _ in range(int(rng.integers(1, 7)))]
    if rng.random() < 0.5:
        paths.append(PathSpec(0.3 - 0.4j, paths[0].delay, paths[0].doppler))
    return paths, float(rng.uniform(0, 0.05))


def test_apply_matches_the_dense_channel_matrix():
    rng = np.random.default_rng(59)
    for _ in range(40):
        M = int(rng.integers(2, 40))
        paths, c1 = _random_channel(rng, M)
        H = build_channel(paths, M, c1)
        s = crandn(rng, M)
        S = crandn(rng, M, 3, 2)
        assert np.abs(apply_paths(paths, s, c1) - H @ s).max() < 1e-12
        dense = np.einsum("ij,jkl->ikl", H, S)
        assert np.abs(apply_paths(paths, S, c1) - dense).max() < 1e-12


@pytest.mark.parametrize("waveform", ["afbm", "afdm"])
def test_effective_channels_match_the_dense_triple_product(waveform):
    rng = np.random.default_rng(60 if waveform == "afbm" else 61)
    params = small_params()
    for _ in range(15):
        if waveform == "afbm":
            B = afbm_basis(params)
        else:
            B = afdm_basis(ChirpPair(float(rng.uniform(0, 0.05)), 0.01), 24)
        M = B.shape[0]
        paths, c1 = _random_channel(rng, M)
        total, refs = effective_channels(paths, B, c1)
        assert np.abs(total - B.conj().T @ build_channel(paths, M, c1) @ B
                      ).max() < 1e-12
        distinct = list(dict.fromkeys((p.delay, p.doppler) for p in paths))
        assert len(refs) == len(distinct)
        for (delay, doppler), ref in zip(distinct, refs):
            one = (PathSpec(1.0, delay, doppler),)
            dense = B.conj().T @ build_channel(one, M, c1) @ B
            assert np.abs(ref - dense).max() < 1e-12


def test_effective_channels_sum_both_gains_of_a_repeated_path():
    params = small_params()
    B = afbm_basis(params)
    p = PathSpec(0.6, 3, -0.5)
    twin = (p, PathSpec(0.8j, 3, -0.5))
    total, refs = effective_channels(twin, B, 0.02)
    (ref,) = refs
    assert np.abs(total - (0.6 + 0.8j) * ref).max() < 1e-14
    merged = (PathSpec(0.6 + 0.8j, 3, -0.5),)
    dense = B.conj().T @ build_channel(merged, params.M, 0.02) @ B
    assert np.abs(total - dense).max() < 1e-12


# ---------------------------------------------------------------------------
# noise injection (the per-frame channel of the BER reference)
# ---------------------------------------------------------------------------

def test_apply_channel_noiseless_and_deterministic():
    rng = np.random.default_rng(53)
    H = build_channel((PathSpec(1.0, 1, 0.5),), 32)
    s = crandn(rng, 32)
    clean = apply_channel(s, H, np.inf)
    assert np.abs(clean - H @ s).max() < 1e-14
    a = apply_channel(s, H, 10.0, seed=99)
    b = apply_channel(s, H, 10.0, seed=99)
    assert np.array_equal(a, b)
    c = apply_channel(s, H, 10.0, seed=100)
    assert np.abs(a - c).max() > 1e-6


def test_apply_channel_noise_power():
    rng = np.random.default_rng(54)
    M = 4096
    H = np.eye(M, dtype=complex)
    s = crandn(rng, M) / np.sqrt(2)
    noisy = apply_channel(s, H, 10.0, seed=1)
    target = np.mean(np.abs(s) ** 2) / 10.0
    measured = np.mean(np.abs(noisy - s) ** 2)
    assert abs(10 * np.log10(measured / target)) < 0.2


# ---------------------------------------------------------------------------
# effective channel
# ---------------------------------------------------------------------------

def test_effective_channel_of_identity_is_scaled_identity(ref_params):
    He, _ = effective_channels((PathSpec(1.0, 0, 0.0),),
                               afbm_basis(ref_params))
    scale = np.real(He[0, 0])
    assert abs(scale - 1 / 256) < 1e-12
    assert np.abs(He - scale * np.eye(128)).max() < 1e-12


def test_effective_channel_is_linear_in_the_channel():
    params = small_params()
    B = afbm_basis(params)
    paths = (PathSpec(1.0, 2, 0.5), PathSpec(0.3 - 0.2j, 5, -1.0))
    scaled = [PathSpec(1.7j * p.gain, p.delay, p.doppler) for p in paths]
    lhs, _ = effective_channels(scaled, B, 0.02)
    rhs, _ = effective_channels(paths, B, 0.02)
    assert np.abs(lhs - 1.7j * rhs).max() < 1e-12


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
    paths, c1 = _random_channel(rng, params.M)
    He, _ = effective_channels(paths, afbm_basis(params), c1)
    H = build_channel(paths, params.M, c1)
    assert np.abs(He - B.conj().T @ H @ B).max() < 1e-10


def test_afdm_effective_channel_single_diagonal():
    chirps = ChirpPair(pick_chirp_params(2, 1.0, 0, 64).c1, 0.0)
    He, _ = effective_channels((PathSpec(1.0, 2, 1.0),),
                               afdm_basis(chirps, 64), chirps.c1)
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
    B = afbm_basis(ref_params)
    for path in (PathSpec(1.0, 2, 0.0), PathSpec(1.0, 1, 1.5)):
        metric = path_separation_metric(*effective_channels((path,), B, c1))
        assert metric > 0.99


def test_path_separation_guard_width_absorbs_fractional_doppler(ref_params):
    # one cycle per frame is 2/3 cycle per block: energy leaks into the
    # neighbouring diagonals and a +-1 window recovers most of it
    c1 = ref_params.chirps_mod.c1
    He, refs = effective_channels((PathSpec(1.0, 1, 1.0),),
                                  afbm_basis(ref_params), c1)
    narrow = path_separation_metric(He, refs, xi=0)
    wide = path_separation_metric(He, refs, xi=1)
    assert narrow < 0.8
    assert wide > 0.95


def test_path_separation_duplicate_paths_share_reference(ref_params):
    c1 = ref_params.chirps_mod.c1
    twin = (PathSpec(0.6, 1, 1.5), PathSpec(0.8j, 1, 1.5))
    He, refs = effective_channels(twin, afbm_basis(ref_params), c1)
    assert len(refs) == 1
    assert path_separation_metric(He, refs) > 0.99


def test_path_separation_exact_for_integer_doppler_baseline():
    c1 = pick_chirp_params(2, 1.0, 0, 64).c1
    chirps = ChirpPair(c1, 0.0)
    paths = unit_power((PathSpec(1.0, 0, 0.0), PathSpec(0.7, 1, 1.0),
                        PathSpec(0.5, 2, -1.0)))
    metric = path_separation_metric(
        *effective_channels(paths, afdm_basis(chirps, 64), c1))
    assert abs(metric - 1.0) < 1e-12


def test_path_separation_rejects_empty_channel():
    with pytest.raises(ValueError):
        path_separation_metric(np.zeros((8, 8)), [np.eye(8)])


# ---------------------------------------------------------------------------
# detector-domain channel and equalization
# ---------------------------------------------------------------------------

def data_basis(params):
    """``S``, the signals of the L/2 one-symbol frames of ``params`` that
    each carry one unit data symbol: the BER detector's transmit basis, its
    receive map being ``Sᴴ``."""
    return params.modulate(np.eye(params.dims.L // 2))


def test_data_restricted_channel_identity(ref_params):
    S = data_basis(ref_params)
    H_d = S.conj().T @ apply_paths((PathSpec(1.0, 0, 0.0),), S)
    assert H_d.shape == (64, 64)
    assert np.abs(H_d - np.eye(64)).max() < 1e-12
    # flat-fold prototype, split policy: white noise stays white
    assert np.abs(S.conj().T @ S - np.eye(64)).max() < 1e-12


def detector_case(filt, compensation, ref_params):
    """K = 1 ``params`` with Hermite 1.5 or PHYDYAS 4, and a two-path
    channel ``(paths, c1)`` with the prefix chirp rate of ``params``."""
    params = replace(ref_params, compensation=compensation,
                     filter=prototype_filter(filt, 1.5 if filt == "HERMITE"
                                             else 4, 256))
    paths = (PathSpec(1.0, 0, 0.0), PathSpec(0.7, 1, 1.0))
    return params, (paths, params.chirps_mod.c1)


@pytest.mark.parametrize("filt", ["HERMITE", "PHYDYAS"])
@pytest.mark.parametrize("compensation", ["split", "tx"])
def test_data_restricted_channel_noise_covariance_matches_dense(
        filt, compensation, ref_params):
    # the detector's model, H_d = Sᴴ H S and G = Sᴴ S, is the dense one;
    # the dense receive chain is Sᴴ up to the positive diagonal
    # b_rx / b_tx, which the whitened detector cancels
    params, (paths, c1) = detector_case(filt, compensation, ref_params)
    S = data_basis(params)
    T_d = dense_transmit_matrix(params)
    ref = T_d.conj().T @ T_d
    assert np.abs(S.conj().T @ S - ref).max() < 1e-12 * np.abs(ref).max()
    ref = T_d.conj().T @ build_channel(paths, params.M, c1) @ T_d
    H_d = S.conj().T @ apply_paths(paths, S, c1)
    assert np.abs(H_d - ref).max() < 1e-12 * np.abs(ref).max()
    b_tx, b_rx = params.gains
    assert np.all(b_rx / b_tx > 0)
    ref = dense_receive_matrix(params)
    R = (b_rx / b_tx)[:, None] * T_d.conj().T
    assert np.abs(R - ref).max() < 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("filt", ["HERMITE", "PHYDYAS"])
@pytest.mark.parametrize("compensation", ["split", "tx"])
def test_data_restricted_channel_model_is_the_chain(filt, compensation,
                                                    ref_params):
    # the BER detector runs every frame through HS and Sᴴ instead of the
    # transmit chain, the channel and the receive chain
    params, (paths, c1) = detector_case(filt, compensation, ref_params)
    S = data_basis(params)
    rng = np.random.default_rng(62)
    x = crandn(rng, params.dims.L // 2, 3)
    ref = apply_paths(paths, params.modulate(x), c1)
    HS = apply_paths(paths, S, c1)
    assert np.abs(HS @ x - ref).max() < 1e-12 * np.abs(ref).max()
    r = crandn(rng, params.M, 3)
    ref = params.demodulate(r)
    b_tx, b_rx = params.gains
    R = (b_rx / b_tx)[:, None] * S.conj().T
    assert np.abs(R @ r - ref).max() < 1e-12 * np.abs(ref).max()


def test_data_restricted_channel_requires_single_symbol(ref_params_frame):
    # the detector's model is that of one-symbol frames: the experiment
    # runs K = 1 frames whatever params.K
    paths = (PathSpec(1.0, 0, 0.0), PathSpec(0.7, 1, 1.0))
    one = replace(ref_params_frame, K=1)
    assert (ber_experiment(ref_params_frame, paths, [0.0, 6.0], 4, seed=2)
            == ber_experiment(one, paths, [0.0, 6.0], 4, seed=2))


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
