"""Unit tests for the doubly-dispersive channel model and equalization."""

import tracemalloc
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
from afbm.cli import resolve_config
from afbm.filterbank import prototype_filter
from afbm.metrics import ber_experiment
from afbm.modem import AfdmParams, WaveformParams, spread
from afbm.transforms import ChirpPair, DaftDims
from oracles import (apply_channel, assemble_filter_matrix, build_channel,
                     daft_matrix, dense_receive_matrix, dense_transmit_matrix,
                     mmse_equalize, synthesis_matrix)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def channel_matrix(paths, M):
    """The matrix of ``apply_paths`` on M-sample blocks, column by column."""
    return apply_paths(paths, np.eye(M, dtype=complex))


def afbm_basis(params):
    """Time samples of each single-symbol subcarrier (M x L)."""
    return spread(np.eye(params.dims.L, dtype=complex)[:, None, :], params)


def small_params(kind="HERMITE", overlap=1.5, L=16, P=24, N=32, c1=0.02):
    chirps = ChirpPair(c1, 0.0)
    return WaveformParams(dims=DaftDims(L, P, N), K=1, chirps=chirps,
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
    # a gain that is not a finite number would turn every unit_power gain
    # to nan; a complex or non-numeric Doppler is refused as well
    for gain in (np.nan, np.inf, complex(1, np.nan), -np.inf * 1j, "x", None,
                 True, [1.0]):
        with pytest.raises(ValueError,
                           match="gain must be a finite complex number"):
            PathSpec(gain=gain, delay=0, doppler=0.0)
    for doppler in (np.nan, 1j, "x", False):
        with pytest.raises(ValueError, match="doppler must be a finite real"):
            PathSpec(gain=1.0, delay=0, doppler=doppler)
    for gain in (1, 0.5, 0.3 - 0.4j, np.float32(2), np.complex128(1j)):
        assert PathSpec(gain, 1, np.float64(-1.5)).gain == gain


def test_channel_spec_validation():
    # an empty path list, and a delay as long as the block (16 samples)
    block = np.zeros((16, 16), dtype=complex)
    baseline = AfdmParams(L_a=16, K=1, chirps=ChirpPair(0.0), cpp_len=0)
    for paths in ((), (PathSpec(1.0, 16, 0.0),)):
        with pytest.raises(ValueError):
            apply_paths(paths, block)
        with pytest.raises(ValueError):
            effective_channels(paths, *baseline.symbol_operands()[:3])


def test_channel_spec_normalization():
    norm = unit_power((PathSpec(3.0, 0, 0.0), PathSpec(4.0, 1, 1.0)))
    power = sum(abs(p.gain) ** 2 for p in norm)
    assert abs(power - 1.0) < 1e-12
    assert abs(norm[0].gain / norm[1].gain - 3 / 4) < 1e-12
    # a zero power is refused
    with pytest.raises(ValueError, match="positive and finite"):
        unit_power((PathSpec(0.0, 0, 0.0),))
    # a power past the float range runs: as the same gains times 2^-1000,
    # bit for bit, and as those gains at magnitude one
    for gains, unscaled in (((1e200,), (1.0,)), ((1e154, 1e154), (1.0, 1.0)),
                            ((complex(1e308, 1e308),), (1 + 1j,))):
        norm = [p.gain for p in unit_power(
            tuple(PathSpec(g, 0, 0.0) for g in gains))]
        assert norm == [p.gain for p in unit_power(
            tuple(PathSpec(g * 2.0 ** -1000, 0, 0.0) for g in gains))]
        assert np.abs(np.subtract(norm, [p.gain for p in unit_power(
            tuple(PathSpec(g, 0, 0.0) for g in unscaled))])).max() < 1e-15


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_unit_power_is_the_same_at_any_power_of_two(k):
    paths = resolve_config({}).paths
    scaled = tuple(replace(p, gain=p.gain * 2.0 ** k) for p in paths)
    assert unit_power(scaled) == unit_power(paths)


@pytest.mark.parametrize("g", [1e-160, 1e-170])
def test_unit_power_of_small_gains_is_one(g):
    # their squares lie near or past the float range's lower end
    norm = unit_power((PathSpec(g, 0, 0.0), PathSpec(g / 2, 1, 1.0)))
    assert abs(sum(abs(p.gain) ** 2 for p in norm) - 1) < 1e-15


def test_paths_that_cancel_are_refused():
    pair = (PathSpec(1.0, 0, 0.0), PathSpec(-1.0, 0, 0.0))
    with pytest.raises(ValueError, match="the paths cancel"):
        unit_power(pair)
    with pytest.raises(ValueError, match="the paths cancel"):
        ber_experiment(small_params(), pair, [0.0], 2, seed=0)
    # one more path keeps a channel; the power counts every listed path
    norm = unit_power(pair + (PathSpec(0.5, 1, 1.0),))
    assert abs(norm[2].gain - 0.5 / 1.5) < 1e-15


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


@pytest.mark.parametrize("waveform,seed", [
    (("HERMITE", 1.5, 16, 24, 32), 60),  # M = 48: N does not divide M
    (("PHYDYAS", 4, 8, 16, 16), 62),
    (("RECT", 1, 8, 8, 8), 63),
    ("afdm", 61),
], ids=["afbm", "afbm-phydyas4", "afbm-rect", "afdm"])
def test_effective_channels_match_the_dense_triple_product(waveform, seed):
    # delays anywhere in [0, M), so some reach past N and wrap the fold
    rng = np.random.default_rng(seed)
    longest = 0
    for _ in range(15):
        if waveform == "afdm":
            chirps = ChirpPair(float(rng.uniform(0, 0.05)), 0.01)
            B = daft_matrix(chirps, 24).conj().T
            operands = AfdmParams(L_a=24, K=1, chirps=chirps,
                                  cpp_len=0).symbol_operands()[:3]
        else:
            params = small_params(*waveform)
            B = (assemble_filter_matrix(params.filter, 1)
                 @ synthesis_matrix(params.dims, params.chirps))
            operands = params.symbol_operands()[:3]
        M = B.shape[0]
        paths, c1 = _random_channel(rng, M)
        longest = max([longest] + [p.delay for p in paths])
        total, refs = effective_channels(paths, *operands, c1)
        assert np.abs(total - B.conj().T @ build_channel(paths, M, c1) @ B
                      ).max() < 1e-12
        distinct = list(dict.fromkeys((p.delay, p.doppler) for p in paths))
        assert len(refs) == len(distinct)
        for (delay, doppler), ref in zip(distinct, refs):
            one = (PathSpec(1.0, delay, doppler),)
            dense = B.conj().T @ build_channel(one, M, c1) @ B
            assert np.abs(ref - dense).max() < 1e-12
    N = len(operands[0])
    assert M == N or longest >= N  # a delay past N where the window is longer


def test_effective_channels_sum_both_gains_of_a_repeated_path():
    params = small_params()
    B = afbm_basis(params)
    p = PathSpec(0.6, 3, -0.5)
    twin = (p, PathSpec(0.8j, 3, -0.5))
    total, refs = effective_channels(twin, *params.symbol_operands()[:3], 0.02)
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
                               *ref_params.symbol_operands()[:3])
    scale = np.real(He[0, 0])
    assert abs(scale - 1 / 256) < 1e-12
    assert np.abs(He - scale * np.eye(128)).max() < 1e-12


def test_effective_channel_is_linear_in_the_channel():
    operands = small_params().symbol_operands()[:3]
    paths = (PathSpec(1.0, 2, 0.5), PathSpec(0.3 - 0.2j, 5, -1.0))
    scaled = [PathSpec(1.7j * p.gain, p.delay, p.doppler) for p in paths]
    lhs, _ = effective_channels(scaled, *operands, 0.02)
    rhs, _ = effective_channels(paths, *operands, 0.02)
    assert np.abs(lhs - 1.7j * rhs).max() < 1e-12


@pytest.mark.parametrize("kind,overlap,L,P,N", [
    ("HERMITE", 1.5, 16, 24, 32),
    ("PHYDYAS", 4, 8, 16, 16),
    ("RECT", 1, 8, 8, 8),
])
def test_effective_channel_matches_dense_triple_product(kind, overlap, L, P, N):
    params = small_params(kind, overlap, L, P, N)
    B = (assemble_filter_matrix(params.filter, 1)
         @ synthesis_matrix(params.dims, params.chirps))
    rng = np.random.default_rng(56)
    paths, c1 = _random_channel(rng, params.M)
    He, _ = effective_channels(paths, *params.symbol_operands()[:3], c1)
    H = build_channel(paths, params.M, c1)
    assert np.abs(He - B.conj().T @ H @ B).max() < 1e-10


def test_effective_channels_peak_memory_at_fig4(ref_dims, ref_chirps,
                                               phydyas256):
    # the fig4 AFBM effective channels from the N-row columns on: 3,020,280
    # B; building the M-row basis B and each H_r B (1024 x 128, 2 MiB
    # each) with the dense Bᴴ(H_r B) took 7,603,904 B
    params = WaveformParams(dims=ref_dims, K=1, chirps=ref_chirps,
                            filter=phydyas256)
    paths = unit_power((PathSpec(1.0, 0, 0.0), PathSpec(0.7, 1, 1.0),
                        PathSpec(0.5, 2, -1.0)))
    effective_channels(paths, *params.symbol_operands()[:3], ref_chirps.c1)
    tracemalloc.start()
    try:
        effective_channels(paths, *params.symbol_operands()[:3], ref_chirps.c1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * 2 ** 20


def test_afdm_effective_channel_single_diagonal():
    chirps = ChirpPair(pick_chirp_params(2, 1.0, 0, 64).c1, 0.0)
    baseline = AfdmParams(L_a=64, K=1, chirps=chirps, cpp_len=0)
    He, _ = effective_channels((PathSpec(1.0, 2, 1.0),),
                               *baseline.symbol_operands()[:3], chirps.c1)
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
    c1 = ref_params.chirps.c1
    operands = ref_params.symbol_operands()[:3]
    for path in (PathSpec(1.0, 2, 0.0), PathSpec(1.0, 1, 1.5)):
        metric = path_separation_metric(
            *effective_channels((path,), *operands, c1))
        assert metric > 0.99


def test_path_separation_guard_width_absorbs_fractional_doppler(ref_params):
    # one cycle per frame is 2/3 cycle per block: energy leaks into the
    # neighbouring diagonals and a +-1 window recovers most of it
    c1 = ref_params.chirps.c1
    He, refs = effective_channels((PathSpec(1.0, 1, 1.0),),
                                  *ref_params.symbol_operands()[:3], c1)
    narrow = path_separation_metric(He, refs, xi=0)
    wide = path_separation_metric(He, refs, xi=1)
    assert narrow < 0.8
    assert wide > 0.95


def test_path_separation_duplicate_paths_share_reference(ref_params):
    c1 = ref_params.chirps.c1
    twin = (PathSpec(0.6, 1, 1.5), PathSpec(0.8j, 1, 1.5))
    He, refs = effective_channels(twin, *ref_params.symbol_operands()[:3], c1)
    assert len(refs) == 1
    assert path_separation_metric(He, refs) > 0.99


def test_path_separation_exact_for_integer_doppler_baseline():
    c1 = pick_chirp_params(2, 1.0, 0, 64).c1
    chirps = ChirpPair(c1, 0.0)
    paths = unit_power((PathSpec(1.0, 0, 0.0), PathSpec(0.7, 1, 1.0),
                        PathSpec(0.5, 2, -1.0)))
    baseline = AfdmParams(L_a=64, K=1, chirps=chirps, cpp_len=0)
    metric = path_separation_metric(
        *effective_channels(paths, *baseline.symbol_operands()[:3], c1))
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
    return params, (paths, params.chirps.c1)


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
