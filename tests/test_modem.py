"""Unit tests for symbol mapping, the modem chain and the prefix baseline."""

from dataclasses import replace

import numpy as np
import pytest

from afbm.modem import (
    AfbmModem,
    AfdmParams,
    ChirpPair,
    DaftDims,
    GridFrame,
    TimeSignal,
    WaveformParams,
    afdm_modulate,
    demap_symbols,
    despread,
    extract_grid,
    map_symbols,
    place_grid,
    spread,
)
from afbm.filterbank import prototype_filter
from afbm.transforms import apply_daft, apply_synthesis_adjoint
from oracles import (afdm_demodulate, afdm_demodulate_frame,
                     demap_symbols_dict, dense_transmit_matrix,
                     filter_bank_adjoint_add_at)


def random_frame(rng, params):
    bits = rng.integers(0, 2, params.data_per_frame * 2)
    return place_grid(map_symbols(bits, "QPSK"), params.dims.L, params.K)


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def test_qpsk_mapping_values():
    syms = map_symbols(np.array([0, 0, 1, 1, 0, 1, 1, 0]), "QPSK")
    expected = np.array([1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j]) / np.sqrt(2)
    assert np.allclose(syms, expected)


def test_qam16_gray_corners():
    syms = map_symbols(np.array([0, 0, 0, 0, 1, 0, 1, 0]), "QAM16")
    assert np.allclose(syms * np.sqrt(10), [-3 - 3j, 3 + 3j])


def test_qam16_unit_average_energy():
    bits = np.array([[b3, b2, b1, b0] for b3 in (0, 1) for b2 in (0, 1)
                     for b1 in (0, 1) for b0 in (0, 1)]).ravel()
    syms = map_symbols(bits, "QAM16")
    assert abs(np.mean(np.abs(syms) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("constellation", ["QPSK", "QAM16"])
def test_map_demap_round_trip(constellation):
    rng = np.random.default_rng(31)
    for _ in range(20):
        bits = rng.integers(0, 2, 64)
        syms = map_symbols(bits, constellation)
        assert np.array_equal(demap_symbols(syms, constellation), bits)


def test_demap_survives_noise_and_clipping():
    rng = np.random.default_rng(32)
    bits = rng.integers(0, 2, 400)
    syms = map_symbols(bits, "QAM16")
    noisy = syms + 0.01 * (rng.standard_normal(100) +
                           1j * rng.standard_normal(100))
    assert np.array_equal(demap_symbols(noisy, "QAM16"), bits)
    far = demap_symbols(10 * syms, "QAM16")
    assert set(np.unique(far)) <= {0, 1}


@pytest.mark.parametrize("constellation", ["QPSK", "QAM16"])
def test_demap_matches_dict_oracle(constellation):
    # every QAM16 level (+-1, +-3) and decision threshold (0, +-2), the
    # QPSK levels, signed zeros and points beyond the outer levels
    unit = np.sqrt(10) if constellation == "QAM16" else np.sqrt(2)
    axis = np.r_[np.array([-10, -4, -3, -2.5, -2, -1.5, -1, -0.5, 0.5, 1,
                           1.5, 2, 2.5, 3, 4, 10]) / unit,
                 np.arange(-3, 4, 2) / np.sqrt(10), -2 / np.sqrt(10),
                 2 / np.sqrt(10), 0.0, -0.0, 1e-300, -1e-300]
    syms = (axis[:, None] + 1j * axis[None, :]).ravel()
    assert np.array_equal(demap_symbols(syms, constellation),
                          demap_symbols_dict(syms, constellation))


@pytest.mark.parametrize("constellation", ["QPSK", "QAM16"])
def test_demap_batch_matches_each_column(constellation):
    rng = np.random.default_rng(37)
    bps = 4 if constellation == "QAM16" else 2
    bits = rng.integers(0, 2, (bps * 40, 6))
    syms = map_symbols(bits, constellation)
    syms = syms + 0.2 * (rng.standard_normal(syms.shape)
                         + 1j * rng.standard_normal(syms.shape))
    out = demap_symbols(syms, constellation)
    assert out.shape == bits.shape
    for b in range(6):
        assert np.array_equal(out[:, b],
                              demap_symbols_dict(syms[:, b], constellation))
    stacked = demap_symbols(syms.reshape(40, 2, 3), constellation)
    assert np.array_equal(stacked, out.reshape(bps * 40, 2, 3))


def test_mapping_validation():
    with pytest.raises(ValueError):
        map_symbols(np.array([0, 2]), "QPSK")
    with pytest.raises(ValueError):
        map_symbols(np.array([0, 1, 0]), "QAM16")  # not a multiple of 4
    with pytest.raises(ValueError):
        map_symbols(np.array([0, 1]), "PSK8")
    with pytest.raises(ValueError):
        demap_symbols(np.zeros(2, dtype=complex), "PSK8")


# ---------------------------------------------------------------------------
# grid placement
# ---------------------------------------------------------------------------

def test_place_grid_layout():
    d = np.array([1 + 1j, 2.0, 3j, 4.0])
    frame = place_grid(d, 8, 1)
    assert np.allclose(frame.A[:, 0], [1 + 1j, 2, 0, 0, 0, 0, 3j, 4])


def test_place_extract_round_trip():
    rng = np.random.default_rng(33)
    d = map_symbols(rng.integers(0, 2, 2 * 512), "QPSK")
    frame = place_grid(d, 128, 8)
    assert frame.A.shape == (128, 8)
    assert np.array_equal(extract_grid(frame), d)


def test_batched_map_place_modulate_match_single_frames(ref_params_frame):
    # trailing axes are batch: column b of every stage is frame b alone
    rng = np.random.default_rng(34)
    bits = rng.integers(0, 2, (ref_params_frame.data_per_frame * 2, 3))
    modem = AfbmModem(ref_params_frame)
    frames = place_grid(map_symbols(bits, "QPSK"), 128, 8)
    assert frames.A.shape == (128, 8, 3)
    signals = modem.modulate(frames).s
    assert signals.shape == (ref_params_frame.M, 3)
    for b in range(3):
        one = place_grid(map_symbols(bits[:, b], "QPSK"), 128, 8)
        assert np.array_equal(frames.A[..., b], one.A)
        assert np.array_equal(extract_grid(frames)[:, b], extract_grid(one))
        assert np.array_equal(signals[:, b], modem.modulate(one).s)


def test_place_grid_validation():
    with pytest.raises(ValueError):
        place_grid(np.zeros(5, dtype=complex), 8, 1)
    with pytest.raises(ValueError):
        GridFrame(np.ones((8, 1), dtype=complex))  # guards not zero


# ---------------------------------------------------------------------------
# waveform parameters
# ---------------------------------------------------------------------------

def test_waveform_params_derived_quantities(ref_params_frame):
    p = ref_params_frame
    assert p.M == 1280
    assert p.data_per_frame == 512
    assert p.sample_rate == 256 * 15e3


def test_waveform_params_validation(ref_dims, ref_chirps, hermite256):
    with pytest.raises(ValueError):
        WaveformParams(dims=ref_dims, K=0, chirps_pre=ref_chirps,
                       chirps_mod=ref_chirps, filter=hermite256)
    with pytest.raises(ValueError):
        WaveformParams(dims=ref_dims, K=1, chirps_pre=ref_chirps,
                       chirps_mod=ref_chirps,
                       filter=prototype_filter("HERMITE", 1.5, 128))
    with pytest.raises(ValueError):
        WaveformParams(dims=ref_dims, K=1, chirps_pre=ref_chirps,
                       chirps_mod=ref_chirps, filter=hermite256,
                       constellation="PSK8")
    with pytest.raises(ValueError):
        WaveformParams(dims=ref_dims, K=1, chirps_pre=ref_chirps,
                       chirps_mod=ref_chirps, filter=hermite256,
                       compensation="rx")


# ---------------------------------------------------------------------------
# transmit / receive chain
# ---------------------------------------------------------------------------

def test_modulate_output_length(ref_params_frame):
    rng = np.random.default_rng(34)
    sig = AfbmModem(ref_params_frame).modulate(
        random_frame(rng, ref_params_frame))
    assert isinstance(sig, TimeSignal)
    assert len(sig.s) == 1280
    assert sig.f_s == ref_params_frame.sample_rate


def test_modulate_zero_and_linearity(ref_params):
    rng = np.random.default_rng(35)
    modem = AfbmModem(ref_params)
    zero = GridFrame(np.zeros((128, 1), dtype=complex))
    assert np.all(modem.modulate(zero).s == 0)
    f1, f2 = random_frame(rng, ref_params), random_frame(rng, ref_params)
    mixed = GridFrame(0.7 * f1.A - 1.9j * f2.A)
    s = modem.modulate(mixed).s
    ref = 0.7 * modem.modulate(f1).s - 1.9j * modem.modulate(f2).s
    assert np.abs(s - ref).max() < 1e-10


@pytest.mark.parametrize("kind,overlap,L,P,N,K", [
    ("HERMITE", 1.5, 16, 24, 32, 1),
    ("HERMITE", 1.5, 16, 24, 32, 2),
    ("PHYDYAS", 4, 8, 16, 16, 3),
    ("RECT", 1, 8, 8, 8, 1),
])
def test_modulate_matches_dense_matrix(kind, overlap, L, P, N, K):
    params = WaveformParams(dims=DaftDims(L, P, N), K=K,
                            chirps_pre=ChirpPair(0.03, 0.01),
                            chirps_mod=ChirpPair(0.007, 0.0),
                            filter=prototype_filter(kind, overlap, N))
    G = dense_transmit_matrix(params)
    rng = np.random.default_rng(36)
    modem = AfbmModem(params)
    for _ in range(5):
        frame = random_frame(rng, params)
        fast = modem.modulate(frame).s
        assert np.abs(fast - G @ frame.A.flatten(order="F")).max() < 1e-10


def test_single_symbol_round_trip(ref_params):
    rng = np.random.default_rng(37)
    modem = AfbmModem(ref_params)
    worst = 0.0
    for _ in range(20):
        frame = random_frame(rng, ref_params)
        rx = modem.demodulate(modem.modulate(frame))
        worst = max(worst, np.abs(rx.A - frame.A).max())
    assert worst < 1e-12


def test_round_trip_with_tx_side_compensation(ref_dims, ref_chirps, hermite256):
    params = WaveformParams(dims=ref_dims, K=1, chirps_pre=ref_chirps,
                            chirps_mod=ref_chirps, filter=hermite256,
                            compensation="tx")
    rng = np.random.default_rng(38)
    modem = AfbmModem(params)
    frame = random_frame(rng, params)
    rx = modem.demodulate(modem.modulate(frame))
    assert np.abs(rx.A - frame.A).max() < 1e-8


def test_energy_is_preserved_single_symbol(ref_params):
    rng = np.random.default_rng(39)
    modem = AfbmModem(ref_params)
    for _ in range(5):
        frame = random_frame(rng, ref_params)
        ratio = (np.sum(np.abs(modem.modulate(frame).s) ** 2)
                 / np.sum(np.abs(frame.A) ** 2))
        assert abs(ratio - 1.0) < 1e-6


def test_overlapped_symbols_interfere(ref_dims, ref_chirps, hermite256):
    # successive symbols advance by half a block, so neighbouring pulses
    # overlap; per-symbol orthogonality does not extend across the hop and
    # a K > 1 frame round trip shows residual cross-talk.
    params = WaveformParams(dims=ref_dims, K=2, chirps_pre=ref_chirps,
                            chirps_mod=ref_chirps, filter=hermite256)
    rng = np.random.default_rng(40)
    modem = AfbmModem(params)
    frame = random_frame(rng, params)
    rx = modem.demodulate(modem.modulate(frame))
    err = np.abs(rx.A - frame.A).max()
    assert 1e-6 < err < 0.2


@pytest.mark.parametrize("kind,overlap,K", [("HERMITE", 1.5, 1),
                                             ("HERMITE", 1.5, 3),
                                             ("PHYDYAS", 4, 1),
                                             ("PHYDYAS", 4, 3)])
def test_batched_demodulate_is_bit_identical(kind, overlap, K):
    chirps = ChirpPair(0.02, 0.0)
    params = WaveformParams(dims=DaftDims(16, 24, 32), K=K, chirps_pre=chirps,
                            chirps_mod=chirps,
                            filter=prototype_filter(kind, overlap, 32))
    modem = AfbmModem(params)
    rng = np.random.default_rng(38)
    R = rng.standard_normal((params.M, 5)) + 1j * rng.standard_normal(
        (params.M, 5))
    A = modem.demodulate(TimeSignal(s=R)).A
    assert A.shape == (16, K, 5)
    assert np.array_equal(
        modem.demodulate(TimeSignal(s=np.asfortranarray(R))).A, A)
    for b in range(5):
        assert np.array_equal(A[..., b],
                              modem.demodulate(TimeSignal(s=R[:, b])).A)
        # the receive chain with the np.add.at analysis filter bank
        Z = filter_bank_adjoint_add_at(R[:, b], params.filter, K)
        Xt = apply_synthesis_adjoint(Z, params.dims, chirps)
        At = modem.b_rx[:, None] * apply_daft(Xt, chirps, adjoint=True)
        At[4:12] = 0
        assert np.array_equal(A[..., b], At)


PROTOTYPES = [("HERMITE", 1.5), ("PHYDYAS", 1), ("PHYDYAS", 2),
              ("PHYDYAS", 3), ("PHYDYAS", 4), ("RECT", 1)]
FLAT_FOLD = {("HERMITE", 1.5), ("PHYDYAS", 1), ("RECT", 1)}


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("case", range(30))
def test_chain_adjoints_and_round_trip_for_random_configs(case):
    # a seeded random valid (L, P, N, K, chirps, prototype); both chirp
    # pairs are drawn independently with c2 != 0
    rng = np.random.default_rng([47, case])
    kind, overlap = PROTOTYPES[case % len(PROTOTYPES)]
    N = int(rng.choice([8, 16, 32, 64]))
    L = 4 * int(rng.integers(1, N // 4 + 1))
    P = int(rng.choice(np.arange(L, N + 1, 2)))
    chirps = [ChirpPair(float(rng.uniform(0, 0.1)),
                        float(rng.uniform(0.001, 0.05))) for _ in range(2)]
    params = WaveformParams(dims=DaftDims(L, P, N), K=int(rng.integers(1, 4)),
                            chirps_pre=chirps[0], chirps_mod=chirps[1],
                            filter=prototype_filter(kind, overlap, N))
    X = crandn(rng, L, params.K, 2)
    r = crandn(rng, params.M, 2)
    tol = 1e-12 * np.linalg.norm(X) * np.linalg.norm(r)
    assert abs(np.vdot(spread(X, params), r)
               - np.vdot(X, despread(r, params))) < tol

    modem = AfbmModem(params)
    frame = place_grid(crandn(rng, L // 2 * params.K, 2), L, params.K)
    tol = 1e-12 * np.linalg.norm(frame.A) * np.linalg.norm(r)
    assert abs(np.vdot(modem.modulate(frame).s, r)
               - np.vdot(frame.A, modem.demodulate(TimeSignal(r)).A)) < tol

    if (kind, overlap) in FLAT_FOLD:
        frame = place_grid(crandn(rng, L // 2), L, 1)
        for compensation in ("split", "tx"):
            modem = AfbmModem(replace(params, K=1, compensation=compensation))
            back = modem.demodulate(modem.modulate(frame)).A
            assert np.abs(back - frame.A).max() < 1e-12


def test_demodulate_rejects_wrong_length(ref_params):
    with pytest.raises(ValueError):
        AfbmModem(ref_params).demodulate(
            TimeSignal(np.zeros(100, dtype=complex), ref_params.sample_rate))


# ---------------------------------------------------------------------------
# prefix-based baseline
# ---------------------------------------------------------------------------

def test_afdm_zero_chirps_is_plain_dft():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = afdm_modulate(x, ChirpPair(0.0, 0.0), 0)
    assert np.abs(out - np.fft.fft(x, norm="ortho")).max() < 1e-12


def test_afdm_round_trip():
    rng = np.random.default_rng(42)
    chirps = ChirpPair(3 / 256, 0.0)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    s = afdm_modulate(x, chirps, 5)
    assert len(s) == 133
    back = afdm_demodulate(s, chirps, 5)
    assert np.abs(back - x).max() < 1e-12


def test_afdm_prefix_is_phase_rotated_tail():
    rng = np.random.default_rng(43)
    chirps = ChirpPair(0.02, 0.0)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    s = afdm_modulate(x, chirps, 4)
    body = s[4:]
    assert np.abs(np.abs(s[:4]) - np.abs(body[-4:])).max() < 1e-12


def test_afdm_linearity_and_zero():
    chirps = ChirpPair(0.01, 0.005)
    assert np.all(afdm_modulate(np.zeros(8, dtype=complex), chirps, 2) == 0)
    rng = np.random.default_rng(44)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    lhs = afdm_modulate(2 * a - 1j * b, chirps, 2)
    rhs = 2 * afdm_modulate(a, chirps, 2) - 1j * afdm_modulate(b, chirps, 2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_afdm_frame_round_trip():
    rng = np.random.default_rng(45)
    chirps = ChirpPair(3 / 256, 0.0)
    X = rng.standard_normal((128, 4)) + 1j * rng.standard_normal((128, 4))
    s = afdm_modulate(X, chirps, 2).ravel(order="F")
    assert len(s) == (128 + 2) * 4
    back = afdm_demodulate_frame(s, 128, 4, chirps, 2)
    assert np.abs(back - X).max() < 1e-12


def test_afdm_modulate_frame_batch_matches_single_frames():
    rng = np.random.default_rng(46)
    chirps = ChirpPair(3 / 256, 0.0)
    X = rng.standard_normal((64, 4, 3)) + 1j * rng.standard_normal((64, 4, 3))
    symbols = afdm_modulate(X, chirps, 2)
    assert symbols.shape == (64 + 2, 4, 3)
    for b in range(3):
        for k in range(4):
            assert np.array_equal(symbols[:, k, b],
                                  afdm_modulate(X[:, k, b], chirps, 2))


def test_afdm_validation():
    with pytest.raises(ValueError):
        afdm_modulate(np.zeros(8, dtype=complex), ChirpPair(0.0, 0.0), 8)
    with pytest.raises(ValueError):
        afdm_demodulate(np.zeros(3, dtype=complex), ChirpPair(0.0, 0.0), 4)
    with pytest.raises(ValueError):
        AfdmParams(L_a=16, K=1, chirps=ChirpPair(0.0, 0.0), cpp_len=16)
    with pytest.raises(ValueError):
        AfdmParams(L_a=16, K=0, chirps=ChirpPair(0.0, 0.0), cpp_len=2)


def test_afdm_params_frame_length():
    p = AfdmParams(L_a=128, K=8, chirps=ChirpPair(3 / 256, 0.0), cpp_len=2)
    assert p.M == (128 + 2) * 8
    assert p.data_per_frame == 128 * 8
