"""Unit tests for symbol mapping, the modem chain and the prefix baseline."""

from dataclasses import replace

import numpy as np
import pytest

from afbm.modem import (
    BITS_PER_SYMBOL,
    AfdmParams,
    WaveformParams,
    data_indices,
    demap_symbols,
    despread,
    place_grid,
    spread,
    symbol_table,
)
from afbm.filterbank import compensation_vector, prototype_filter
from afbm.transforms import (ChirpPair, DaftDims, apply_daft,
                             apply_synthesis_adjoint)
from oracles import (afdm_demodulate, afdm_demodulate_frame, afdm_symbol,
                     demap_symbols_dict, dense_transmit_matrix,
                     filter_bank_adjoint_add_at, map_symbols_dict,
                     symbol_bits)


def random_frame(rng, params):
    """The QPSK data symbols of one random frame."""
    return map_symbols_dict(rng.integers(0, 2, params.data_per_frame * 2),
                            "QPSK")


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def test_qpsk_mapping_values():
    bits = np.array([0, 0, 1, 1, 0, 1, 1, 0])
    expected = np.array([1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j]) / np.sqrt(2)
    assert np.allclose(symbol_table("QPSK")[[0, 3, 1, 2]], expected)
    assert np.allclose(map_symbols_dict(bits, "QPSK"), expected)


def test_qam16_gray_corners():
    bits = np.array([0, 0, 0, 0, 1, 0, 1, 0])
    for syms in (symbol_table("QAM16")[[0b0000, 0b1010]],
                 map_symbols_dict(bits, "QAM16")):
        assert np.allclose(syms * np.sqrt(10), [-3 - 3j, 3 + 3j])


def test_qam16_unit_average_energy():
    syms = symbol_table("QAM16")
    assert abs(np.mean(np.abs(syms) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("constellation", ["QPSK", "QAM16"])
def test_map_demap_round_trip(constellation):
    rng = np.random.default_rng(31)
    bps = BITS_PER_SYMBOL[constellation]
    assert np.array_equal(
        demap_symbols(symbol_table(constellation), constellation),
        np.arange(2 ** bps))
    for _ in range(20):
        bits = rng.integers(0, 2, 64)
        index = demap_symbols(map_symbols_dict(bits, constellation),
                              constellation)
        assert np.array_equal(symbol_bits(index, constellation), bits)
    # seeded batches: 2-D and 3-D, trailing axes of random length
    for ndim in (2, 3) * 10:
        shape = (bps * int(rng.integers(1, 40)),) + tuple(
            int(n) for n in rng.integers(1, 5, ndim - 1))
        bits = rng.integers(0, 2, shape)
        syms = np.apply_along_axis(map_symbols_dict, 0, bits, constellation)
        index = demap_symbols(syms, constellation)
        assert index.shape == (shape[0] // bps,) + shape[1:]
        assert np.array_equal(symbol_bits(index, constellation), bits)
        assert np.array_equal(symbol_table(constellation)[index], syms)


@pytest.mark.parametrize("constellation", ["QPSK", "QAM16"])
def test_symbol_table_is_the_map_of_each_index(constellation):
    bps = BITS_PER_SYMBOL[constellation]
    table = symbol_table(constellation)
    assert table.shape == (2 ** bps,)
    for index in range(2 ** bps):
        bits = [index >> k & 1 for k in range(bps - 1, -1, -1)]
        assert np.array_equal(table[index:index + 1].view(float),
                              map_symbols_dict(bits, constellation).view(float))
    # and as a batch of frames is mapped
    index = np.random.default_rng(49).integers(0, 2 ** bps, (64, 16))
    bits = (index[:, None] >> np.arange(bps - 1, -1, -1)[:, None]
            & 1).reshape(-1, 16)
    assert np.array_equal(symbol_bits(index, constellation), bits)
    assert np.array_equal(symbol_bits(index[:, 0], constellation), bits[:, 0])
    mapped = np.apply_along_axis(map_symbols_dict, 0, bits, constellation)
    assert np.array_equal(table[index].view(float),
                          np.ascontiguousarray(mapped).view(float))


def test_demap_survives_noise_and_clipping():
    rng = np.random.default_rng(32)
    bits = rng.integers(0, 2, 400)
    syms = map_symbols_dict(bits, "QAM16")
    noisy = syms + 0.01 * (rng.standard_normal(100) +
                           1j * rng.standard_normal(100))
    index = demap_symbols(noisy, "QAM16")
    assert np.array_equal(symbol_bits(index, "QAM16"), bits)
    # beyond the outer levels every point is decided to its corner
    far = demap_symbols(10 * syms, "QAM16")
    corner = 3 / np.sqrt(10) * (np.sign(syms.real) + 1j * np.sign(syms.imag))
    assert np.array_equal(far, demap_symbols(corner, "QAM16"))
    assert set(np.unique(far)) <= {0b0000, 0b0010, 0b1000, 0b1010}


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
    assert np.array_equal(
        symbol_bits(demap_symbols(syms, constellation), constellation),
        demap_symbols_dict(syms, constellation))


@pytest.mark.parametrize("constellation", ["QPSK", "QAM16"])
def test_demap_batch_matches_each_column(constellation):
    rng = np.random.default_rng(37)
    bps = BITS_PER_SYMBOL[constellation]
    bits = rng.integers(0, 2, (bps * 40, 6))
    syms = np.apply_along_axis(map_symbols_dict, 0, bits, constellation)
    syms = syms + 0.2 * (rng.standard_normal(syms.shape)
                         + 1j * rng.standard_normal(syms.shape))
    # points on the QAM16 decision boundaries and far outside the
    # constellation, where the level rank clips
    edges = np.array([-2, 0, 2, -40, 40]) / np.sqrt(10)
    syms[:25] = (edges[:, None] + 1j * edges[None, :]).reshape(-1, 1)
    sent = np.tensordot(2 ** np.arange(bps - 1, -1, -1),
                        bits.reshape(40, bps, 6), axes=(0, 1))
    out = demap_symbols(syms, constellation)
    assert out.shape == sent.shape
    # bit errors as the BER experiment counts them: set bits of the XOR
    errors = np.bitwise_count(out ^ sent).sum(axis=0)
    for b in range(6):
        expected = demap_symbols_dict(syms[:, b], constellation)
        assert np.array_equal(symbol_bits(out[:, b], constellation),
                              expected)
        assert errors[b] == np.sum(expected != bits[:, b])
    assert errors.all()
    stacked = demap_symbols(syms.reshape(40, 2, 3), constellation)
    assert np.array_equal(stacked, out.reshape(40, 2, 3))


def test_mapping_validation():
    with pytest.raises(ValueError):
        demap_symbols(np.zeros(2, dtype=complex), "PSK8")


# ---------------------------------------------------------------------------
# grid placement
# ---------------------------------------------------------------------------

def test_place_grid_layout():
    d = np.array([1 + 1j, 2.0, 3j, 4.0])
    A = place_grid(d, 8, 1)
    assert np.allclose(A[:, 0], [1 + 1j, 2, 0, 0, 0, 0, 3j, 4])


def test_place_grid_round_trip():
    rng = np.random.default_rng(33)
    d = map_symbols_dict(rng.integers(0, 2, 2 * 512), "QPSK")
    A = place_grid(d, 128, 8)
    assert A.shape == (128, 8)
    assert np.array_equal(A[data_indices(128)].ravel(order="F"), d)
    # seeded random (L, K, batch), batch of zero to two axes
    for _ in range(30):
        L, K = 4 * int(rng.integers(1, 33)), int(rng.integers(1, 9))
        batch = tuple(int(n) for n in rng.integers(1, 4,
                                                    rng.integers(0, 3)))
        d = crandn(rng, L // 2 * K, *batch)
        A = place_grid(d, L, K)
        assert A.shape == (L, K) + batch
        assert not np.any(A[L // 4:L - L // 4])
        back = A[data_indices(L)].reshape((-1,) + batch, order="F")
        assert np.array_equal(back, d)


def test_batched_map_place_modulate_match_single_frames(ref_params_frame):
    # trailing axes are batch: column b of every stage is frame b alone,
    # for either waveform's modulate
    rng = np.random.default_rng(34)
    baseline = AfdmParams(L_a=128, K=8, chirps=ChirpPair(3 / 256, 0.01),
                          cpp_len=2)
    for p in (ref_params_frame, baseline):
        bits = rng.integers(0, 2, (p.data_per_frame * 2, 3))
        symbols = np.apply_along_axis(map_symbols_dict, 0, bits, "QPSK")
        signals = p.modulate(symbols)
        assert signals.shape == (p.M, 3)
        for b in range(3):
            one = map_symbols_dict(bits[:, b], "QPSK")
            assert np.array_equal(symbols[:, b], one)
            assert np.array_equal(signals[:, b], p.modulate(one))
            if isinstance(p, WaveformParams):
                assert np.array_equal(place_grid(symbols, 128, 8)[..., b],
                                      place_grid(one, 128, 8))


def test_place_grid_validation(ref_params_frame):
    with pytest.raises(ValueError):
        place_grid(np.zeros(5, dtype=complex), 8, 1)
    # modulate takes the (L/2)K data symbols of a frame along axis 0 and
    # refuses arrays of another length, grids among them
    for shape in [(), (128,), (511,), (128, 8), (256, 2), (128, 8, 2)]:
        with pytest.raises(ValueError, match="symbols"):
            ref_params_frame.modulate(np.zeros(shape, dtype=complex))


# ---------------------------------------------------------------------------
# waveform parameters
# ---------------------------------------------------------------------------

def test_waveform_params_derived_quantities(ref_params_frame):
    p = ref_params_frame
    assert p.M == 1280
    assert p.data_per_frame == 512


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


def test_gains_are_computed_once_per_params(ref_params, monkeypatch):
    import afbm.modem as modem

    calls = []

    def counted(*args):
        calls.append(args)
        return compensation_vector(*args)

    monkeypatch.setattr(modem, "compensation_vector", counted)
    p = replace(ref_params)                       # a fresh instance
    first = p.gains
    frame = np.ones(p.data_per_frame, dtype=complex)
    p.demodulate(p.modulate(frame))
    assert p.gains is first and len(calls) == 1
    # a changed policy or filter makes a new instance with its own gains
    tx = replace(p, compensation="tx")
    assert np.array_equal(tx.gains[0], first[0] ** 2)
    assert np.all(tx.gains[1] == 1) and len(calls) == 2
    phydyas = replace(p, filter=prototype_filter("PHYDYAS", 4, 256))
    assert np.array_equal(phydyas.gains[0], compensation_vector(
        phydyas.data_columns(), phydyas.filter))
    assert not np.array_equal(phydyas.gains[0], first[0])


# ---------------------------------------------------------------------------
# transmit / receive chain
# ---------------------------------------------------------------------------

def test_modulate_output_length(ref_params_frame):
    rng = np.random.default_rng(34)
    sig = ref_params_frame.modulate(
        random_frame(rng, ref_params_frame))
    assert sig.shape == (1280,)


def test_modulate_zero_and_linearity(ref_params):
    rng = np.random.default_rng(35)
    p = ref_params
    assert np.all(p.modulate(np.zeros(64, dtype=complex)) == 0)
    f1, f2 = random_frame(rng, p), random_frame(rng, p)
    s = p.modulate(0.7 * f1 - 1.9j * f2)
    ref = 0.7 * p.modulate(f1) - 1.9j * p.modulate(f2)
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
    for _ in range(5):
        frame = random_frame(rng, params)
        fast = params.modulate(frame)
        assert np.abs(fast - G @ frame).max() < 1e-10


def test_single_symbol_round_trip(ref_params):
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(20):
        frame = random_frame(rng, ref_params)
        rx = ref_params.demodulate(ref_params.modulate(frame))
        worst = max(worst, np.abs(rx - frame).max())
    assert worst < 1e-12


def test_round_trip_with_tx_side_compensation(ref_dims, ref_chirps, hermite256):
    params = WaveformParams(dims=ref_dims, K=1, chirps_pre=ref_chirps,
                            chirps_mod=ref_chirps, filter=hermite256,
                            compensation="tx")
    rng = np.random.default_rng(38)
    frame = random_frame(rng, params)
    rx = params.demodulate(params.modulate(frame))
    assert np.abs(rx - frame).max() < 1e-8


def test_energy_is_preserved_single_symbol(ref_params):
    rng = np.random.default_rng(39)
    for _ in range(5):
        frame = random_frame(rng, ref_params)
        ratio = (np.sum(np.abs(ref_params.modulate(frame)) ** 2)
                 / np.sum(np.abs(frame) ** 2))
        assert abs(ratio - 1.0) < 1e-6


def test_overlapped_symbols_interfere(ref_dims, ref_chirps, hermite256):
    # successive symbols advance by half a block, so neighbouring pulses
    # overlap; per-symbol orthogonality does not extend across the hop and
    # a K > 1 frame round trip shows residual cross-talk.
    params = WaveformParams(dims=ref_dims, K=2, chirps_pre=ref_chirps,
                            chirps_mod=ref_chirps, filter=hermite256)
    rng = np.random.default_rng(40)
    frame = random_frame(rng, params)
    rx = params.demodulate(params.modulate(frame))
    err = np.abs(rx - frame).max()
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
    rng = np.random.default_rng(38)
    R = rng.standard_normal((params.M, 5)) + 1j * rng.standard_normal(
        (params.M, 5))
    d = params.demodulate(R)
    assert d.shape == (8 * K, 5)
    assert np.array_equal(params.demodulate(np.asfortranarray(R)), d)
    for b in range(5):
        assert np.array_equal(d[:, b], params.demodulate(R[:, b]))
        # the receive chain with the np.add.at analysis filter bank
        Z = filter_bank_adjoint_add_at(R[:, b], params.filter, K)
        Xt = apply_synthesis_adjoint(Z, params.dims, chirps)
        At = apply_daft(Xt, chirps, adjoint=True)[data_indices(16)]
        At = params.gains[1][:, None] * At
        assert np.array_equal(d[:, b], At.ravel(order="F"))


PROTOTYPES = [("HERMITE", 1.5), ("PHYDYAS", 1), ("PHYDYAS", 2),
              ("PHYDYAS", 3), ("PHYDYAS", 4), ("RECT", 1)]
FLAT_FOLD = {("HERMITE", 1.5), ("PHYDYAS", 1), ("RECT", 1)}


@pytest.mark.parametrize("case", range(30))
def test_chain_adjoints_and_round_trip_for_random_configs(case):
    # a seeded random valid (L, P, N, K, chirps, prototype); both chirp
    # pairs are drawn independently with c2 != 0, then cases 10-19 set
    # c2 = 0 in chirps_pre and cases 20-29 in chirps_mod (the collapsed
    # synthesis)
    rng = np.random.default_rng([47, case])
    kind, overlap = PROTOTYPES[case % len(PROTOTYPES)]
    N = int(rng.choice([8, 16, 32, 64]))
    L = 4 * int(rng.integers(1, N // 4 + 1))
    P = int(rng.choice(np.arange(L, N + 1, 2)))
    chirps = [ChirpPair(float(rng.uniform(0, 0.1)),
                        float(rng.uniform(0.001, 0.05))) for _ in range(2)]
    if case >= 10:
        chirps[case // 10 - 1] = replace(chirps[case // 10 - 1], c2=0.0)
    params = WaveformParams(dims=DaftDims(L, P, N), K=int(rng.integers(1, 4)),
                            chirps_pre=chirps[0], chirps_mod=chirps[1],
                            filter=prototype_filter(kind, overlap, N))
    X = crandn(rng, L, params.K, 2)
    r = crandn(rng, params.M, 2)
    tol = 1e-12 * np.linalg.norm(X) * np.linalg.norm(r)
    assert abs(np.vdot(spread(X, params), r)
               - np.vdot(X, despread(r, params))) < tol

    frame = crandn(rng, L // 2 * params.K, 2)
    tol = 1e-12 * np.linalg.norm(frame) * np.linalg.norm(r)
    assert abs(np.vdot(params.modulate(frame), r)
               - np.vdot(frame, params.demodulate(r))) < tol

    if (kind, overlap) in FLAT_FOLD:
        frame = crandn(rng, L // 2)
        for compensation in ("split", "tx"):
            p1 = replace(params, K=1, compensation=compensation)
            back = p1.demodulate(p1.modulate(frame))
            assert np.abs(back - frame).max() < 1e-12


def test_demodulate_rejects_wrong_length(ref_params):
    with pytest.raises(ValueError):
        ref_params.demodulate(np.zeros(100, dtype=complex))


# ---------------------------------------------------------------------------
# prefix-based baseline
# ---------------------------------------------------------------------------

def afdm(L_a, chirps, cpp_len, K=1):
    return AfdmParams(L_a=L_a, K=K, chirps=chirps, cpp_len=cpp_len)


def test_afdm_zero_chirps_is_plain_dft():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = afdm(32, ChirpPair(0.0, 0.0), 0).modulate(x)
    assert np.abs(out - np.fft.fft(x, norm="ortho")).max() < 1e-12


def test_afdm_round_trip():
    rng = np.random.default_rng(42)
    chirps = ChirpPair(3 / 256, 0.0)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    s = afdm(128, chirps, 5).modulate(x)
    assert len(s) == 133
    back = afdm_demodulate(s, chirps, 5)
    assert np.abs(back - x).max() < 1e-12


def test_afdm_prefix_is_phase_rotated_tail():
    rng = np.random.default_rng(43)
    chirps = ChirpPair(0.02, 0.0)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    s = afdm(16, chirps, 4).modulate(x)
    body = s[4:]
    assert np.abs(np.abs(s[:4]) - np.abs(body[-4:])).max() < 1e-12


def test_afdm_linearity_and_zero():
    p = afdm(8, ChirpPair(0.01, 0.005), 2)
    assert np.all(p.modulate(np.zeros(8, dtype=complex)) == 0)
    rng = np.random.default_rng(44)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    lhs = p.modulate(2 * a - 1j * b)
    rhs = 2 * p.modulate(a) - 1j * p.modulate(b)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_afdm_frame_round_trip():
    rng = np.random.default_rng(45)
    chirps = ChirpPair(3 / 256, 0.0)
    X = rng.standard_normal((128, 4)) + 1j * rng.standard_normal((128, 4))
    s = afdm(128, chirps, 2, K=4).modulate(X.ravel(order="F"))
    assert len(s) == (128 + 2) * 4
    back = afdm_demodulate_frame(s, 128, 4, chirps, 2)
    assert np.abs(back - X).max() < 1e-12


def test_afdm_modulate_frame_batch_matches_single_frames():
    # the K symbols of a frame, one after another, are each the one-symbol
    # oracle's prefixed symbol; trailing axes are batch
    rng = np.random.default_rng(46)
    chirps = ChirpPair(3 / 256, 0.0)
    X = rng.standard_normal((64, 4, 3)) + 1j * rng.standard_normal((64, 4, 3))
    p = afdm(64, chirps, 2, K=4)
    frames = p.modulate(X.reshape((256, 3), order="F"))
    assert frames.shape == (p.M, 3)
    for b in range(3):
        assert np.array_equal(frames[:, b], np.concatenate(
            [afdm_symbol(X[:, k, b], chirps, 2) for k in range(4)]))


def test_afdm_validation():
    with pytest.raises(ValueError):
        afdm(8, ChirpPair(0.0, 0.0), 2, K=2).modulate(
            np.zeros(8, dtype=complex))
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
