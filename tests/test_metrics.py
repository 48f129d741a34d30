"""Unit tests for envelope, spectrum, orthogonality and link metrics."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from afbm.metrics import (
    BER_PASS,
    PAPR_OVERSAMPLE,
    SNR_LIMIT_DB,
    TRIAL_CHUNK,
    WELCH_BLOCK,
    CcdfCurve,
    PsdEstimate,
    _trial_frames,
    ber_experiment,
    oobe_floor,
    oobe_level,
    orthogonality_gram,
    papr,
    papr_ccdf,
    psd_welch,
    sir_orthogonality,
    spectrum_psd,
)
from afbm.channel import PathSpec, pick_chirp_params
from afbm.filterbank import prototype_filter
from afbm.modem import (AFDM_OOBE_OVERSAMPLE, BITS_PER_SYMBOL, AfdmParams,
                        WaveformParams, data_indices, symbol_table)
from afbm.transforms import ChirpPair, DaftDims
from oracles import (afdm_oobe_signal, assemble_filter_matrix,
                     ber_trial_errors, daft_matrix, dense_receive_matrix,
                     dense_transmit_matrix, map_symbols_dict,
                     papr_zero_padded, qfunc, random_afbm_frame,
                     random_afdm_frame, spectral_interpolate,
                     spectrum_signal, symbol_bits, synthesis_matrix,
                     welch_psd)


# ---------------------------------------------------------------------------
# envelope statistics
# ---------------------------------------------------------------------------

def test_spectral_interpolation_is_exact_for_tones():
    n = 64
    t = np.arange(n)
    x = np.exp(2j * np.pi * 3 * t / n) + 0.5 * np.exp(-2j * np.pi * 7 * t / n)
    up = spectral_interpolate(x, 4)
    tf = np.arange(4 * n) / 4
    ref = (np.exp(2j * np.pi * 3 * tf / n)
           + 0.5 * np.exp(-2j * np.pi * 7 * tf / n))
    assert np.abs(up - ref).max() < 1e-10


def test_spectral_interpolation_keeps_real_signals_real():
    rng = np.random.default_rng(61)
    x = rng.standard_normal(32)
    up = spectral_interpolate(x, 2)
    assert np.abs(up.imag).max() < 1e-12
    assert np.abs(up[::2] - x).max() < 1e-12


@pytest.mark.parametrize("n", [9, 15, 129])
@pytest.mark.parametrize("factor", [2, 4])
def test_spectral_interpolation_of_odd_lengths_keeps_the_top_bin(n, factor):
    # bin n // 2 of an odd n is a positive frequency, below Nyquist
    k = n // 2
    x = np.cos(2 * np.pi * k * np.arange(n) / n)
    up = spectral_interpolate(x, factor)
    ref = np.cos(2 * np.pi * k * np.arange(factor * n) / (factor * n))
    assert np.abs(up.imag).max() < 1e-12
    assert np.abs(up - ref).max() < 1e-12


def test_spectral_interpolation_takes_an_integral_float_factor():
    x = np.random.default_rng(66).standard_normal(16)
    assert np.array_equal(spectral_interpolate(x, 2.0),
                          spectral_interpolate(x, 2))


def test_spectral_interpolation_validation():
    x = np.ones(8)
    for factor in (0, 1, 2.5):
        with pytest.raises(ValueError, match="factor"):
            spectral_interpolate(x, factor)


def test_papr_reference_values():
    assert abs(papr(np.ones(64))) < 1e-9
    # an odd length has no Nyquist bin to split: the interpolated delta
    # keeps its unit peak and its energy, so the PAPR is that of the delta
    delta = np.zeros(63)
    delta[0] = 1.0
    assert abs(papr(delta) - 10 * np.log10(63)) < 1e-9
    with pytest.raises(ValueError):
        papr(np.zeros(16))


def test_papr_of_a_stack_matches_each_frame():
    rng = np.random.default_rng(63)
    stack = rng.standard_normal((96, 5)) + 1j * rng.standard_normal((96, 5))
    batch = papr(stack)
    assert batch.shape == (5,)
    assert np.array_equal(batch, [papr(stack[:, b]) for b in range(5)])
    # a C-ordered stack (frames strided) gives the same bits
    assert np.array_equal(papr(np.ascontiguousarray(stack)), batch)


def test_papr_rejects_a_stack_with_one_zero_energy_frame():
    stack = np.ones((16, 3), dtype=complex)
    stack[:, 1] = 0
    with pytest.raises(ValueError):
        papr(stack)


def test_papr_oversampling_never_reduces_the_peak():
    rng = np.random.default_rng(62)
    for _ in range(10):
        x = np.fft.ifft(map_symbols_dict(rng.integers(0, 2, 128), "QPSK"))
        power = np.abs(x) ** 2
        assert papr(x) >= 10 * np.log10(power.max() / power.mean()) - 1e-9


PAPR_LENGTHS = [63, 64, 131, 195, 1040, 1280]


def _papr_input(rng, n, kind):
    shape = (n, 5)
    x = rng.standard_normal(shape)
    return x if kind == "real" else x + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", PAPR_LENGTHS)
def test_papr_matches_the_zero_padded_oracle(n, kind):
    stack = _papr_input(np.random.default_rng(n), n, kind)
    expected = papr_zero_padded(stack)
    for s in (stack, np.asfortranarray(stack), np.ascontiguousarray(stack)):
        assert np.abs(papr(s) - expected).max() < 1e-12
    assert abs(papr(stack[:, 2]) - expected[2]) < 1e-12
    cube = stack[:, :4].reshape(n, 2, 2)
    assert papr(cube).shape == (2, 2)
    assert np.abs(papr(cube) - papr_zero_padded(cube)).max() < 1e-12


@pytest.mark.parametrize("n", PAPR_LENGTHS)
def test_papr_phases_interpolate_the_frame(n):
    F = PAPR_OVERSAMPLE
    rng = np.random.default_rng(n + 1)
    x = _papr_input(rng, n, "complex")[:, :2]
    x[n // 3, 1] = 100  # the peak, on a phase-0 sample
    z = np.empty(((F - 1) * n, 2), dtype=complex, order="F")
    env = np.empty(z.shape, order="F")
    ratio = papr(x, out=(z, env))
    assert ratio[1] == papr(x[:, 1])
    up = spectral_interpolate(x, F)
    for r in range(1, F):
        phase = z[(r - 1) * n:r * n]
        assert np.abs(phase - up[r::F]).max() < 1e-12 * np.abs(x).max()
        assert np.array_equal(env[(r - 1) * n:r * n], np.abs(phase))
    # phase 0 is the frame itself, bit for bit: the peak of frame 1 is its
    # input sample, squared, over Parseval's mean of its spectrum
    X = np.fft.fft(x[:, 1])
    power = np.square(X.real) + np.square(X.imag)
    if n % 2 == 0:
        power[n // 2] *= 0.5
    assert env[:, 1].max() < 100
    assert ratio[1] == 10 * np.log10(10000 / (power.sum() / n ** 2))


def test_ccdf_curve_validation():
    thr = np.array([1.0, 2.0, 3.0])
    CcdfCurve(thresholds=thr, probabilities=np.array([1.0, 0.5, 0.1]),
              samples=np.ones(10))
    with pytest.raises(ValueError):
        CcdfCurve(thresholds=thr, probabilities=np.array([0.1, 0.5, 1.0]),
                  samples=np.ones(10))
    with pytest.raises(ValueError):
        CcdfCurve(thresholds=thr, probabilities=np.array([1.2, 0.5, 0.1]),
                  samples=np.ones(10))


def test_ccdf_curve_refuses_nan_probabilities():
    # each check is the condition that must hold, which NaN fails
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        CcdfCurve(thresholds=np.array([1.0, 2.0]),
                  probabilities=np.array([np.nan, 0.5]),
                  samples=np.array([1.5]))


def _ccdf_draws():
    """``(thresholds, seed)``: the fixed grid, then seeded random draws."""
    yield np.arange(0.0, 15.0, 0.5), 5
    for draw in (70, 71, 72):
        rng = np.random.default_rng(draw)
        yield (np.sort(rng.uniform(0.0, 15.0, int(rng.integers(2, 40)))),
               int(rng.integers(1000)))


def test_papr_ccdf_properties(ref_params_frame):
    for source in (ref_params_frame, _baseline()):
        for thr, seed in _ccdf_draws():
            curve = papr_ccdf(source, trials=60, thresholds=thr, seed=seed)
            assert len(curve.samples) == 60
            assert np.all(curve.samples > 0)      # every frame beats 0 dB
            assert np.all(np.diff(curve.probabilities) <= 0)
            assert np.array_equal(curve.probabilities,
                                  [np.mean(curve.samples > t) for t in thr])
            again = papr_ccdf(source, trials=60, thresholds=thr, seed=seed)
            assert np.array_equal(curve.samples, again.samples)


def test_papr_ccdf_trials_are_independent_streams(ref_params_frame):
    thr = np.array([8.0])
    short = papr_ccdf(ref_params_frame, trials=10, thresholds=thr, seed=5)
    long = papr_ccdf(ref_params_frame, trials=25, thresholds=thr, seed=5)
    assert np.array_equal(short.samples, long.samples[:10])


def test_papr_ccdf_accepts_baseline_params():
    p = AfdmParams(L_a=128, K=4, chirps=ChirpPair(3 / 256, 0.0), cpp_len=2)
    curve = papr_ccdf(p, trials=20, thresholds=np.array([6.0]), seed=3)
    assert len(curve.samples) == 20
    with pytest.raises(ValueError):
        papr_ccdf(p, trials=0, thresholds=np.array([6.0]), seed=3)


def test_papr_ccdf_checks_thresholds_before_any_trial(ref_params_frame,
                                                      monkeypatch):
    import afbm.metrics as metrics

    def unreachable(*args):
        raise AssertionError("the Monte Carlo ran")

    for owner in (WaveformParams, AfdmParams):
        monkeypatch.setattr(owner, "modulate", unreachable)
    monkeypatch.setattr(metrics, "_trial_frames", unreachable)
    for thr in ([9.0, 5.0], [5.0, np.nan], [np.inf], 6.0):
        for source in (ref_params_frame, _baseline()):
            with pytest.raises(ValueError, match="thresholds"):
                papr_ccdf(source, trials=20, thresholds=thr, seed=1)


def test_level_at_matches_empirical_quantile(ref_params_frame):
    trials = 50
    for thr, seed in _ccdf_draws():
        curve = papr_ccdf(ref_params_frame, trials=trials, thresholds=thr,
                          seed=seed)
        rng = np.random.default_rng(seed)
        for q in (0.1, *rng.uniform(0.02, 0.98, 5)):
            lvl = curve.level_at(q)
            assert np.mean(curve.samples > lvl) <= q + 1 / trials
            assert np.mean(curve.samples >= lvl) >= q - 1 / trials
            # thresholds at or above the level are exceeded no more often
            # than q, those below it at least as often
            above = thr >= lvl
            assert np.all(curve.probabilities[above] <= q + 1 / trials)
            assert np.all(curve.probabilities[~above] >= q - 1 / trials)


def test_trial_frames_draw_the_bits_of_generator_integers():
    # the symbols come from the raw 64-bit stream; their bits and every
    # later draw must be those of default_rng(key).integers(0, 2, count)
    import afbm.metrics as metrics

    for count in (256, 1024, 2048, 7):
        # one QPSK symbol per raw word, two bits of each
        p = SimpleNamespace(constellation="QPSK",
                            data_per_frame=(count + 1) // 2)
        normals = np.empty((TRIAL_CHUNK, 3))
        for seed in range(3):
            passes = metrics._trial_frames(p, seed, (300,), TRIAL_CHUNK,
                                           normals)
            for j0, index, syms in passes:
                bits = symbol_bits(index, "QPSK")[:count]
                for j in range(j0, j0 + index.shape[1]):
                    ref = np.random.default_rng([seed, j])
                    assert np.array_equal(bits[:, j - j0],
                                          ref.integers(0, 2, size=count))
                    assert np.array_equal(normals[j - j0],
                                          ref.standard_normal(3))
                assert bits.shape == (count, index.shape[1])
                assert np.array_equal(syms, symbol_table("QPSK")[index])


# seeds of one to three uint32 words, so ``[seed, t]`` keys of two to
# four and ``[seed, i, t]`` keys of three to five: 2**32 + 5 is two words
# and 2**64 + 1 three
SEED_SHAPES = (0, 1, 2 ** 32 + 5, 2 ** 64 + 1, np.int64(3), True)


@pytest.mark.parametrize("constellation", ["QPSK", "QAM16"])
@pytest.mark.parametrize("seed", SEED_SHAPES, ids=repr)
def test_trial_frames_equal_default_rng_for_every_key_shape(seed,
                                                            constellation):
    import afbm.metrics as metrics

    p = SimpleNamespace(constellation=constellation, data_per_frame=5)
    words = 5 * BITS_PER_SYMBOL[constellation] // 2
    for shape in ((20,), (3, 7)):
        normals = np.empty((TRIAL_CHUNK, 4))
        for j0, index, syms in metrics._trial_frames(
                p, seed, shape, TRIAL_CHUNK, normals):
            for j in range(j0, j0 + index.shape[1]):
                key = [seed, *np.unravel_index(j, shape)]
                ref = np.random.default_rng(key).bit_generator
                bits = ref.random_raw(words)[:, None] >> np.array(
                    [31, 63], dtype=np.uint64) & 1
                assert np.array_equal(
                    symbol_bits(index, constellation)[:, j - j0],
                    bits.ravel())
                assert np.array_equal(
                    syms[:, j - j0].copy().view(float),
                    map_symbols_dict(bits.ravel(), constellation).view(float))
                assert np.array_equal(
                    normals[j - j0],
                    np.random.Generator(ref).standard_normal(4))


def test_pcg64_states_equal_those_of_default_rng():
    import afbm.metrics as metrics

    for seed in SEED_SHAPES + (2 ** 31, 2 ** 32, 2 ** 128 - 1):
        for shape in ((3,), (2, 3), (1, 1, 2)):
            states = metrics._pcg64_states(seed, shape,
                                           range(math.prod(shape)))
            assert states == [
                np.random.default_rng([seed, *i]).bit_generator.state
                for i in np.ndindex(shape)], (seed, shape)


def test_trial_frames_draw_across_seeding_blocks():
    import afbm.metrics as metrics

    # passes of 7 frames straddle the blocks, keys of two indices span them
    p = SimpleNamespace(constellation="QPSK", data_per_frame=6)
    shape = (2, metrics.SEED_BLOCK // 2 + 3)
    edges = {metrics.SEED_BLOCK + e for e in (-2, -1, 0, 1)}
    seen = set()
    for j0, index, _ in metrics._trial_frames(p, 5, shape, 7):
        for j in edges & set(range(j0, j0 + index.shape[1])):
            key = [5, *np.unravel_index(j, shape)]
            assert np.array_equal(symbol_bits(index, "QPSK")[:, j - j0],
                                  np.random.default_rng(key).integers(
                                      0, 2, size=12))
            seen.add(j)
    assert seen == edges


def test_trial_frames_seed_one_block_at_a_time():
    import afbm.metrics as metrics

    # the first pass of 10**6 frames holds one block of states; seeding
    # every key at once took about 850 B per key
    p = SimpleNamespace(constellation="QPSK", data_per_frame=4)
    next(metrics._trial_frames(p, 3, (10,), TRIAL_CHUNK))  # lazy imports
    tracemalloc.start()
    try:
        next(metrics._trial_frames(p, 3, (10 ** 6,), TRIAL_CHUNK))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


@pytest.mark.parametrize("constellation", ["QPSK", "QAM16"])
def test_trial_frames_yield_fortran_columns(constellation):
    # each frame's raw words are one row of the draw, so its indices and
    # symbols come out as one contiguous column, which place_grid and the
    # baseline reshape as views
    import afbm.metrics as metrics

    p = SimpleNamespace(constellation=constellation, data_per_frame=12)
    for j0, index, syms in metrics._trial_frames(p, 2, (21,), TRIAL_CHUNK):
        b = min(TRIAL_CHUNK, 21 - j0)
        assert index.shape == syms.shape == (12, b)
        assert index.dtype == np.int64 and syms.dtype == complex
        assert index.flags.f_contiguous and syms.flags.f_contiguous
        assert np.array_equal(syms, symbol_table(constellation)[index])


def test_trial_frames_refuse_other_seeds(ref_params):
    import afbm.metrics as metrics

    p = SimpleNamespace(constellation="QPSK", data_per_frame=4)
    # a 0-d array is no integer to SeedSequence, though operator.index
    # takes it
    for seed in (-1, 1.5, np.array(5)):
        with pytest.raises(ValueError, match="non-negative integer"):
            list(metrics._trial_frames(p, seed, (1,), 4))
        with pytest.raises(ValueError, match="non-negative integer"):
            papr_ccdf(_baseline(), trials=2, thresholds=[6.0], seed=seed)
        with pytest.raises(ValueError, match="non-negative integer"):
            ber_experiment(ref_params, AWGN, [0.0], 1, seed=seed)


def test_monte_carlo_seeds_without_default_rng(ref_params_frame, ref_params,
                                               monkeypatch):
    # every key is seeded in blocks, never through default_rng
    expected = (papr_ccdf(ref_params_frame, 20, [8.0], seed=11).samples,
                ber_experiment(ref_params, AWGN, [0.0, 4.0], 3, seed=11))

    def unreachable(*args, **kwargs):
        raise AssertionError("default_rng was called")

    monkeypatch.setattr(np.random, "default_rng", unreachable)
    assert np.array_equal(
        papr_ccdf(ref_params_frame, 20, [8.0], seed=11).samples, expected[0])
    assert ber_experiment(ref_params, AWGN, [0.0, 4.0], 3,
                          seed=11) == expected[1]


# trial counts that cross the chunk boundaries of the batched Monte Carlo
CHUNK_CROSSING_TRIALS = (1, TRIAL_CHUNK - 1, TRIAL_CHUNK + 1,
                         2 * TRIAL_CHUNK + 3)


def _baseline():
    return AfdmParams(L_a=128, K=8, chirps=ChirpPair(3 / 256, 0.0),
                      cpp_len=2)


def _phydyas_frame(ref_dims, ref_chirps, phydyas256):
    return WaveformParams(dims=ref_dims, K=8, chirps=ref_chirps,
                          filter=phydyas256)


def _with_c2(source):
    """``source`` with c2 != 0 in its chirp pair (0.001 for AFBM, 0.003
    for the baseline), so the batched chain runs the c2 chirp of
    ``apply_daft`` and the P-point DFT pair of ``apply_synthesis``."""
    c2 = 0.003 if isinstance(source, AfdmParams) else 0.001
    return replace(source, chirps=replace(source.chirps, c2=c2))


def _frames_one_at_a_time(source, trials, seed, afdm_frame):
    """Transmit signal of every trial, each from its own generator."""
    rngs = [np.random.default_rng([seed, t]) for t in range(trials)]
    if isinstance(source, WaveformParams):
        return [random_afbm_frame(source, rng)[2] for rng in rngs]
    return [afdm_frame(source, rng) for rng in rngs]


def _spectrum_frame_by_frame(source, frames, seed):
    """The spectrum record of ``frames`` random frames, each rendered
    alone through ``source.spectrum`` as a 1-D frame."""
    return np.concatenate([source.spectrum(x[:, 0]) for _, _, x in
                           _trial_frames(source, seed, (frames,), 1)])


def _afdm_burst(params, rng):
    return random_afdm_frame(params, rng)[2]


@pytest.mark.parametrize("trials", CHUNK_CROSSING_TRIALS)
@pytest.mark.parametrize("waveform", ["hermite", "phydyas", "afdm",
                                      "hermite-c2", "afdm-c2"])
def test_papr_ccdf_chunks_match_one_frame_at_a_time(
        waveform, trials, ref_params_frame, ref_dims, ref_chirps, phydyas256):
    name, _, c2 = waveform.partition("-")
    source = {"hermite": ref_params_frame,
              "phydyas": _phydyas_frame(ref_dims, ref_chirps, phydyas256),
              "afdm": _baseline()}[name]
    if c2:
        source = _with_c2(source)
    curve = papr_ccdf(source, trials, np.array([6.0]), seed=4)
    frames = _frames_one_at_a_time(source, trials, 4, _afdm_burst)
    assert np.array_equal(curve.samples, [papr(s) for s in frames])


def test_papr_ccdf_peak_memory_at_the_reference_profile(ref_params_frame):
    # the polyphase work arrays hold (PAPR_OVERSAMPLE - 1) * M rows per
    # frame: 3,650,888 B; with 4M-row zero-padding ones it was 4,076,864 B
    papr_ccdf(ref_params_frame, 1, np.array([6.0]), seed=1)  # lazy imports
    tracemalloc.start()
    try:
        papr_ccdf(ref_params_frame, 32, np.array([6.0]), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.8 * 2 ** 20


@pytest.mark.parametrize("trials", CHUNK_CROSSING_TRIALS)
@pytest.mark.parametrize("waveform", ["phydyas", "afdm"])
def test_spectrum_signal_chunks_match_one_frame_at_a_time(
        waveform, trials, ref_dims, ref_chirps, phydyas256):
    source = (_baseline() if waveform == "afdm"
              else _phydyas_frame(ref_dims, ref_chirps, phydyas256))
    expected = np.concatenate(
        _frames_one_at_a_time(source, trials, 7, afdm_oobe_signal))
    assert np.array_equal(spectrum_signal(source, trials, seed=7), expected)


# ---------------------------------------------------------------------------
# spectrum estimation
# ---------------------------------------------------------------------------

def test_psd_welch_locates_a_tone():
    n, seg, k = 8192, 256, 37
    tone = np.exp(2j * np.pi * k / seg * np.arange(n))
    est = psd_welch([tone], segment=seg)
    assert abs(est.power_dbr.max()) < 1e-9      # 0 dBr peak by construction
    assert abs(est.freq[np.argmax(est.power_dbr)] - k / seg) < 1e-12


def test_psd_welch_white_noise_is_flat():
    rng = np.random.default_rng(63)
    x = (rng.standard_normal(200 * 128) + 1j * rng.standard_normal(200 * 128))
    est = psd_welch([x], segment=128)
    assert np.ptp(est.power_dbr) < 3.0


def test_psd_welch_preserves_total_power():
    rng = np.random.default_rng(64)
    x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    est = psd_welch([x], segment=256)
    # the dBr estimate carries no scale: rescale it by scipy's peak density
    _, pxx = welch_psd(x, segment=256)
    density = 10 ** (est.power_dbr / 10) * pxx.max()
    integral = density.sum() / 256                # df = 1/segment at f_s = 1
    assert abs(integral / np.mean(np.abs(x) ** 2) - 1) < 0.05


def test_psd_estimate_refuses_a_nan_peak():
    with pytest.raises(ValueError, match="0 dBr peak"):
        PsdEstimate(freq=np.array([-0.5, 0.0]),
                    power_dbr=np.array([np.nan, 0.0]))


def test_psd_welch_refuses_a_zero_power_record():
    # refused before the division that would make every bin NaN
    with pytest.raises(ValueError, match="zero-power"):
        psd_welch([np.zeros(4096, complex)], 1024)


def test_psd_welch_validation():
    x = np.ones(64, dtype=complex)
    with pytest.raises(ValueError):
        psd_welch([x], segment=4)
    for pieces in ([x], [x[:40], x[40:]], [], [x[:0]]):
        with pytest.raises(ValueError, match="shorter than one"):
            psd_welch(pieces, segment=128)
    with pytest.raises(ValueError, match="1-D"):
        psd_welch(x, segment=16)                  # a bare array, not pieces


# the ids end in the overlap fraction, 0.5 for every segment
@pytest.mark.parametrize("frames, segment", [
    (64, 1024),           # the record and segment of acceptance 5
    (1, None),            # segment == len(s): one segment
    (64, 1000),           # segments that do not divide the record
    (64, 1001),           # an odd segment: the overlap rounds to 500
], ids=["64-1024-0.5", "1-None-0.5", "64-1000-0.5", "64-1001-0.5"])
def test_psd_welch_matches_scipy(ref_dims, ref_chirps, phydyas256, frames,
                                 segment):
    sharp = WaveformParams(dims=ref_dims, K=8, chirps=ref_chirps,
                           filter=phydyas256)
    s = spectrum_signal(sharp, frames=frames, seed=2)
    segment = segment or len(s)
    est = psd_welch([s], segment)
    freq, pxx = welch_psd(s, segment)
    assert np.array_equal(est.freq, np.fft.fftshift(freq))
    expected = 10 * np.log10(np.fft.fftshift(pxx) / pxx.max())
    assert expected.min() < -100.0                # the floor is deep
    assert np.abs(est.power_dbr - expected).max() < 1e-9


def _pieces(x, cuts):
    return [x[a:b] for a, b in zip((0, *cuts), (*cuts, len(x)))]


@pytest.mark.parametrize("tail", ["none", "step-1"])
@pytest.mark.parametrize("segments", [1, 5, WELCH_BLOCK - 1, WELCH_BLOCK,
                                      WELCH_BLOCK + 1, 3 * WELCH_BLOCK + 17])
@pytest.mark.parametrize("segment", [8, 101, 256])
def test_psd_welch_is_the_same_however_the_record_is_cut(segment, segments,
                                                         tail):
    rng = np.random.default_rng([65, segment, segments])
    step = segment - round(segment / 2)
    n = segment + (segments - 1) * step + (step - 1 if tail != "none" else 0)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    whole = psd_welch([x], segment).power_dbr
    freq, pxx = welch_psd(x, segment)
    assert np.abs(whole - 10 * np.log10(np.fft.fftshift(pxx) / pxx.max())
                  ).max() < 1e-9
    for cuts in (
            sorted(rng.integers(0, n + 1, 7).tolist()),  # empty pieces too
            [step // 3 + 1],                 # a cut inside the first segment
            list(range(1, min(n, 3 * segment))),  # pieces of one sample
            list(range(segment - 1, n, segment))):
        assert np.array_equal(psd_welch(_pieces(x, cuts), segment).power_dbr,
                              whole)


def test_psd_welch_joins_a_record_in_one_sample_pieces_once_per_block(
        monkeypatch):
    # each sample is copied once, into the block buffer, and no piece is
    # joined: this guards against a per-piece join coming back, as a tail
    # re-copied with every piece once made the copies quadratic
    segment, blocks = 8, 5
    step = segment - round(segment / 2)
    n = blocks * ((WELCH_BLOCK - 1) * step + segment) + step - 1
    x = np.random.default_rng(69).standard_normal(n) + 0j
    whole = psd_welch([x], segment).power_dbr
    copied, concatenate = [], np.concatenate

    def counting_concatenate(arrays, *args, **kwargs):
        out = concatenate(arrays, *args, **kwargs)
        copied.append(out.size)
        return out

    monkeypatch.setattr(np, "concatenate", counting_concatenate)
    pieces = psd_welch(_pieces(x, range(1, n)), segment).power_dbr
    monkeypatch.undo()
    assert np.array_equal(pieces, whole)
    assert sum(copied) <= 2 * n


# frames of the PHYDYAS frame (1920 samples) and the rendered baseline (2080)
# that give, at segments of 1024: 2 and 3 segments, fewer than one block; 74
# and 80, a block and a partial one; 130 and 140, whose chunks of 16 frames
# end inside a segment
SPECTRUM_FRAMES = (1, 20, 2 * TRIAL_CHUNK + 3)


@pytest.mark.parametrize("frames", SPECTRUM_FRAMES)
@pytest.mark.parametrize("segment", [1000, 1024])
@pytest.mark.parametrize("waveform", ["phydyas", "afdm",
                                      "phydyas-c2", "afdm-c2"])
def test_spectrum_psd_is_psd_welch_of_the_whole_record(
        waveform, segment, frames, ref_dims, ref_chirps, phydyas256):
    name, _, c2 = waveform.partition("-")
    source = (_baseline() if name == "afdm"
              else _phydyas_frame(ref_dims, ref_chirps, phydyas256))
    if c2:
        source = _with_c2(source)
    record = _spectrum_frame_by_frame(source, frames, seed=8)
    streamed = spectrum_psd(source, frames, seed=8, segment=segment)
    whole = psd_welch([record], segment)
    assert np.array_equal(streamed.power_dbr, whole.power_dbr)
    assert np.array_equal(streamed.freq, whole.freq)


def _small_source(name, c2=0.0, K=2):
    """A small AFBM source, (L, P, N) = (16, 24, 32) with the Hermite 1.5
    or PHYDYAS 4 prototype, or a small baseline of L_a = 16, cpp_len = 2."""
    if name == "afdm":
        return AfdmParams(L_a=16, K=K, chirps=ChirpPair(3 / 32, c2),
                          cpp_len=2)
    overlap = {"hermite": 1.5, "phydyas": 4}[name]
    return WaveformParams(dims=DaftDims(16, 24, 32), K=K,
                          chirps=ChirpPair(0.017, c2),
                          filter=prototype_filter(name, overlap, 32))


@pytest.mark.parametrize("chunk", [1, 5, 16, 40])
@pytest.mark.parametrize("waveform", ["phydyas", "afdm"])
def test_spectrum_psd_is_the_same_for_every_chunk(waveform, chunk,
                                                  monkeypatch):
    import afbm.metrics as metrics
    # the record's own cuts: chunks that end inside a segment, and chunks
    # of 40 frames longer than a Welch block
    source, frames, segment = _small_source(waveform), 70, 64
    step = segment - round(segment / 2)
    span = (WELCH_BLOCK - 1) * step + segment
    frame = len(source.spectrum(np.zeros(source.data_per_frame)))
    assert frames * frame >= 2 * span and 40 * frame > span
    default = spectrum_psd(source, frames, seed=13, segment=segment)
    monkeypatch.setattr(metrics, "TRIAL_CHUNK", chunk)
    chunked = spectrum_psd(source, frames, seed=13, segment=segment)
    assert np.array_equal(chunked.power_dbr, default.power_dbr)


def test_spectrum_psd_validation(ref_params_frame):
    # one frame is 1280 samples
    with pytest.raises(ValueError, match="shorter than one"):
        spectrum_psd(ref_params_frame, frames=1, seed=0, segment=2048)
    with pytest.raises(ValueError, match="frames"):
        spectrum_psd(ref_params_frame, frames=0, seed=0, segment=1024)


def test_spectrum_psd_peak_allocation_at_fig4(ref_dims, ref_chirps,
                                              phydyas256):
    # the record is streamed: the peak is the rendering of a chunk with the
    # last one and a Welch block held, from the second chunk on and
    # whatever the frame count; the whole record of 10 * 2 * TRIAL_CHUNK
    # frames of 1920 samples would take 9.4 MiB
    source = _phydyas_frame(ref_dims, ref_chirps, phydyas256)
    spectrum_psd(source, 2 * TRIAL_CHUNK, seed=2, segment=1024)
    peaks = []
    for frames in (2 * TRIAL_CHUNK, 20 * TRIAL_CHUNK):
        tracemalloc.start()
        try:
            spectrum_psd(source, frames, seed=2, segment=1024)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


# ---------------------------------------------------------------------------
# the waveform interface: what each waveform answers for the experiments
# ---------------------------------------------------------------------------

INTERFACE_SOURCES = ["hermite", "phydyas", "hermite-c2", "afdm", "afdm-c2"]


@pytest.fixture(params=INTERFACE_SOURCES)
def source(request, ref_params_frame, ref_dims, ref_chirps, phydyas256):
    """Each waveform: AFBM with Hermite 1.5 or PHYDYAS 4, or the baseline,
    the "-c2" ones with c2 != 0 in every chirp pair."""
    name, _, c2 = request.param.partition("-")
    source = {"hermite": ref_params_frame,
              "phydyas": _phydyas_frame(ref_dims, ref_chirps, phydyas256),
              "afdm": _baseline()}[name]
    return _with_c2(source) if c2 else source


def test_symbol_operands_adjoint_is_the_conjugate_transpose(source):
    Y, w, adjoint, c1 = source.symbol_operands()
    rng = np.random.default_rng(67)
    Z = rng.standard_normal((len(Y), 5, 2)) @ [1, 1j]
    assert np.abs(adjoint(Z) - Y.conj().T @ Z).max() < 1e-12
    # the window is the block a path's delay and Doppler count in
    if isinstance(source, AfdmParams):
        assert (len(w), c1) == (source.L_a, source.chirps.c1)
    else:
        assert (len(w), c1) == (source.filter.length, source.chirps.c1)


def test_spectrum_of_a_batch_is_each_frame_alone(source):
    rng = np.random.default_rng(68)
    d = symbol_table(source.constellation)[
        rng.integers(0, 4, (source.data_per_frame, 3))]
    batch = source.spectrum(d)
    assert batch.shape[1:] == (3,)
    for j in range(3):
        assert np.array_equal(batch[:, j:j + 1],
                              source.spectrum(d[:, j:j + 1]))
        assert np.array_equal(batch[:, j], source.spectrum(d[:, j]))


def test_spectrum_is_the_oracle_record(source):
    frames = TRIAL_CHUNK + 3
    chunks = _trial_frames(source, 9, (frames,), TRIAL_CHUNK)
    record = np.concatenate([source.spectrum(x).ravel(order="F")
                             for _, _, x in chunks])
    assert np.array_equal(record, _spectrum_frame_by_frame(source, frames, 9))
    oracle = spectrum_signal(source, frames, seed=9)
    if isinstance(source, AfdmParams):  # polyphase against zero padding
        assert np.abs(record - oracle).max() <= 1e-13 * np.abs(oracle).max()
    else:
        assert np.array_equal(record, oracle)


@pytest.mark.parametrize("batch", [(), (2, 3)], ids=["1d", "batched"])
@pytest.mark.parametrize("c2", [0.0, 0.003])
@pytest.mark.parametrize("cpp_len", [0, 2, 3])  # symbols of 64, 66, 67
def test_afdm_spectrum_is_the_zero_padded_interpolation(cpp_len, c2, batch):
    source = AfdmParams(L_a=64, K=3, chirps=ChirpPair(3 / 128, c2),
                        cpp_len=cpp_len)
    F = AFDM_OOBE_OVERSAMPLE
    rng = np.random.default_rng([70, cpp_len])
    d = symbol_table(source.constellation)[
        rng.integers(0, 4, (source.data_per_frame,) + batch)]
    s = source.modulate(d)
    # each prefixed symbol of each frame zero padded on its own
    expected = spectral_interpolate(
        s.reshape((source.L_a + cpp_len, -1), order="F"), F).reshape(
        (-1,) + batch, order="F")
    z = source.spectrum(d)
    assert z.shape == (F * source.M,) + batch
    assert np.abs(z - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.array_equal(z[::F], s)  # phase 0 is the signal itself


@pytest.mark.parametrize("K", [1, 2, 5])
@pytest.mark.parametrize("c2", [0.0, 0.002])
@pytest.mark.parametrize("waveform", ["hermite", "phydyas", "afdm"])
def test_exact_density_of_k_symbols_is_k_times_one_symbols(waveform, c2, K):
    # the exact density of the spectrum record, the sum over its data
    # columns of |FFT|^2 zero padded to G: each symbol repeats the first,
    # shifted in time, so K symbols give K times the density of one
    G = 4096

    def density(source):
        b = source.spectrum(np.eye(source.data_per_frame))
        assert len(b) <= G
        return np.sum(np.abs(np.fft.fft(b, G, axis=0)) ** 2, axis=1)

    one = density(_small_source(waveform, c2, K=1))
    many = density(_small_source(waveform, c2, K=K))
    assert np.abs(many - K * one).max() <= 1e-13 * K * one.max()


def test_band_edges(ref_params_frame):
    lo, hi = ref_params_frame.band
    assert (lo, hi) == (-0.375, 0.375)            # P / (2 N)
    assert _baseline().band == (-0.25, 0.25)


def test_oobe_level_probes(ref_params_frame):
    est = spectrum_psd(ref_params_frame, frames=20, seed=11, segment=1024)
    edges = ref_params_frame.band
    level = oobe_level(est, edges, offset=0.05)
    assert level < -30.0
    with pytest.raises(ValueError):
        oobe_level(est, edges, offset=-0.01)
    with pytest.raises(ValueError):
        oobe_level(est, edges, offset=0.2)        # probe beyond Nyquist
    floor = oobe_floor(est, edges)
    assert floor <= level
    with pytest.raises(ValueError):
        oobe_floor(est, (-0.5, 0.5))


def test_oobe_contrast_between_waveforms(ref_dims, ref_chirps, phydyas256):
    sharp = WaveformParams(dims=ref_dims, K=8, chirps=ref_chirps,
                           filter=phydyas256)
    baseline = AfdmParams(L_a=128, K=8, chirps=ChirpPair(3 / 256, 0.0),
                          cpp_len=2)
    est_a = spectrum_psd(sharp, frames=40, seed=12, segment=1024)
    est_b = spectrum_psd(baseline, frames=40, seed=12, segment=1024)
    rel = 0.1
    lvl_a = oobe_level(est_a, sharp.band, 0.375 * rel)
    lvl_b = oobe_level(est_b, baseline.band, 0.25 * rel)
    assert lvl_a < lvl_b - 40.0
    assert oobe_floor(est_a, sharp.band) < -80.0


# ---------------------------------------------------------------------------
# orthogonality metrics
# ---------------------------------------------------------------------------

def test_orthogonality_gram_invariant(ref_params):
    _, M_orth = orthogonality_gram(ref_params)
    assert M_orth.shape == (64, 64)
    assert np.abs(np.diag(M_orth) - 1.0).max() < 1e-8


@pytest.mark.parametrize("compensation", ["split", "tx"])
@pytest.mark.parametrize("compensated", [True, False])
@pytest.mark.parametrize("kind,overlap,c2", [
    pytest.param("HERMITE", 1.5, 0.003, id="HERMITE-1.5"),
    pytest.param("PHYDYAS", 2, 0.003, id="PHYDYAS-2"),
    pytest.param("PHYDYAS", 4, 0.003, id="PHYDYAS-4"),
    pytest.param("RECT", 1, 0.003, id="RECT-1"),
    pytest.param("PHYDYAS", 2, 0.0, id="PHYDYAS-2-c2=0")])
def test_orthogonality_gram_matches_dense_chain(kind, overlap, c2, compensated,
                                                compensation):
    # the pair is the data block of the raw chain's BᴴB and of the dense
    # round trip; ``compensated`` picks the one checked here: the fold Gram
    # on power folds of 1, 2 and 4 terms, through both synthesis paths
    # (c2 != 0 runs the P-point step, c2 = 0 skips it)
    chirps = ChirpPair(0.017, c2)
    params = WaveformParams(dims=DaftDims(16, 24, 32), K=1, chirps=chirps,
                            filter=prototype_filter(kind, overlap, 32),
                            compensation=compensation)
    data = data_indices(16)
    if compensated:
        ref = dense_receive_matrix(params) @ dense_transmit_matrix(params)
    else:
        B = (assemble_filter_matrix(params.filter, 1)
             @ synthesis_matrix(params.dims, chirps) @ daft_matrix(chirps, 16))
        ref = (B.conj().T @ B)[np.ix_(data, data)]
    grams = orthogonality_gram(params)
    assert len(grams) == 2
    M_orth = grams[compensated]
    assert M_orth.shape == (8, 8)
    assert np.abs(M_orth - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("compensation", ["split", "tx"])
def test_orthogonality_gram_peak_allocation_at_fig4(ref_dims, ref_chirps,
                                                    phydyas256, compensation):
    # no column is filtered: the N x L/2 data columns (256 x 64) are
    # 256 KiB, their fold-weighted copy and conjugate as much again, and
    # the gains only scale the 64 x 64 Gram, so neither policy builds more
    params = WaveformParams(dims=ref_dims, K=1, chirps=ref_chirps,
                            filter=phydyas256, compensation=compensation)
    orthogonality_gram(params)
    tracemalloc.start()
    try:
        orthogonality_gram(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20


def _sir(params) -> float:
    # the SIR of the compensated chain, which the modem runs
    return sir_orthogonality(orthogonality_gram(params)[1])


def test_sir_reference_values(ref_params, ref_dims, ref_chirps, phydyas256):
    assert _sir(ref_params) >= 60.0
    phyd = WaveformParams(dims=ref_dims, K=1, chirps=ref_chirps,
                          filter=phydyas256)
    sir_p = _sir(phyd)
    assert sir_p < _sir(ref_params)
    assert 20.0 < sir_p < 60.0                    # low but finite residual


def test_sir_is_that_of_the_modem_round_trip(ref_dims, ref_chirps, phydyas256):
    # under the tx policy the chain response is B_rxᴴ B_tx, not BᴴB
    for compensation in ("split", "tx"):
        params = WaveformParams(dims=ref_dims, K=1, chirps=ref_chirps,
                                filter=phydyas256, compensation=compensation)
        # one data symbol per frame
        R = params.demodulate(params.modulate(np.eye(64)))
        sig = np.sum(np.abs(np.diag(R)) ** 2)
        sir = 10 * np.log10(sig / (np.sum(np.abs(R) ** 2) - sig))
        assert abs(_sir(params) - sir) < 1e-9


def test_sir_is_capped(ref_params):
    assert _sir(ref_params) == 150.0


def test_overlap_one_filters_are_exactly_orthogonal(ref_dims, ref_chirps):
    rect_like = WaveformParams(dims=ref_dims, K=1, chirps=ref_chirps,
                               filter=prototype_filter("PHYDYAS", 1, 256))
    assert _sir(rect_like) == 150.0


def test_compensation_beats_uniform_scaling(ref_dims, ref_chirps, phydyas256):
    # replacing the per-position compensation by its best uniform constant
    # leaves the fold ripple uncorrected and inflates the round-trip EVM
    params = WaveformParams(dims=ref_dims, K=1, chirps=ref_chirps,
                            filter=phydyas256)
    gains = 1 / params.gains[0] ** 2
    uniform = np.full(64, 1 / np.sqrt(np.mean(gains)))
    flat = replace(params)
    vars(flat)["gains"] = (uniform, uniform)  # in place of the cached ones
    rng = np.random.default_rng(65)
    evm_comp = evm_flat = 0.0
    for _ in range(20):
        d = map_symbols_dict(rng.integers(0, 2, 128), "QPSK")
        rx = params.demodulate(params.modulate(d))
        evm_comp += np.sum(np.abs(rx - d) ** 2)
        rx = flat.demodulate(flat.modulate(d))
        evm_flat += np.sum(np.abs(rx - d) ** 2)
    assert 0 < evm_comp < 0.25 * evm_flat


# ---------------------------------------------------------------------------
# frame generators
# ---------------------------------------------------------------------------

def test_random_frame_generators_are_deterministic(ref_params_frame):
    b1, f1, s1 = random_afbm_frame(ref_params_frame,
                                   np.random.default_rng(7))
    b2, f2, s2 = random_afbm_frame(ref_params_frame,
                                   np.random.default_rng(7))
    assert np.array_equal(b1, b2)
    assert np.array_equal(f1, f2)
    assert np.array_equal(s1, s2)
    p = AfdmParams(L_a=64, K=2, chirps=ChirpPair(0.01, 0.0), cpp_len=3)
    b3, X3, s3 = random_afdm_frame(p, np.random.default_rng(7))
    assert X3.shape == (64, 2)
    assert len(s3) == (64 + 3) * 2
    assert len(b3) == 2 * p.data_per_frame


def test_random_afbm_frame_draws_exactly_the_frame_bits(ref_params):
    # ber_experiment draws its noise from the same generator afterwards
    rng = np.random.default_rng(8)
    bits, _, _ = random_afbm_frame(ref_params, rng)
    twin = np.random.default_rng(8)
    assert np.array_equal(bits, twin.integers(0, 2, size=len(bits)))
    assert rng.random() == twin.random()


def test_experiments_leave_scipy_unloaded(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    driver = (
        "import sys\n"
        "from afbm.cli import EXPERIMENTS, main\n"
        "for name in EXPERIMENTS:\n"
        "    args = [name, '--trials', '2', '--out', sys.argv[1] + '/' + name]\n"
        "    assert main(args) == 0, name\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", driver, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ("papr", "oobe", "orth", "effchan", "ber"))


def test_qfunc_reference_values():
    assert abs(qfunc(0.0) - 0.5) < 1e-15
    assert abs(qfunc(2.3263478740408408) - 0.01) < 1e-12
    assert qfunc(40.0) < 1e-300


# ---------------------------------------------------------------------------
# link-level experiment
# ---------------------------------------------------------------------------

AWGN = (PathSpec(1.0, 0, 0.0),)


def test_ber_identity_channel_no_noise(ref_params):
    rows = ber_experiment(ref_params, AWGN, snr_grid=[200.0], trials=4,
                          seed=1)
    assert rows == [(200.0, 0.0)]


def test_ber_decreases_with_snr(ref_params):
    rows = ber_experiment(ref_params, AWGN, snr_grid=[-4.0, 4.0], trials=40,
                          seed=2)
    low, high = rows[0][1], rows[1][1]
    assert low > high


def test_ber_matches_qpsk_theory_in_awgn(ref_params):
    # single-symbol frames: symbol SNR is the time-domain SNR scaled by the
    # spreading ratio 2 M / L = 6
    snr_time = 0.0
    rows = ber_experiment(ref_params, AWGN, snr_grid=[snr_time], trials=150,
                          seed=3)
    measured = rows[0][1]
    expected = qfunc(np.sqrt(10 ** (snr_time / 10) * 6.0))
    assert abs(measured - expected) < 0.25 * expected + 5e-4


THREE_PATHS = (PathSpec(1.0, 0, 0.0), PathSpec(0.7, 1, 1.0),
               PathSpec(0.5, 2, -1.0))


def _ber_case(name, ref_params):
    if name == "qpsk-hermite-awgn":
        return ref_params, (PathSpec(1.0, 0, 0.0),), [-3.0, -1.0, 1.0]
    if name.startswith("qam16-hermite-multipath"):
        params = replace(ref_params, constellation="QAM16")
        grid = [4.0, 8.0, 12.0]
    else:
        chirps = pick_chirp_params(2, 1.0, 0, 128)
        params = WaveformParams(dims=DaftDims(64, 128, 128), K=1,
                                chirps=chirps,
                                filter=prototype_filter("PHYDYAS", 4, 128))
        grid = [-10.0, -7.0, -4.0]
    if name.endswith("-tx"):
        params = replace(params, compensation="tx")
    return params, THREE_PATHS, grid


BER_CASES = ("qpsk-hermite-awgn", "qam16-hermite-multipath",
             "qpsk-phydyas4-multipath")


@pytest.mark.parametrize("name", BER_CASES + ("qam16-hermite-multipath-tx",
                                              "qpsk-phydyas4-multipath-tx"))
def test_ber_experiment_matches_per_frame_oracle(name, ref_params):
    # earlier trials keep their draws, so each trial count is a prefix of
    # the oracle's; on three SNR points, a lone trial, BER_PASS // 3 trials
    # in one pass that spans all three points, and one and two trials more,
    # whose pass boundaries fall inside an SNR point; then one full pass
    params, paths, grid = _ber_case(name, ref_params)
    per_trial = ber_trial_errors(params, paths, grid, BER_PASS, seed=12)
    assert np.all(per_trial.sum(axis=1) > 0)
    bits = params.data_per_frame * BITS_PER_SYMBOL[params.constellation]
    for trials in (1, BER_PASS // 3, BER_PASS // 3 + 1,
                   2 * (BER_PASS // 3) + 1):
        rows = ber_experiment(params, paths, grid, trials, seed=12)
        expected = per_trial[:, :trials].sum(axis=1) / (trials * bits)
        assert [row[1] for row in rows] == expected.tolist()
    rows = ber_experiment(params, paths, grid[:1], BER_PASS, seed=12)
    assert rows == [(grid[0], per_trial[0].sum() / (BER_PASS * bits))]


@pytest.mark.parametrize("name", BER_CASES)
def test_ber_experiment_rows_do_not_depend_on_the_pass_size(
        name, ref_params, monkeypatch):
    import afbm.metrics as metrics

    params, paths, grid = _ber_case(name, ref_params)
    rows = ber_experiment(params, paths, grid, 9, seed=5)
    for size in (1, 7):
        monkeypatch.setattr(metrics, "BER_PASS", size)
        assert ber_experiment(params, paths, grid, 9, seed=5) == rows


def test_ber_experiment_runs_no_chain_per_frame(ref_params, monkeypatch):
    # the linear model is built once; the passes are matrix products
    import afbm.metrics as metrics

    calls = []
    for owner, name in ((WaveformParams, "modulate"),
                        (WaveformParams, "demodulate"),
                        (metrics, "apply_paths")):
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    params, paths, grid = _ber_case("qam16-hermite-multipath", ref_params)
    counts = []
    for trials in (1, 3 * BER_PASS):
        calls.clear()
        ber_experiment(params, paths, grid[:1], trials, seed=4)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


def test_ber_tx_compensation_equals_split_for_hermite(ref_params):
    # Hermite 1.5 has flat chain gains b: the transmit-only frame is the
    # split frame times b, its noise at the same SNR too, so both reach the
    # detector alike and only the noise model of the detector differs
    params, paths, _ = _ber_case("qam16-hermite-multipath", ref_params)
    grid = [0.0, 6.0, 10.0, 14.0]
    split = ber_experiment(params, paths, grid, 40, seed=3)
    tx = ber_experiment(replace(params, compensation="tx"), paths, grid, 40,
                        seed=3)
    assert tx == split
    assert split[0][1] > 0.1 and split[-1][1] < 0.05


def test_ber_experiment_feasibility_gate_uses_xi(ref_params):
    # 2 (f_max + xi)(ell_max + 1) + ell_max = 6 (1 + xi) + 2 against P = 192
    for xi in (0, 30):
        ber_experiment(ref_params, THREE_PATHS, [0.0], trials=1, seed=0,
                       xi=xi)
    with pytest.raises(ValueError, match="infeasible"):
        ber_experiment(ref_params, THREE_PATHS, [0.0], trials=1, seed=0,
                       xi=31)


def test_ber_experiment_validation(ref_params, monkeypatch):
    with pytest.raises(ValueError):
        ber_experiment(ref_params, AWGN, snr_grid=[0.0], trials=0, seed=0)
    import afbm.metrics as metrics

    def unreachable(*args):
        raise AssertionError("the Monte Carlo ran")

    # 10 ** (snr / 10) overflows near 3083 dB; the noise is NaN near -3080
    monkeypatch.setattr(WaveformParams, "modulate", unreachable)
    monkeypatch.setattr(metrics, "_trial_frames", unreachable)
    for snr in (SNR_LIMIT_DB + 1, -4000.0, 4000.0, np.nan):
        with pytest.raises(ValueError, match="SNR"):
            ber_experiment(ref_params, AWGN, snr_grid=[0.0, snr], trials=5,
                           seed=0)
