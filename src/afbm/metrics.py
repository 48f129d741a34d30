"""Waveform quality measurements: PAPR CCDF, Welch PSD and out-of-band
emission levels, residual self-interference (SIR), and Monte Carlo BER.

All Monte Carlo loops draw each trial from the stream of its own key,
the master seed and the trial index (``default_rng([seed, trial])``; the
BER loop uses ``default_rng([seed, snr_index, trial])``), so results are
deterministic, order independent, and stable when the trial count grows
(earlier trials keep their draws). The generators are not built one by
one: every key is seeded in one batch, each trial's state is set into
one reused PCG64, and each symbol is looked up in a :func:`symbol_table`
by an index read straight from the raw words. Every loop then takes the
draws of many frames as one batch, one column per frame. The PAPR and
spectrum loops push ``TRIAL_CHUNK`` trials at a time through the
source's ``modulate``, with samples equal to those of one frame at a
time bit for bit.
The BER loop runs one flat list of ``(snr_index, trial)`` jobs,
``BER_PASS`` frames at a time across SNR points, through no chain at all:
the channel and the whitened MMSE detector are one linear model, built
once per experiment from the transmit basis (the whitening cancels the
receive gains), and each pass is a few matrix products on the data
symbols and the noise. Data stay symbol indices throughout: the bit
errors of a symbol are the set bits of its decided index XOR its sent one.

The spectrum loop streams each chunk into the Welch estimate as it is
rendered, so its record is never held whole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .transforms import apply_daft
from .modem import (
    AfdmParams,
    BITS_PER_SYMBOL,
    WaveformParams,
    demap_symbols,
    place_grid,
    spread,
    symbol_table,
)
from .channel import apply_paths, check_paths_feasible, unit_power

SIR_CAP_DB = 150.0

# Trials per batch of the PAPR, spectrum and BER Monte Carlo. Batching
# shares the fixed cost of the ~40 numpy calls of a frame among the
# trials. On a 2-vCPU Xeon VM, one AFBM plus one AFDM reference frame
# took a median 444, 386, 395 and 387-479 us at chunks of 8, 16, 24 and
# 32, and the peak allocation of a chunk doubles from 16 to 32 (the
# 4x-interpolated envelopes) without a gain. papr_ccdf allocates the
# 4M x TRIAL_CHUNK interpolation and envelope buffers once per call and
# every chunk reuses them: allocated per chunk, their pages went back to
# the system and were faulted in again on the next one.
TRIAL_CHUNK = 16

# Frames per pass of the BER Monte Carlo, whose jobs are one-symbol
# frames. On a 2-vCPU Xeon VM at K = 1, QAM16, 25 trials at 8 SNR points,
# passes of 16, 32, 64, 128 and 200 frames took a median 13.8-15.5,
# 12.4-14.7, 11.9-13.9, 13.3-14.1 and 11.7-15.0 ms per experiment in two
# sessions of six interleaved rounds, no size ahead of the spread, with
# tracemalloc peaks of 2.1, 2.1, 2.4, 3.4 and 4.8 MB.
BER_PASS = 64

# interpolation factor of the PAPR envelope
PAPR_OVERSAMPLE = 4

# band-limited interpolation factor of the baseline's spectrum record
AFDM_OOBE_OVERSAMPLE = 2

# segments per FFT of psd_welch: 1 MB at 1024 samples, whatever the record
WELCH_BLOCK = 64

# largest |SNR| (dB) of the BER experiment; 10 ** (snr / 10) overflows
# near 3083 dB and the noise variance becomes inf near -3080 dB
SNR_LIMIT_DB = 300.0

# numpy's SeedSequence hash constants and their multipliers, and PCG64's
_HASH_A, _HASH_B = (0x43b0d7e5, 0x931e8875), (0x8b51f9dd, 0x58f38ded)
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645
_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1


@dataclass(frozen=True)
class CcdfCurve:
    """Empirical exceedance curve P(PAPR > threshold)."""

    thresholds: np.ndarray = field(repr=False, compare=False)
    probabilities: np.ndarray = field(repr=False, compare=False)
    samples: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities)
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(np.diff(p) > 1e-15):
            raise ValueError("CCDF must be non-increasing in the threshold")

    def level_at(self, probability: float) -> float:
        """Threshold (dB) whose exceedance probability is ``probability``."""
        return float(np.quantile(self.samples, 1 - probability))


@dataclass(frozen=True)
class PsdEstimate:
    """Two-sided Welch spectrum in dB relative to the in-band peak."""

    freq: np.ndarray = field(repr=False, compare=False)
    power_dbr: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if abs(float(np.max(self.power_dbr))) > 1e-9:
            raise ValueError("PSD must be normalized to a 0 dBr peak")


# ---------------------------------------------------------------------------
# envelope statistics
# ---------------------------------------------------------------------------

def spectral_interpolate(x: np.ndarray, factor: int,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Band-limited resampling by an integer factor >= 2 via FFT zero
    padding.

    The ``(n + 1) // 2`` bins from DC upwards stay at the low edge of the
    spectrum and the rest at the high edge. The Nyquist bin of an
    even-length input is split in half across the two edges, keeping
    real signals real and the interpolation exact for band-limited
    content. Samples run along axis 0; trailing axes are batch, and each
    output column is contiguous.

    ``out``, if given, is a complex array of the result's shape that
    receives the result, as in numpy; its contents are overwritten.
    """
    if factor < 2 or int(factor) != factor:
        raise ValueError("factor must be an integer >= 2")
    factor = int(factor)
    x = np.asarray(x)
    n = len(x)
    shape = (factor * n,) + x.shape[1:]
    if out is None:
        out = np.empty(shape, dtype=complex, order="F")
    elif out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    h = (n + 1) // 2
    high = factor * n - (n - h)
    np.fft.fft(x, axis=0, out=out[:n])
    out[high:] = out[h:n]
    out[h:high] = 0
    if n % 2 == 0:
        out[high] *= 0.5
        out[h] = out[high]
    np.fft.ifft(out, axis=0, out=out)
    out *= factor
    return out


def papr(signal, out: tuple | None = None):
    """Peak-to-average power ratio of the frame envelope interpolated
    ``PAPR_OVERSAMPLE`` times, in dB.

    A 1-D signal gives a float. Trailing batch axes give one value per
    frame, each computed exactly as for that frame alone.

    ``out``, if given, is the pair ``(z, env)`` of work arrays, complex
    and float, shaped like the interpolated signal (``PAPR_OVERSAMPLE``
    times the rows of ``signal``) and Fortran-ordered; without it both are
    allocated for this call.
    """
    s = np.asarray(signal)
    if out is None:
        out = (None,
               np.empty((PAPR_OVERSAMPLE * len(s),) + s.shape[1:], order="F"))
    z, env = out
    z = spectral_interpolate(s, PAPR_OVERSAMPLE, out=z)
    # Fortran order keeps each frame contiguous, so the mean is summed in
    # the same order as for a lone frame.
    np.abs(z, out=env)
    np.square(env, out=env)
    mean = env.mean(axis=0)
    if not np.all(mean > 0):
        raise ValueError("PAPR undefined for a zero-energy signal")
    ratio = 10 * np.log10(env.max(axis=0) / mean)
    return float(ratio) if s.ndim == 1 else ratio


def _hashes(h, mult):
    """The successive ``(h, h * mult)`` of a SeedSequence hash constant."""
    while True:
        yield h, (h := h * mult & _MASK32)


def _hashmix(v, hashes):
    """SeedSequence's hashmix of the uint32 array ``v``."""
    a, b = map(np.uint32, next(hashes))
    v = (v ^ a) * b
    return v ^ v >> np.uint32(16)


def _mix(x, y):
    """SeedSequence's mix of the uint32 arrays ``x`` and ``y``."""
    v = x * np.uint32(0xca01f9dd) - y * np.uint32(0x4973f715)
    return v ^ v >> np.uint32(16)


def _pcg64_states(seed, shape):
    """The PCG64 state of ``default_rng([seed, *index])`` for every index
    of an array of ``shape``, in C order: all keys hashed at once in numpy
    as ``SeedSequence`` hashes them, then seeded as PCG64 seeds them. The
    seed must be a non-negative ``int`` or ``np.integer``, as
    ``SeedSequence`` tells integers apart.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed!r}")
    seed = int(seed)
    # the seed's 32-bit words, low word first, then the index; entropy
    # shorter than the pool mixes as if padded with zeros
    rows = [np.full(math.prod(shape), seed >> s & _MASK32)
            for s in range(0, max(seed.bit_length(), 1), 32)]
    rows += list(np.indices(shape).reshape(len(shape), -1))
    rows += [np.zeros_like(rows[0])] * (4 - len(rows))
    entropy = np.array(rows, dtype=np.uint32)
    ha, hb = _hashes(*_HASH_A), _hashes(*_HASH_B)
    pool = [_hashmix(v, ha) for v in entropy[:4]]
    for i, d in itertools.permutations(range(4), 2):
        pool[d] = _mix(pool[d], _hashmix(pool[i], ha))
    for v in entropy[4:]:
        pool = [_mix(x, _hashmix(v, ha)) for x in pool]
    w = [_hashmix(x, hb).astype(np.uint64) for x in pool * 2]
    states = []
    for s0, s1, i0, i1 in zip(*((w[i] | w[i + 1] << np.uint64(32)).tolist()
                                for i in range(0, 8, 2))):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "has_uint32": 0,
                       "uinteger": 0, "state": {"state": state, "inc": inc}})
    return states


def _trial_frames(p, seed, shape: tuple, size: int, normals=None):
    """``(j0, index, symbols)`` per pass of up to ``size`` frames, one
    column per frame: the :func:`symbol_table` indices of the
    ``p.data_per_frame`` symbols of each frame, and the symbols.

    Frame ``j``, of index ``np.unravel_index(j, shape)``, draws from
    ``default_rng([seed, *index])`` one raw word per QPSK symbol, two per
    QAM16 symbol, whose bits 31 and 63 are the bits of ``integers(0, 2,
    count)``, then, if ``normals`` is given, its row ``j - j0``.
    """
    words = p.data_per_frame * BITS_PER_SYMBOL[p.constellation] // 2
    table = symbol_table(p.constellation)
    bit_generator = np.random.PCG64(0)
    normal = np.random.Generator(bit_generator).standard_normal
    states = _pcg64_states(seed, shape)
    raw = np.empty((words, min(size, len(states))), dtype=np.uint64)
    for j0 in range(0, len(states), size):
        b = min(size, len(states) - j0)
        for col, state in enumerate(states[j0:j0 + b]):
            bit_generator.state = state
            raw[:, col] = bit_generator.random_raw(words)
            if normals is not None:
                normal(out=normals[col])
        index = (raw[:, :b] >> 30 & 2 | raw[:, :b] >> 63).view(np.int64)
        if words > p.data_per_frame:  # QAM16: two base-4 digits per symbol
            index = index[0::2] * 4 + index[1::2]
        yield j0, index, table[index]


def papr_ccdf(source, trials: int, thresholds, seed) -> CcdfCurve:
    """Empirical PAPR CCDF over random data frames.

    ``source`` is either a :class:`WaveformParams` or an
    :class:`AfdmParams` baseline descriptor.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    thresholds = np.asarray(thresholds, dtype=float)
    if not (thresholds.ndim == 1 and np.all(np.isfinite(thresholds))
            and np.all(np.diff(thresholds) >= 0)):
        raise ValueError("thresholds must be finite and non-decreasing (1-D)")
    samples = np.empty(trials)
    shape = (PAPR_OVERSAMPLE * source.M, min(trials, TRIAL_CHUNK))
    z = np.empty(shape, dtype=complex, order="F")
    env = np.empty(shape, order="F")
    for t0, _, x in _trial_frames(source, seed, (trials,), TRIAL_CHUNK):
        b = x.shape[1]
        samples[t0:t0 + b] = papr(source.modulate(x),
                                  out=(z[:, :b], env[:, :b]))
    probs = np.array([(samples > th).mean() for th in thresholds])
    return CcdfCurve(thresholds=thresholds, probabilities=probs,
                     samples=samples)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def psd_welch(pieces, segment: int) -> PsdEstimate:
    """Two-sided Welch density at f_s = 1, in dB relative to its peak, of
    the record whose consecutive 1-D pieces ``pieces`` yields (``[x]`` for
    a whole array ``x``).

    Segments of ``segment`` samples overlap by half, starting every
    ``segment - round(segment / 2)`` samples, unpadded and not detrended.
    The density is the mean over segments of ``|FFT(w x)|^2 / sum(w^2)``,
    ``w[n] = 0.5 - 0.5 cos(2 pi n / segment)`` the periodic Hann window,
    on the shifted ``np.fft.fftfreq`` axis.

    The pieces are read as they come, holding at most the samples of one
    block of ``WELCH_BLOCK`` segments besides the current piece. Blocks are
    counted from the record's start, so however the record is cut, the
    estimate is the same to the bit.
    """
    if segment < 8:
        raise ValueError("segment must be >= 8")
    # w as scipy.signal.welch computes it, scaled before the FFT: any change
    # in its last bits moves the -140 dBr floors by ~1e-9 dB
    w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment + 1)[:-1])
    w = w * (1 / np.sqrt(sum(w ** 2)))
    step = segment - round(segment / 2)
    span = (WELCH_BLOCK - 1) * step + segment  # the samples of one block
    keep = segment - step  # the next block starts WELCH_BLOCK * step later
    pxx, count, held, buf = np.zeros(segment), 0, 0, None

    def add_block(samples):
        nonlocal pxx, count
        segments = np.lib.stride_tricks.sliding_window_view(
            samples, segment)[::step]
        X = work[:len(segments)]
        np.multiply(segments, w, out=X)
        np.fft.fft(X, axis=1, out=X)
        power, imag = X.real, X.imag  # |X|^2 in the real parts of X
        np.square(power, out=power)
        power += np.square(imag, out=imag)
        pxx += power.sum(axis=0)
        count += len(segments)

    for piece in pieces:
        piece = np.asarray(piece)
        if piece.ndim != 1:
            raise ValueError("each piece of the record must be 1-D")
        if buf is None:
            # allocated once the source has made its first piece: allocated
            # before it, repeated 200-frame fig4 oobe runs took 4.4k instead
            # of 2.3k minor faults each, as the heap of the chunk
            # temporaries was given back and faulted in again
            buf = np.empty(span, dtype=complex)
            work = np.empty((WELCH_BLOCK, segment), dtype=complex)
        pos = 0
        while pos < len(piece):
            take = min(span - held, len(piece) - pos)
            buf[held:held + take] = piece[pos:pos + take]
            held, pos = held + take, pos + take
            if held == span:
                add_block(buf)
                buf[:keep] = buf[span - keep:]
                held = keep
    if held >= segment:
        add_block(buf[:held])
    if not count:
        raise ValueError(f"the record is shorter than one {segment}-sample "
                         "segment")
    pxx = np.fft.fftshift(pxx / count)
    freq = np.fft.fftshift(np.fft.fftfreq(segment))
    return PsdEstimate(freq=freq, power_dbr=10 * np.log10(pxx / pxx.max()))


def oobe_level(psd: PsdEstimate, band_edges, offset: float) -> float:
    """PSD (dBr) at ``offset`` beyond the band edge; worst of both sides."""
    lo, hi = band_edges
    if offset <= 0:
        raise ValueError("probe must lie outside the allocated band")
    probes = (hi + offset, lo - offset)
    for p in probes:
        if not -0.5 <= p <= 0.5:
            raise ValueError(f"probe {p:+.4f} outside the Nyquist range")
    values = np.interp(probes, psd.freq, psd.power_dbr)
    return float(values.max())


def oobe_floor(psd: PsdEstimate, band_edges) -> float:
    """Lowest PSD value strictly outside the allocated band, in dBr."""
    lo, hi = band_edges
    outside = (psd.freq < lo) | (psd.freq > hi)
    if not np.any(outside):
        raise ValueError("band covers the whole estimated spectrum")
    return float(psd.power_dbr[outside].min())


def band_edges(source):
    """Occupied band of the spectrum record of a waveform: ±P/(2N) for the
    filtered waveform at its native rate, the inner 1/AFDM_OOBE_OVERSAMPLE
    of the spectrum for the rendered baseline."""
    half = (1 / (2 * AFDM_OOBE_OVERSAMPLE) if isinstance(source, AfdmParams)
            else source.dims.P / (2 * source.dims.N))
    return (-half, half)


def spectrum_psd(source, frames: int, seed, segment: int) -> PsdEstimate:
    """:func:`psd_welch` of the record of ``frames`` random frames of
    ``source``, each rendered for the spectrum and laid end to end: the
    filtered waveform at its native rate, the baseline with each prefixed
    symbol interpolated ``AFDM_OOBE_OVERSAMPLE`` times on its own. The
    frames are rendered ``TRIAL_CHUNK`` at a time and streamed into the
    estimate, so the record is never held whole."""
    if frames < 1:
        raise ValueError("frames must be >= 1")
    render = source.modulate
    if isinstance(source, AfdmParams):  # each prefixed symbol on its own
        def render(x):  # views: modulate returns Fortran-ordered frames
            z = spectral_interpolate(source.modulate(x).reshape(
                (source.M // source.K, -1), order="F"), AFDM_OOBE_OVERSAMPLE)
            return z.reshape((-1, x.shape[1]), order="F")
    chunks = _trial_frames(source, seed, (frames,), TRIAL_CHUNK)
    # frame t is column t of its chunk
    return psd_welch((frame for _, _, x in chunks for frame in render(x).T),
                     segment)


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def orthogonality_gram(params: WaveformParams, compensated: bool = True) -> np.ndarray:
    """Ideal-channel response of the single-symbol chain on the data
    positions, (L/2) x (L/2): ``BᴴB``, ``B`` the :func:`spread` of the
    precoded data identity, which exposes the raw filter interference.
    With ``compensated`` it is the modem round trip ``diag(b_rx) BᴴB
    diag(b_tx)`` there, ``(b_tx, b_rx)`` the ``params.gains``.
    """
    L = params.dims.L
    B = spread(apply_daft(place_grid(np.eye(L // 2), L, 1), params.chirps_pre),
               params)
    gram = B.conj().T @ B
    if compensated:
        b_tx, b_rx = params.gains
        gram = b_rx[:, None] * gram * b_tx
    return gram


def sir_orthogonality(params: WaveformParams, compensated: bool = True) -> float:
    """Signal-to-self-interference ratio of the ideal-channel chain (dB).

    Ratio of diagonal to off-diagonal energy of its response on the data
    positions, capped at the 150 dB reporting sentinel.
    """
    M_orth = orthogonality_gram(params, compensated)
    sig = np.sum(np.abs(np.diag(M_orth)) ** 2)
    interference = np.sum(np.abs(M_orth) ** 2) - sig
    if interference <= sig * 10 ** (-SIR_CAP_DB / 10):
        return SIR_CAP_DB
    return float(min(10 * np.log10(sig / interference), SIR_CAP_DB))


# ---------------------------------------------------------------------------
# bit error rate
# ---------------------------------------------------------------------------

def ber_experiment(params: WaveformParams, paths, snr_grid, trials: int,
                   seed, xi: int = 0) -> list:
    """Monte Carlo uncoded BER with MMSE detection: one ``(snr_db,
    ber)`` row per entry of ``snr_grid``, each within ``±SNR_LIMIT_DB``.

    Frames use K = 1 regardless of ``params.K``; the SNR axis refers to
    the time-domain signal as produced by the channel model, so a frame
    at SNR ``snr_db`` gets white noise of variance ``nvar``, its received
    power over ``10 ** (snr_db / 10)``. The channel is ``paths`` scaled
    to unit total power, on the M samples of that frame with the prefix
    phase of its modulation chirp rate c1. ``xi`` is the Doppler guard of
    the chirp feasibility rule that the paths must meet.

    Detection runs on the data symbols, through the transmit basis ``S =
    p.modulate(I)`` (M x L/2): a frame of symbols ``x`` arrives through
    the channel ``H`` as ``HS x``, the receive map is ``R = Sᴴ``, the
    data-to-data channel ``H_d = Sᴴ HS``, and white unit-variance channel
    noise reaches the data with covariance ``G = Sᴴ S``. The detector
    whitens it once per experiment: with ``G = C Cᴴ`` and ``H_w =
    C⁻¹H_d``, the MMSE filter ``(H_wᴴH_w + nvar I)⁻¹H_wᴴC⁻¹`` of every
    frame comes from one eigendecomposition ``H_wᴴH_w = V Λ Vᴴ``. The
    demodulator's receive gains, a positive diagonal ``D`` on ``R``,
    would make ``G = D G₀ D`` and ``C = D C₀``; ``D`` cancels from ``H_w``
    and the filter, so the model leaves it out.

    The chain is linear, so no frame goes through it: with ``P = Vᴴ
    H_wᴴC⁻¹``, a frame of symbols ``x`` and time-domain noise ``n`` gives
    ``V (P H_d x + P R n) / (Λ + nvar)``, and its received power ``|HS
    x|²`` is the quadratic form ``xᴴ (HSᴴHS) x``.

    Every ``(snr_index i, trial t)`` pair is one job, and trial ``t`` at
    SNR index ``i`` draws its bits and then its noise from
    ``default_rng([seed, i, t])``. The jobs run in passes of ``BER_PASS``
    frames, one column per job, and a pass may span SNR points; each
    column's errors count towards its own SNR.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not all(abs(snr_db) <= SNR_LIMIT_DB for snr_db in snr_grid):
        raise ValueError(f"every SNR must lie within ±{SNR_LIMIT_DB:g} dB")
    p = replace(params, K=1) if params.K != 1 else params
    check_paths_feasible(paths, xi, p.dims.P)
    M = p.M
    S = p.modulate(np.eye(p.dims.L // 2))
    HS, R = apply_paths(unit_power(paths), S, p.chirps_mod.c1), S.conj().T
    H_d, C = R @ HS, np.linalg.cholesky(R @ S)
    H_w = np.linalg.solve(C, H_d)
    lam, V = np.linalg.eigh(H_w.conj().T @ H_w)
    # Vᴴ H_wᴴ C⁻¹, with H_wᴴ C⁻¹ = (C⁻ᴴ H_w)ᴴ
    P = V.conj().T @ np.linalg.solve(C.conj().T, H_w).conj().T
    PH, PR, gram = P @ H_d, P @ R, HS.conj().T @ HS
    del S, HS, R  # M x L/2 each, dead from here: it bounds peak memory
    count = p.data_per_frame * BITS_PER_SYMBOL[p.constellation]
    snr_lin = np.array([10 ** (snr_db / 10) for snr_db in snr_grid])
    job_snr = np.repeat(np.arange(len(snr_grid)), trials)
    errors = np.zeros(len(snr_grid), dtype=int)
    # noise draws of a pass, one row per frame: M real, then M imaginary
    g = np.empty((min(len(job_snr), BER_PASS), 2 * M))
    jobs = (len(snr_grid), trials)
    for j0, index, x in _trial_frames(p, seed, jobs, BER_PASS, g):
        b = x.shape[1]
        snr_index = job_snr[j0:j0 + b]
        nvar = (np.sum(x.conj() * (gram @ x), axis=0).real / M
                / snr_lin[snr_index])
        noise = PR @ (g[:b, :M] + 1j * g[:b, M:]).T
        est = V @ ((PH @ x + noise * np.sqrt(nvar / 2))
                   / (lam[:, None] + nvar))
        wrong = demap_symbols(est, p.constellation) ^ index
        np.add.at(errors, snr_index,
                  np.bitwise_count(wrong).sum(axis=0, dtype=int))
    return [(float(snr_db), int(e) / (trials * count))
            for snr_db, e in zip(snr_grid, errors)]
