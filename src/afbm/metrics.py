"""Waveform quality measurements: PAPR CCDF, Welch PSD and out-of-band
emission levels, residual self-interference (SIR), and Monte Carlo BER.

All Monte Carlo loops derive one generator per trial from the master
seed and the trial index (``default_rng([seed, trial])``; the BER loop
uses ``default_rng([seed, snr_index, trial])``), so results are
deterministic, order independent, and stable when the trial count grows
(earlier trials keep their draws). Every loop then pushes the draws of
``TRIAL_CHUNK`` trials through the chain as one batch, one column per
trial. PAPR and spectrum samples equal those of one frame at a time bit
for bit; the BER loop adds the channel, applied path by path, and the
MMSE filter as matrix products over the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .transforms import apply_daft
from .filterbank import data_indices
from .modem import (
    AfbmModem,
    AfdmParams,
    BITS_PER_SYMBOL,
    WaveformParams,
    afdm_modulate,
    map_symbols,
    demap_symbols,
    place_grid,
    extract_grid,
    spread,
)
from .channel import ChannelSpec, check_paths_feasible, data_restricted_channel

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

# interpolation factor of the PAPR envelope
PAPR_OVERSAMPLE = 4

# segments per FFT of psd_welch: 1 MB at 1024 samples, whatever the record
WELCH_BLOCK = 64


@dataclass(frozen=True)
class CcdfCurve:
    """Empirical exceedance curve P(PAPR > threshold)."""

    thresholds: np.ndarray = field(repr=False, compare=False)
    probabilities: np.ndarray = field(repr=False, compare=False)
    samples: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities)
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(np.diff(p) > 1e-15):
            raise ValueError("CCDF must be non-increasing in the threshold")

    def level_at(self, probability: float) -> float:
        """Threshold (dB) whose exceedance probability is ``probability``."""
        if self.samples is None:
            raise ValueError("level_at needs a curve built with its samples")
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
    """Band-limited resampling by an integer factor via FFT zero padding.

    The ``(n + 1) // 2`` bins from DC upwards stay at the low edge of the
    spectrum and the rest at the high edge. The Nyquist bin of an
    even-length input is split in half across the two edges, keeping
    real signals real and the interpolation exact for band-limited
    content. Samples run along axis 0; trailing axes are batch, and each
    output column is contiguous.

    ``out``, if given, is a complex array of the result's shape that
    receives the result, as in numpy; its contents are overwritten.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    x = np.asarray(x)
    n = len(x)
    shape = (factor * n,) + x.shape[1:]
    if out is None:
        out = np.empty(shape, dtype=complex, order="F")
    elif out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    if factor == 1:
        out[...] = x
        return out
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


def papr(signal, oversample: int = PAPR_OVERSAMPLE,
         out: tuple | None = None):
    """Peak-to-average power ratio of the frame envelope, in dB.

    A 1-D signal gives a float. Trailing batch axes give one value per
    frame, each computed exactly as for that frame alone.

    ``out``, if given, is the pair ``(z, env)`` of work arrays, complex
    and float, shaped like the interpolated signal (``oversample`` times
    the rows of ``signal``) and Fortran-ordered; without it both are
    allocated for this call.
    """
    s = np.asarray(signal)
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    if out is None:
        out = (None, np.empty((oversample * len(s),) + s.shape[1:], order="F"))
    z, env = out
    z = spectral_interpolate(s, oversample, out=z)
    # Fortran order keeps each frame contiguous, so the mean is summed in
    # the same order as for a lone frame.
    np.abs(z, out=env)
    np.square(env, out=env)
    mean = env.mean(axis=0)
    if not np.all(mean > 0):
        raise ValueError("PAPR undefined for a zero-energy signal")
    ratio = 10 * np.log10(env.max(axis=0) / mean)
    return float(ratio) if s.ndim == 1 else ratio


def _bit_count(source) -> int:
    return source.data_per_frame * BITS_PER_SYMBOL[source.constellation]


def _random_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(0, 2, size=count)


def _trial_draws(trials: int, key: list, draw):
    """``(t0, draws)`` per chunk of trials, one column per trial.

    Trial ``t`` calls ``draw`` on its own generator ``default_rng(key +
    [t])``, exactly as a one-frame loop would; ``draws`` stacks each of
    the arrays that ``draw`` returns as the columns of one array.
    """
    for t0 in range(0, trials, TRIAL_CHUNK):
        t1 = min(t0 + TRIAL_CHUNK, trials)
        cols = [draw(np.random.default_rng(key + [t])) for t in range(t0, t1)]
        yield t0, tuple(np.array(c).T for c in zip(*cols))


def _trial_bits(count: int, trials: int, seed):
    """``(t0, bits)`` per chunk of trials; ``bits`` is count x chunk.

    Trial ``t`` draws its bits from ``default_rng([seed, t])``.
    """
    for t0, (bits,) in _trial_draws(
            trials, [seed], lambda rng: (_random_bits(rng, count),)):
        yield t0, bits


def _afbm_transmit(modem: AfbmModem, bits: np.ndarray) -> np.ndarray:
    """Transmit signal of bits (axis 0; trailing axes are batch)."""
    p = modem.params
    return modem.modulate(
        place_grid(map_symbols(bits, p.constellation), p.dims.L, p.K))


def _afdm_transmit(params: AfdmParams, bits: np.ndarray,
                   oversample: int = 1) -> np.ndarray:
    """Burst of the baseline for bits along axis 0 (trailing axes batch).

    With ``oversample`` > 1 each prefixed symbol is band-limited
    interpolated on its own before the K symbols are concatenated.
    """
    syms = map_symbols(bits, params.constellation)
    X = syms.reshape((params.L_a, params.K) + syms.shape[1:], order="F")
    symbols = afdm_modulate(X, params.chirps, params.cpp_len)
    if oversample > 1:
        symbols = spectral_interpolate(symbols, oversample)
    return symbols.reshape((-1,) + symbols.shape[2:], order="F")


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
    modem = AfbmModem(source) if isinstance(source, WaveformParams) else None
    samples = np.empty(trials)
    shape = (PAPR_OVERSAMPLE * source.M, min(trials, TRIAL_CHUNK))
    z = np.empty(shape, dtype=complex, order="F")
    env = np.empty(shape, order="F")
    for t0, bits in _trial_bits(_bit_count(source), trials, seed):
        s = (_afdm_transmit(source, bits) if modem is None
             else _afbm_transmit(modem, bits))
        b = bits.shape[1]
        samples[t0:t0 + b] = papr(s, out=(z[:, :b], env[:, :b]))
    probs = np.array([(samples > th).mean() for th in thresholds])
    return CcdfCurve(thresholds=thresholds, probabilities=probs,
                     samples=samples)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def psd_welch(signal, segment: int, overlap_fraction: float = 0.5) -> PsdEstimate:
    """Two-sided Welch density at f_s = 1, in dB relative to its peak.

    Segments of ``segment`` samples start every ``segment -
    round(overlap_fraction * segment)`` samples, unpadded and not
    detrended. The density is the mean over segments of ``|FFT(w x)|^2 /
    sum(w^2)``, ``w[n] = 0.5 - 0.5 cos(2 pi n / segment)`` the periodic
    Hann window, on the shifted ``np.fft.fftfreq`` axis.
    """
    s = np.asarray(signal)
    if segment < 8 or segment > len(s):
        raise ValueError("segment must satisfy 8 <= segment <= len(s)")
    if not (0 <= overlap_fraction < 1
            and round(overlap_fraction * segment) < segment):
        raise ValueError("overlap_fraction must lie in [0, 1) and round to "
                         "an overlap shorter than the segment")
    # w as scipy.signal.welch computes it, scaled before the FFT: any change
    # in its last bits moves the -140 dBr floors by ~1e-9 dB
    w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment + 1)[:-1])
    w = w * (1 / np.sqrt(sum(w ** 2)))
    step = segment - int(round(overlap_fraction * segment))
    segments = np.lib.stride_tricks.sliding_window_view(s, segment)[::step]
    pxx = np.zeros(segment)
    for b in range(0, len(segments), WELCH_BLOCK):
        X = np.fft.fft(segments[b:b + WELCH_BLOCK] * w, axis=1)
        pxx += (X.real ** 2 + X.imag ** 2).sum(axis=0)
    pxx = np.fft.fftshift(pxx / len(segments))
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


def afbm_band_edges(params: WaveformParams):
    """Occupied band of the filtered waveform at its native rate."""
    half = params.dims.P / (2 * params.dims.N)
    return (-half, half)


AFDM_OOBE_OVERSAMPLE = 2


def afdm_band_edges():
    """Occupied band of the baseline after 2x band-limited rendering."""
    half = 1 / (2 * AFDM_OOBE_OVERSAMPLE)
    return (-half, half)


def spectrum_signal(source, frames: int, seed) -> np.ndarray:
    """Concatenate random frames into one long record for Welch averaging."""
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if isinstance(source, WaveformParams):
        modem, length = AfbmModem(source), source.M
    else:
        modem, length = None, AFDM_OOBE_OVERSAMPLE * source.M
    # frame t fills column t; column-major order makes them one record
    record = np.empty((length, frames), dtype=complex, order="F")
    for t0, bits in _trial_bits(_bit_count(source), frames, seed):
        record[:, t0:t0 + bits.shape[1]] = (
            _afdm_transmit(source, bits, AFDM_OOBE_OVERSAMPLE)
            if modem is None else _afbm_transmit(modem, bits))
    return record.reshape(-1, order="F")


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def orthogonality_gram(params: WaveformParams, compensated: bool = True) -> np.ndarray:
    """Ideal-channel response ``B_rxᴴ B_tx`` of the single-symbol chain,
    ``B_x`` the :func:`spread` of the precoded ``diag(b_x)`` and ``b_x``
    the gains of :class:`AfbmModem`; ``BᴴB`` when both are one array.

    With ``compensated=False`` both gains are a uniform data-position
    mask, exposing the raw filter interference.
    """
    L = params.dims.L
    if compensated:
        modem = AfbmModem(params)
        b_tx, b_rx = modem.b_tx, modem.b_rx
    else:
        b_tx = b_rx = np.zeros(L)
        b_tx[data_indices(L)] = 1.0
    B = [spread(apply_daft(np.diag(b), params.chirps_pre)[:, None, :], params)
         for b in ((b_tx,) if b_rx is b_tx else (b_tx, b_rx))]
    return B[-1].conj().T @ B[0]


def sir_orthogonality(params: WaveformParams, compensated: bool = True) -> float:
    """Signal-to-self-interference ratio of the ideal-channel chain (dB).

    Ratio of diagonal to off-diagonal energy of the chain Gram matrix
    over the data rows, capped at the 150 dB reporting sentinel.
    """
    M_orth = orthogonality_gram(params, compensated)
    data = data_indices(params.dims.L)
    rows = M_orth[data, :]
    sig = np.sum(np.abs(rows[np.arange(len(data)), data]) ** 2)
    interference = np.sum(np.abs(rows) ** 2) - sig
    if interference <= sig * 10 ** (-SIR_CAP_DB / 10):
        return SIR_CAP_DB
    return float(min(10 * np.log10(sig / interference), SIR_CAP_DB))


# ---------------------------------------------------------------------------
# bit error rate
# ---------------------------------------------------------------------------

def _ber_draw(rng: np.random.Generator, count: int, M: int):
    """One BER trial's bits, then its real and imaginary noise normals."""
    return (_random_bits(rng, count), rng.standard_normal(M),
            rng.standard_normal(M))


def ber_experiment(params: WaveformParams, channel_spec: ChannelSpec,
                   snr_grid, trials: int, seed, xi: int = 0) -> list:
    """Monte Carlo coded-free BER with MMSE detection: one ``(snr_db,
    ber)`` row per entry of ``snr_grid``.

    Detection runs on the despread data-restricted channel; the noise
    term uses the white per-sample variance (exact for flat-fold
    prototypes, a documented approximation otherwise). Frames use K = 1
    regardless of ``params.K``; the SNR axis refers to the time-domain
    signal as produced by the channel model. ``xi`` is the Doppler guard
    of the chirp feasibility rule that the channel's paths must meet.

    Trial ``t`` at SNR index ``i`` draws its bits and then its noise from
    ``default_rng([seed, i, t])``. Chunks of ``TRIAL_CHUNK`` trials run
    through the chain together, one column per trial; the MMSE filter
    ``(H_dᴴH_d + σ²I)⁻¹H_dᴴ`` of every column comes from one
    eigendecomposition ``H_dᴴH_d = V Λ Vᴴ`` of the experiment.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    params1 = replace(params, K=1) if params.K != 1 else params
    check_paths_feasible(channel_spec.paths, xi, params1.dims.P)
    spec = channel_spec.normalized()
    M = params1.M
    modem = AfbmModem(params1)
    H_d = data_restricted_channel(spec, modem)
    lam, V = np.linalg.eigh(H_d.conj().T @ H_d)
    VhHdh = V.conj().T @ H_d.conj().T
    count = _bit_count(params1)
    rows = []
    for i, snr_db in enumerate(snr_grid):
        snr_lin = 10 ** (snr_db / 10)
        errors = 0
        for _, (bits, re, im) in _trial_draws(
                trials, [seed, i], lambda rng: _ber_draw(rng, count, M)):
            r = spec.apply(_afbm_transmit(modem, bits))
            # Fortran order sums each column as for a lone frame
            power = np.asfortranarray(np.abs(r) ** 2)
            nvar = power.sum(axis=0) / M / snr_lin
            r += np.sqrt(nvar / 2) * (re + 1j * im)
            x_tilde = extract_grid(modem.demodulate(r))
            est = V @ ((VhHdh @ x_tilde) / (lam[:, None] + nvar))
            errors += int(np.sum(demap_symbols(est, params1.constellation)
                                 != bits))
        rows.append((float(snr_db), errors / (trials * count)))
    return rows
