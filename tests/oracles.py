"""Dense operators and straightforward per-element and per-frame reference
implementations.

The package applies every operator through fast paths (FFTs, and the
channel path by path), vectorized over stacks of frames; the versions
here build the explicit matrices or do one element, symbol or frame at a
time, the plain way, so the tests can check the fast paths against them.
``spectrum_signal`` is the whole record that the spectrum experiment
streams. The spectrum estimate and the Gaussian tail come from scipy,
which only the tests import.
"""

import numpy as np

from afbm.channel import check_paths_feasible, unit_power
from afbm.filterbank import output_length
from afbm.metrics import PAPR_OVERSAMPLE, TRIAL_CHUNK, _trial_frames
from afbm.modem import (AFDM_OOBE_OVERSAMPLE, BITS_PER_SYMBOL, AfdmParams,
                        data_indices, prefix_phase)
from afbm.transforms import apply_daft, chirp_phase

# Gray bit pair of each QAM16 axis level rank, (level + 3) / 2
_QAM16_AXIS_BITS = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
_QAM16_AXIS_RANK = {bits: rank for rank, bits in _QAM16_AXIS_BITS.items()}


# ---------------------------------------------------------------------------
# dense operators
# ---------------------------------------------------------------------------

def dft_matrix(n):
    """Unitary n-point DFT matrix with entries exp(+j*2*pi*k*l/n)/sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def daft_matrix(chirps, n):
    """Affine transform matrix: chirp(c1) * DFT * chirp(c2), unitary."""
    return (chirp_phase(chirps.c1, n)[:, None] * dft_matrix(n)
            * chirp_phase(chirps.c2, n)[None, :])


def build_channel(paths, M, c1=0.0):
    """Dense M x M circular delay-Doppler matrix of the given paths, with
    the prefix phase of chirp rate ``c1``."""
    H = np.zeros((M, M), dtype=complex)
    m = np.arange(M)
    for p in paths:
        doppler = np.exp(-2j * np.pi * p.doppler * m / M)
        phi = np.ones(M, dtype=complex)
        if p.delay:
            head = np.arange(p.delay)
            phi[:p.delay] = np.exp(
                -2j * np.pi * c1 * (M ** 2 - 2 * M * (p.delay - head)))
        H[m, (m - p.delay) % M] += p.gain * phi * doppler
    return H


def chirp_diag(c, n):
    """n x n diagonal chirp matrix with entries exp(-j*2*pi*c*m^2)."""
    return np.diag(chirp_phase(c, n))


def truncated_daft(dims, chirps):
    """First L rows of the P-point affine transform (an L x P isometry)."""
    if dims.L > dims.P:
        raise ValueError("truncation requires L <= P")
    return daft_matrix(chirps, dims.P)[:dims.L, :]


def freq_zero_pad(N, P):
    """N x P placement matrix embedding P spectrum bins into N.

    The last P/2 input entries land at the top of the output, the first
    P/2 at the bottom, with N-P zeros in between, so a spectrum centered
    on the circular origin stays centered after padding. T^T T = I_P.
    """
    if N < P:
        raise ValueError("zero padding requires N >= P")
    if N % 2 or P % 2:
        raise ValueError("N and P must be even")
    T = np.zeros((N, P))
    T[:P // 2, P // 2:] = np.eye(P // 2)
    T[N - P // 2:, :P // 2] = np.eye(P // 2)
    return T


def synthesis_matrix(dims, chirps):
    """Dense N x L per-symbol synthesis operator.

    Composition: adjoint of the truncated P-point affine transform,
    P-point DFT, zero padding into N bins, then the adjoint N-point DFT.
    Columns are orthonormal.
    """
    F_N = dft_matrix(dims.N)
    F_P = dft_matrix(dims.P)
    T = freq_zero_pad(dims.N, dims.P)
    Wt = truncated_daft(dims, chirps)
    return F_N.conj().T @ T @ F_P @ Wt.conj().T


def filter_blocks(filt):
    """Split the pulse into its 2*overlap diagonal half-blocks of size N/2."""
    half = filt.N // 2
    nblocks = int(round(2 * filt.overlap))
    return [np.diag(filt.coeffs[p * half:(p + 1) * half])
            for p in range(nblocks)]


def assemble_filter_matrix(filt, K):
    """Dense M x NK block-Toeplitz filter bank matrix.

    Each symbol contributes two adjacent width-N/2 column blocks; the
    even-index diagonal half-blocks stack down the first column at
    successive block-rows, the odd-index ones down the second column,
    and consecutive symbols are delayed by one block-row (N/2 samples).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    half = filt.N // 2
    G = np.zeros((output_length(filt, K), filt.N * K))
    for k in range(K):
        for p, block in enumerate(filter_blocks(filt)):
            r = (p + k) * half
            c = k * filt.N + (p % 2) * half
            G[r:r + half, c:c + half] = block
    return G


def precoded_symbol_matrix(params):
    """Dense L x L/2 compensated precoder of one symbol's data: the data
    columns of ``W_L`` scaled by ``b_tx``."""
    b = params.gains[0]
    W = daft_matrix(params.chirps_pre, params.dims.L)
    return W[:, data_indices(params.dims.L)] * b[None, :]


def dense_transmit_matrix(params):
    """Explicit M x (L/2)K frame matrix: filtering of the spread, precoded
    data. ``modulate(d)`` equals this matrix times ``d``.
    """
    G = assemble_filter_matrix(params.filter, params.K)
    Qc = synthesis_matrix(params.dims, params.chirps_mod) @ \
        precoded_symbol_matrix(params)
    return G @ np.kron(np.eye(params.K), Qc)


def dense_receive_matrix(params):
    """Explicit L/2 x M receive chain of a one-symbol frame: ``diag(b_rx)``
    times the data rows of the adjoint of filtering, synthesis and
    precoding, ``demodulate(r)`` as a matrix."""
    if params.K != 1:
        raise ValueError("the receive matrix is defined for K = 1")
    chain = (assemble_filter_matrix(params.filter, 1)
             @ synthesis_matrix(params.dims, params.chirps_mod)
             @ daft_matrix(params.chirps_pre, params.dims.L))
    b_rx = params.gains[1]
    return b_rx[:, None] * chain.conj().T[data_indices(params.dims.L)]


# ---------------------------------------------------------------------------
# receivers, channel and detector, one frame at a time
# ---------------------------------------------------------------------------

def afdm_symbol(x, chirps, cpp_len):
    """One prefixed baseline symbol: the adjoint affine transform of the
    1-D ``x`` after its prefix, the body's last ``cpp_len`` samples times
    the prefix phase."""
    body = apply_daft(x, chirps, adjoint=True)
    tail = body[len(body) - cpp_len:]
    return np.concatenate([prefix_phase(chirps.c1, len(body), cpp_len) * tail,
                           body])


def afdm_demodulate(r, chirps, cpp_len):
    """Strip the prefix and apply the forward affine transform."""
    r = np.asarray(r).ravel()
    if cpp_len < 0 or len(r) <= cpp_len:
        raise ValueError("signal shorter than its prefix")
    return apply_daft(r[cpp_len:], chirps)


def afdm_demodulate_frame(r, L_a, K, chirps, cpp_len):
    """Split a burst back into K symbols and demodulate each."""
    step = L_a + cpp_len
    r = np.asarray(r).ravel()
    if len(r) != step * K:
        raise ValueError(f"expected {step * K} samples, got {len(r)}")
    return np.stack(
        [afdm_demodulate(r[k * step:(k + 1) * step], chirps, cpp_len)
         for k in range(K)], axis=1)


def apply_channel(signal, H, snr_db, seed=None):
    """Propagate through ``H`` and add complex white Gaussian noise.

    The per-sample noise variance is set from the actual received energy
    so that 10*log10(||H s||^2 / ||n||^2) targets ``snr_db``; ``snr_db =
    inf`` disables noise entirely. ``seed`` may be a generator, whose
    stream then continues.
    """
    s = np.asarray(signal)
    if H.shape[1] != len(s):
        raise ValueError(f"channel expects {H.shape[1]} samples, got {len(s)}")
    r = H @ s
    if not np.isinf(snr_db):
        rng = np.random.default_rng(seed)
        nvar = np.sum(np.abs(r) ** 2) / len(r) / 10 ** (snr_db / 10)
        noise = np.sqrt(nvar / 2) * (rng.standard_normal(len(r))
                                     + 1j * rng.standard_normal(len(r)))
        r = r + noise
    return r


def mmse_equalize(x_tilde, H_d, noise_var, cov=None):
    """Linear MMSE estimate (H_dᴴ Σ⁻¹ H_d + noise_var I)⁻¹ H_dᴴ Σ⁻¹ x̃ for
    noise of covariance ``noise_var Σ``, ``Σ = cov`` or the identity.

    With ``noise_var = 0`` this is zero-forcing and raises if the system
    is singular.
    """
    x_tilde = np.asarray(x_tilde).ravel()
    n = H_d.shape[1]
    if H_d.shape[0] != len(x_tilde):
        raise ValueError("dimension mismatch between channel and input")
    HhSi = (H_d.conj().T if cov is None
            else np.linalg.solve(cov, H_d).conj().T)
    A = HhSi @ H_d + noise_var * np.eye(n)
    return np.linalg.solve(A, HhSi @ x_tilde)


def map_symbols_dict(bits, constellation):
    """Gray map of a 1-D 0/1 bit vector, one symbol at a time: QPSK bit
    ``b`` is the level ``1 - 2b`` of its axis, a QAM16 bit pair the level
    ``2 rank - 3``; the first bit (pair) gives the real part."""
    bits = [int(b) for b in np.asarray(bits).ravel()]
    symbols = []
    if constellation == "QPSK":
        for b0, b1 in zip(bits[0::2], bits[1::2]):
            symbols.append(complex(1 - 2 * b0, 1 - 2 * b1) / np.sqrt(2))
    else:
        for i in range(0, len(bits), 4):
            re, im = (2 * _QAM16_AXIS_RANK[tuple(bits[j:j + 2])] - 3
                      for j in (i, i + 2))
            symbols.append(complex(re, im) / np.sqrt(10))
    return np.array(symbols, dtype=complex)


def symbol_bits(index, constellation):
    """The bits of symbol indices, most significant first, the bits of each
    symbol consecutive along axis 0; trailing axes are batch."""
    index = np.asarray(index)
    bits = [index >> k & 1
            for k in range(BITS_PER_SYMBOL[constellation] - 1, -1, -1)]
    return np.stack(bits, axis=1).reshape((-1,) + index.shape[1:])


def demap_symbols_dict(symbols, constellation):
    """Hard-decision demap of a 1-D symbol vector, one symbol at a time."""
    symbols = np.asarray(symbols).ravel()
    bits = []
    for sym in symbols:
        if constellation == "QPSK":
            bits += [int(sym.real < 0), int(sym.imag < 0)]
            continue
        for v in (sym.real, sym.imag):
            lvl = int(np.clip(np.round((v * np.sqrt(10) + 3) / 2), 0, 3))
            bits += _QAM16_AXIS_BITS[lvl]
    return np.array(bits, dtype=int)


def filter_bank_overlap_add(y, filt):
    """Synthesis filter bank of one N x K block: a zeroed output to which
    each symbol's windowed periodic extension is added in turn."""
    N, K = y.shape
    hop = N // 2
    idx = np.arange(filt.length) % N
    s = np.zeros(output_length(filt, K), dtype=complex)
    for k in range(K):
        s[k * hop:k * hop + filt.length] += filt.coeffs * y[idx, k]
    return s


def filter_bank_adjoint_add_at(r, filt, K):
    """Analysis filter bank of one 1-D signal by ``np.add.at`` folding."""
    hop = filt.N // 2
    if len(r) != output_length(filt, K):
        raise ValueError("input length does not match K symbols")
    idx = np.arange(filt.length) % filt.N
    z = np.zeros((filt.N, K), dtype=complex)
    for k in range(K):
        np.add.at(z[:, k], idx, filt.coeffs * r[k * hop:k * hop + filt.length])
    return z


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def spectral_interpolate(x: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited resampling by an integer factor >= 2 via FFT zero
    padding.

    The ``(n + 1) // 2`` bins from DC upwards stay at the low edge of the
    spectrum and the rest at the high edge. The Nyquist bin of an
    even-length input is split in half across the two edges, keeping
    real signals real and the interpolation exact for band-limited
    content. Samples run along axis 0; trailing axes are batch, and each
    output column is contiguous.
    """
    if factor < 2 or int(factor) != factor:
        raise ValueError("factor must be an integer >= 2")
    factor = int(factor)
    x = np.asarray(x)
    n = len(x)
    out = np.empty((factor * n,) + x.shape[1:], dtype=complex, order="F")
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


def papr_zero_padded(signal):
    """PAPR (dB) of the envelope interpolated ``PAPR_OVERSAMPLE`` times
    by zero padding the whole spectrum: one inverse FFT of
    ``PAPR_OVERSAMPLE`` times the frame length, the peak and the mean
    taken over all its samples. A 1-D signal gives a float, trailing
    axes one value per frame."""
    s = np.asarray(signal)
    env = np.abs(spectral_interpolate(s, PAPR_OVERSAMPLE)) ** 2
    ratio = 10 * np.log10(env.max(axis=0) / env.mean(axis=0))
    return float(ratio) if s.ndim == 1 else ratio


# ---------------------------------------------------------------------------
# random frames
# ---------------------------------------------------------------------------

def _frame_bits(params, rng):
    count = params.data_per_frame * BITS_PER_SYMBOL[params.constellation]
    return rng.integers(0, 2, size=count)


def random_afbm_frame(params, rng):
    """One random data frame: its bits, data symbols and transmit signal."""
    bits = _frame_bits(params, rng)
    d = map_symbols_dict(bits, params.constellation)
    return bits, d, params.modulate(d)


def _afdm_symbols(params, rng):
    bits = _frame_bits(params, rng)
    X = map_symbols_dict(bits, params.constellation).reshape(
        (params.L_a, params.K), order="F")
    return bits, X, [afdm_symbol(X[:, k], params.chirps, params.cpp_len)
                     for k in range(params.K)]


def random_afdm_frame(params, rng):
    """One random baseline frame, its K prefixed symbols built one by one
    and concatenated: bits, symbol grid and burst."""
    bits, X, symbols = _afdm_symbols(params, rng)
    return bits, X, np.concatenate(symbols)


def afdm_oobe_signal(params, rng):
    """Baseline burst at 2x rate, each prefixed symbol band-limited
    interpolated on its own."""
    _, _, symbols = _afdm_symbols(params, rng)
    return np.concatenate([spectral_interpolate(s, AFDM_OOBE_OVERSAMPLE)
                           for s in symbols])


def spectrum_signal(source, frames, seed):
    """The whole spectrum record that ``metrics.spectrum_psd`` streams:
    ``frames`` random frames of ``source``, modulated ``TRIAL_CHUNK`` at a
    time as the experiment modulates them and laid end to end in one
    array, each prefixed symbol of the baseline then interpolated on its
    own, one at a time."""
    chunks = _trial_frames(source, seed, (frames,), TRIAL_CHUNK)
    record = np.concatenate([source.modulate(x).reshape(-1, order="F")
                             for _, _, x in chunks])
    if isinstance(source, AfdmParams):
        step = source.L_a + source.cpp_len
        record = np.concatenate([
            spectral_interpolate(record[i:i + step], AFDM_OOBE_OVERSAMPLE)
            for i in range(0, len(record), step)])
    return record


def ber_trial_errors(params, paths, snr_grid, trials, seed):
    """Bit errors of each trial (SNR x trial) of the BER experiment on a
    K = 1 ``params``, over ``paths`` scaled to unit power with the prefix
    phase of the modulation chirp rate.

    One frame at a time: trial ``t`` at SNR index ``i`` draws its bits,
    then its real and imaginary noise from ``default_rng([seed, i, t])``,
    goes through the dense :func:`build_channel` matrix and the dense
    receive chain ``R``, and is detected with :func:`mmse_equalize` for
    the noise covariance ``R Rᴴ`` and a per-symbol demap.
    """
    check_paths_feasible(paths, 0, params.dims.P)
    H = build_channel(unit_power(paths), params.M, params.chirps_mod.c1)
    R = dense_receive_matrix(params)
    H_d = R @ H @ dense_transmit_matrix(params)
    cov = R @ R.conj().T
    errors = np.zeros((len(snr_grid), trials), dtype=int)
    for i, snr_db in enumerate(snr_grid):
        for t in range(trials):
            rng = np.random.default_rng([seed, i, t])
            bits, _, sig = random_afbm_frame(params, rng)
            rx = apply_channel(sig, H, snr_db, seed=rng)
            nvar = np.sum(np.abs(H @ sig) ** 2) / params.M / 10 ** (
                snr_db / 10)
            est = mmse_equalize(R @ rx, H_d, nvar, cov)
            errors[i, t] = np.sum(
                demap_symbols_dict(est, params.constellation) != bits)
    return errors


# ---------------------------------------------------------------------------
# scipy references
# ---------------------------------------------------------------------------

def welch_psd(s, segment):
    """``(freq, density)`` of ``scipy.signal.welch`` in the setting of
    ``psd_welch`` (half-overlapping segments), before its shift and
    normalisation."""
    from scipy.signal import welch  # slow to import; only the Welch tests

    return welch(s, fs=1.0, window="hann", nperseg=segment,
                 noverlap=round(segment / 2),
                 detrend=False, return_onesided=False, scaling="density")


def qfunc(x):
    """Gaussian tail probability Q(x)."""
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x) / np.sqrt(2))
