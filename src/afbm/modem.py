"""End-to-end modulation and demodulation of the chirp-precoded filter
bank waveform, plus a chirped-multicarrier baseline with a chirp-periodic
prefix and Gray-mapped constellations.

Transmit chain per frame (grid ``A`` of shape L x K, guard rows zero):

1. per-subcarrier compensation and L-point affine precoding,
   ``X = W_L diag(b_tx) A``;
2. :func:`spread`: per-symbol spreading to N samples through the
   synthesis operator, then overlapped filtering, symbols delayed every
   N/2 samples, ``s = G (I_K ⊗ Q) X``.

The receiver runs the adjoint of each stage in reverse order
(:func:`despread`, then the adjoint affine transform); the final
compensation applies ``diag(b_rx)`` after the adjoint affine transform,
so that the end-to-end ideal-channel response is exactly the Gram matrix
of the compensated transmit chain. With a flat-fold prototype (overlap
<= 1.5) that Gram is the data-position projector and the round trip is
exact; the guard rows are zeroed on extraction either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .transforms import (
    ChirpPair,
    DaftDims,
    apply_daft,
    apply_synthesis,
    apply_synthesis_adjoint,
    scale_rows,
)
from .filterbank import (
    PrototypeFilter,
    apply_filter_bank,
    apply_filter_bank_adjoint,
    compensation_vector,
    output_length,
)

_QPSK_BIT_LEVELS = np.array([1.0, -1.0])  # bit 0 -> +1, bit 1 -> -1
_QAM16_GRAY_LEVELS = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}

BITS_PER_SYMBOL = {"QPSK": 2, "QAM16": 4}
SUBCARRIER_SPACING_HZ = 15e3

# Gray bit pairs of the QAM16 axis levels, indexed [bit, (level + 3) / 2]
_QAM16_GRAY_BITS = np.array(
    sorted(_QAM16_GRAY_LEVELS, key=_QAM16_GRAY_LEVELS.get)).T


@dataclass(frozen=True)
class WaveformParams:
    """Full static description of one waveform configuration."""

    dims: DaftDims
    K: int
    chirps_pre: ChirpPair
    chirps_mod: ChirpPair
    filter: PrototypeFilter
    constellation: str = "QPSK"
    compensation: str = "split"

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.filter.N != self.dims.N:
            raise ValueError("filter bank size must match dims.N")
        if self.constellation not in BITS_PER_SYMBOL:
            raise ValueError(f"unsupported constellation {self.constellation!r}")
        if self.compensation not in ("split", "tx"):
            raise ValueError("compensation must be 'split' or 'tx'")

    @property
    def M(self) -> int:
        """Frame length in samples."""
        return output_length(self.filter, self.K)

    @property
    def sample_rate(self) -> float:
        return self.dims.N * SUBCARRIER_SPACING_HZ

    @property
    def data_per_frame(self) -> int:
        return (self.dims.L // 2) * self.K


@dataclass(frozen=True)
class GridFrame:
    """L x K symbol grid; the middle L/2 rows are a zero guard band.

    Trailing axes after the first two, if any, stack independent frames.
    """

    A: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        L = self.A.shape[0]
        if self.A.ndim < 2 or L % 4:
            raise ValueError("grid must be L x K with L divisible by 4")
        if np.any(self.A[L // 4:L - L // 4]):
            raise ValueError("guard rows of the grid must be zero")

    @property
    def L(self) -> int:
        return self.A.shape[0]

    @property
    def K(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class TimeSignal:
    """Complex baseband samples at rate ``f_s``."""

    s: np.ndarray = field(repr=False, compare=False)
    f_s: float = 1.0


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def map_symbols(bits: np.ndarray, constellation: str) -> np.ndarray:
    """Gray-map 0/1 bits onto unit-average-energy symbols.

    Bits run along axis 0, consecutive groups forming one symbol; trailing
    axes are batch (one column per frame).
    """
    bits = np.asarray(bits, dtype=int)
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    bps = BITS_PER_SYMBOL.get(constellation)
    if bps is None:
        raise ValueError(f"unsupported constellation {constellation!r}")
    if len(bits) % bps:
        raise ValueError(f"bit count must be divisible by {bps}")
    groups = bits.reshape((-1, bps) + bits.shape[1:])
    if constellation == "QPSK":
        re = _QPSK_BIT_LEVELS[groups[:, 0]]
        im = _QPSK_BIT_LEVELS[groups[:, 1]]
        return (re + 1j * im) / np.sqrt(2)
    lut = np.empty((2, 2))
    for (b0, b1), level in _QAM16_GRAY_LEVELS.items():
        lut[b0, b1] = level
    re = lut[groups[:, 0], groups[:, 1]]
    im = lut[groups[:, 2], groups[:, 3]]
    return (re + 1j * im) / np.sqrt(10)


def demap_symbols(symbols: np.ndarray, constellation: str) -> np.ndarray:
    """Hard-decision inverse of :func:`map_symbols`.

    Symbols run along axis 0 and trailing axes are batch; the bits of
    each symbol are consecutive along axis 0 of the output.
    """
    symbols = np.asarray(symbols)
    if constellation == "QPSK":
        groups = np.stack([symbols.real < 0, symbols.imag < 0], axis=1)
    elif constellation == "QAM16":
        def axis_bits(v):
            lvl = np.clip(np.round((v * np.sqrt(10) + 3) / 2), 0, 3)
            return _QAM16_GRAY_BITS[:, lvl.astype(int)]

        groups = np.concatenate([axis_bits(symbols.real),
                                 axis_bits(symbols.imag)]).swapaxes(0, 1)
    else:
        raise ValueError(f"unsupported constellation {constellation!r}")
    return groups.reshape((-1,) + symbols.shape[1:]).astype(int)


# ---------------------------------------------------------------------------
# grid placement
# ---------------------------------------------------------------------------

def place_grid(d: np.ndarray, L: int, K: int) -> GridFrame:
    """Fill the first and last L/4 rows of each column with data symbols.

    ``d`` holds the (L/2)*K symbols of a frame along axis 0, column after
    column; trailing axes are batch.
    """
    d = np.asarray(d)
    if d.ndim == 0 or len(d) != (L // 2) * K:
        raise ValueError(f"expected {(L // 2) * K} symbols, got {d.size}")
    batch = d.shape[1:]
    cols = d.reshape((L // 2, K) + batch, order="F")
    A = np.zeros((L, K) + batch, dtype=complex)
    q = L // 4
    A[:q] = cols[:q]
    A[L - q:] = cols[q:]
    return GridFrame(A=A)


def extract_grid(frame: GridFrame) -> np.ndarray:
    """Read the data rows back out, column by column (inverse of place_grid)."""
    L = frame.L
    q = L // 4
    rows = np.concatenate([frame.A[:q], frame.A[L - q:]])
    return rows.reshape((-1,) + rows.shape[2:], order="F")


# ---------------------------------------------------------------------------
# transceiver
# ---------------------------------------------------------------------------

def spread(X: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Precoded symbols to time samples, ``G (I_K ⊗ Q) X``.

    ``X`` is L x K, optionally with trailing batch axes; K is read from
    ``X.shape[1]``, so single-symbol columns of any waveform spread on
    their own. The output is the length-M time signal (M x batch).
    """
    return apply_filter_bank(
        apply_synthesis(X, params.dims, params.chirps_mod), params.filter)


def despread(r: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Adjoint of :func:`spread` for ``params.K`` symbols: a length-M time
    signal (x batch) to L x K (x batch)."""
    return apply_synthesis_adjoint(
        apply_filter_bank_adjoint(r, params.filter, params.K),
        params.dims, params.chirps_mod)


class AfbmModem:
    """Precomputed modulator/demodulator for one parameter set.

    Immutable after construction; `modulate`/`demodulate` are re-entrant.
    """

    def __init__(self, params: WaveformParams):
        self.params = params
        b = compensation_vector(params.dims, params.chirps_pre,
                                params.chirps_mod, params.filter)
        if params.compensation == "split":
            self.b_tx = b
            self.b_rx = b
        else:  # one-sided: the full squared factor at the transmitter
            self.b_tx = b * b
            self.b_rx = np.ones_like(b)

    def modulate(self, frame: GridFrame) -> TimeSignal:
        p = self.params
        if frame.L != p.dims.L or frame.K != p.K:
            raise ValueError("frame shape does not match params")
        X = apply_daft(scale_rows(self.b_tx, frame.A), p.chirps_pre)
        return TimeSignal(s=spread(X, p), f_s=p.sample_rate)

    def demodulate(self, signal: TimeSignal) -> GridFrame:
        """Receive chain; trailing axes of ``signal.s`` are batch."""
        p = self.params
        r = np.asarray(signal.s)
        if len(r) != p.M:
            raise ValueError(f"expected {p.M} samples, got {len(r)}")
        At = scale_rows(self.b_rx, apply_daft(despread(r, p), p.chirps_pre,
                                              adjoint=True))
        L = p.dims.L
        At[L // 4:L - L // 4] = 0
        return GridFrame(A=At)


# ---------------------------------------------------------------------------
# chirped-multicarrier baseline (single-tap subcarriers, chirp-periodic prefix)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AfdmParams:
    """Static description of the prefix-based baseline waveform.

    The baseline is dimensioned for fairness against the filtered
    waveform: the same number of subcarriers, all of them data-loaded,
    K symbols per frame, prefix long enough for the channel's maximum
    delay.
    """

    L_a: int
    K: int
    chirps: ChirpPair
    cpp_len: int
    constellation: str = "QPSK"

    def __post_init__(self):
        if self.L_a < 1 or self.K < 1:
            raise ValueError("L_a and K must be >= 1")
        if not 0 <= self.cpp_len < self.L_a:
            raise ValueError("need 0 <= cpp_len < L_a")
        if self.constellation not in BITS_PER_SYMBOL:
            raise ValueError(f"unsupported constellation {self.constellation!r}")

    @property
    def M(self) -> int:
        return (self.L_a + self.cpp_len) * self.K

    @property
    def data_per_frame(self) -> int:
        return self.L_a * self.K


def _prefix_phase(c1: float, n_body: int, cpp_len: int) -> np.ndarray:
    m = np.arange(cpp_len)
    return np.exp(-2j * np.pi * c1 * (n_body ** 2 - 2 * n_body * (cpp_len - m)))


def afdm_modulate(x: np.ndarray, chirps: ChirpPair, cpp_len: int) -> np.ndarray:
    """Adjoint affine transform of the symbol plus a chirp-periodic prefix.

    The prefix copies the tail of the body with the quadratic phase
    continuation that makes a linear delay-Doppler channel act circularly
    on the body, so the channel module's circular model applies exactly.
    The symbol runs along axis 0; trailing axes are batch (for instance
    the K symbols of a frame, then the frames of a chunk).
    """
    x = np.asarray(x)
    L_a = len(x)
    if not 0 <= cpp_len < L_a:
        raise ValueError("need 0 <= cpp_len < symbol length")
    body = apply_daft(x, chirps, adjoint=True)
    prefix = scale_rows(_prefix_phase(chirps.c1, L_a, cpp_len),
                        body[L_a - cpp_len:])
    return np.concatenate([prefix, body])
