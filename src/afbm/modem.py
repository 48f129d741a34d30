"""End-to-end modulation and demodulation of the chirp-precoded filter
bank waveform, plus a chirped-multicarrier baseline with a chirp-periodic
prefix and Gray-mapped constellations.

Grids and signals are plain arrays whose trailing axes stack frames.
Transmit chain per frame (grid ``A`` of shape L x K, guard rows zero):

1. per-subcarrier compensation and L-point affine precoding,
   ``X = W_L diag(b_tx) A``;
2. :func:`spread`: per-symbol spreading to N samples through the
   synthesis operator, then overlapped filtering, symbols delayed every
   N/2 samples, ``s = G (I_K ⊗ Q) X``.

The receiver runs the adjoint of each stage in reverse order
(:func:`despread`, then the adjoint affine transform) and applies
``diag(b_rx)`` last, so the ideal-channel response is ``B_rxᴴ B_tx``,
``B_x`` the chain with gains ``b_x`` (``BᴴB`` under the split policy).
Both gains are zero on the guard rows, so the response lives on the data
positions: with a flat-fold prototype (overlap <= 1.5) it is their
projector and the round trip is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Gray-coded QAM16 axis level of the bit pair, indexed [b0, b1]
_QAM16_GRAY_LEVELS = np.array([[-3.0, -1.0], [3.0, 1.0]])

BITS_PER_SYMBOL = {"QPSK": 2, "QAM16": 4}

# Gray bit pairs of the QAM16 axis levels, indexed [bit, (level + 3) / 2]
_QAM16_GRAY_BITS = np.array(np.unravel_index(
    np.argsort(_QAM16_GRAY_LEVELS, axis=None), _QAM16_GRAY_LEVELS.shape))


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
    def data_per_frame(self) -> int:
        return (self.dims.L // 2) * self.K


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def map_symbols(bits: np.ndarray, constellation: str) -> np.ndarray:
    """Gray-map 0/1 bits onto unit-average-energy symbols.

    Bits run along axis 0, consecutive groups forming one symbol; trailing
    axes are batch (one column per frame).
    """
    bits = np.asarray(bits)
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    bps = BITS_PER_SYMBOL.get(constellation)
    if bps is None:
        raise ValueError(f"unsupported constellation {constellation!r}")
    if len(bits) % bps:
        raise ValueError(f"bit count must be divisible by {bps}")
    groups = bits.astype(int, copy=False).reshape((-1, bps) + bits.shape[1:])
    if constellation == "QPSK":
        re = _QPSK_BIT_LEVELS[groups[:, 0]]
        im = _QPSK_BIT_LEVELS[groups[:, 1]]
        return (re + 1j * im) / np.sqrt(2)
    re = _QAM16_GRAY_LEVELS[groups[:, 0], groups[:, 1]]
    im = _QAM16_GRAY_LEVELS[groups[:, 2], groups[:, 3]]
    return (re + 1j * im) / np.sqrt(10)


def index_bits(index: np.ndarray, constellation: str) -> np.ndarray:
    """The bits of symbol indices, most significant first, the bits of each
    symbol consecutive along axis 0 as :func:`map_symbols` takes them;
    trailing axes are batch."""
    bps = BITS_PER_SYMBOL[constellation]
    shifts = np.arange(bps - 1, -1, -1).reshape(
        (-1,) + (1,) * (index.ndim - 1))
    return (index[:, None] >> shifts & 1).reshape((-1,) + index.shape[1:])


def symbol_table(constellation: str) -> np.ndarray:
    """The symbol of each index, :func:`map_symbols` of its bits."""
    index = np.arange(2 ** BITS_PER_SYMBOL[constellation])
    return map_symbols(index_bits(index, constellation), constellation)


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

def place_grid(d: np.ndarray, L: int, K: int) -> np.ndarray:
    """L x K grid: the first and last L/4 rows of each column hold data.

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
    return A


def extract_grid(A: np.ndarray) -> np.ndarray:
    """Read the data rows back out, column by column (inverse of place_grid)."""
    L = len(A)
    q = L // 4
    rows = np.concatenate([A[:q], A[L - q:]])
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
        # "tx" is one-sided: the full squared factor at the transmitter and
        # the data mask at the receiver; both gains vanish on the guard rows
        self.b_tx, self.b_rx = ((b, b) if params.compensation == "split"
                                else (b * b, (b > 0).astype(float)))

    def modulate(self, A: np.ndarray) -> np.ndarray:
        """Signal of grid ``A`` (guard rows zero); trailing axes are batch."""
        p = self.params
        A = np.asarray(A)
        L = p.dims.L
        if A.shape[:2] != (L, p.K):
            raise ValueError("grid shape does not match params")
        if np.any(A[L // 4:L - L // 4]):
            raise ValueError("guard rows of the grid must be zero")
        return spread(apply_daft(scale_rows(self.b_tx, A), p.chirps_pre), p)

    def demodulate(self, r: np.ndarray) -> np.ndarray:
        """Grid of signal ``r``, zero on the guard rows (their gain ``b_rx``
        is zero); trailing axes are batch."""
        p = self.params
        r = np.asarray(r)
        if len(r) != p.M:
            raise ValueError(f"expected {p.M} samples, got {len(r)}")
        return scale_rows(self.b_rx, apply_daft(despread(r, p), p.chirps_pre,
                                                adjoint=True))


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


def prefix_phase(c1: float, n_body: int, cpp_len: int) -> np.ndarray:
    """``exp(-j2πc1(n_body² - 2 n_body (cpp_len - m)))``, m < cpp_len: the
    chirp-periodic prefix phase of a length-``n_body`` block."""
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
    prefix = scale_rows(prefix_phase(chirps.c1, L_a, cpp_len),
                        body[L_a - cpp_len:])
    return np.concatenate([prefix, body])
