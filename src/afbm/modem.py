"""End-to-end modulation and demodulation of the chirp-precoded filter
bank waveform, plus a chirped-multicarrier baseline with a chirp-periodic
prefix and Gray-mapped constellations. Data are symbol indices:
:func:`symbol_table` gives the symbol of each, and :func:`demap_symbols`
decides received symbols back to indices.

Each waveform's parameters are its transmitter: ``p.modulate(d)`` of a
:class:`WaveformParams` or an :class:`AfdmParams` takes the
``p.data_per_frame`` data symbols of a frame along axis 0, symbol after
symbol, and returns its signal; in both, trailing axes stack frames.
Each also answers how it is measured: ``p.spectrum(d)`` and ``p.band``,
the OOBE record and its band, and ``p.symbol_operands()``, the one-symbol
basis of its effective channels.
Only this module lays the data out on the L x K subcarrier grid:
:func:`place_grid` puts each symbol's data on the first and last L/4
subcarriers, the rows of :func:`data_indices`, and leaves the guard
half zero; the data rows are one circular run, so it places them by two
slices into a Fortran-ordered grid, and the chain keeps each frame
contiguous down to its signal. Transmit chain per frame of data ``d``:

1. per-subcarrier compensation, placement and L-point affine precoding,
   ``X = W_L A``, ``A`` the grid of ``diag(b_tx) d``;
2. :func:`spread`: per-symbol spreading to N samples through the
   synthesis operator, then overlapped filtering, symbols delayed every
   N/2 samples, ``s = G (I_K ⊗ Q) X``.

The receiver :meth:`WaveformParams.demodulate` runs the adjoint of each
stage in reverse order (:func:`despread`, then the adjoint affine
transform), reads the data positions and applies ``diag(b_rx)`` last, so
the ideal-channel response is ``B_rxᴴ B_tx``, ``B_x`` the chain of the
data positions with gains ``b_x`` (``BᴴB`` under the split policy). With
a flat-fold prototype (overlap <= 1.5) it is the identity and the round
trip is exact. The receive gains are a positive diagonal, so a detector
that whitens its noise cancels them and needs the transmit basis alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .transforms import (
    ChirpPair,
    DaftDims,
    apply_daft,
    apply_synthesis,
    apply_synthesis_adjoint,
    scale_rows,
    _interpolated_phases,
)
from .filterbank import (
    PrototypeFilter,
    apply_filter_bank,
    apply_filter_bank_adjoint,
    compensation_vector,
    output_length,
)

BITS_PER_SYMBOL = {"QPSK": 2, "QAM16": 4}

# band-limited interpolation factor of the baseline's spectrum record
AFDM_OOBE_OVERSAMPLE = 2

# Gray-coded level of each base-2**(bps/2) digit on one axis: the high
# digit of a symbol index gives the real part, the low digit the imaginary
_GRAY_LEVELS = {"QPSK": np.array([1.0, -1.0]) / np.sqrt(2),
                "QAM16": np.array([-3.0, -1.0, 3.0, 1.0]) / np.sqrt(10)}
# the QAM16 digit of each axis level rank, (level * √10 + 3) / 2
_QAM16_RANK_DIGITS = np.array([0, 1, 3, 2])


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

    @property
    def band(self) -> tuple:
        """The declared band of the :meth:`spectrum` record, ±P/(2N), the
        span of the P bins. At c2 = 0 the signal fills only its upper
        [P/(2N) - L/N, P/(2N)], [-0.125, 0.375] at fig3 and fig4: the
        OOBE floor and probes see only |f| > P/(2N), so the empty side
        inside this band is not counted as out of band."""
        half = self.dims.P / (2 * self.dims.N)
        return (-half, half)

    @cached_property
    def gains(self) -> tuple:
        """``(b_tx, b_rx)``, the gains of the L/2 data subcarriers: the
        :func:`compensation_vector` on each side under "split"; "tx" is
        one-sided, the full squared factor at the transmitter and none at
        the receiver."""
        b = compensation_vector(self.data_columns(), self.filter)
        return ((b, b) if self.compensation == "split"
                else (b * b, np.ones_like(b)))

    def data_columns(self) -> np.ndarray:
        """N x L/2 synthesis of the precoded data identity: one symbol's
        data positions spread, ahead of the filter."""
        data = np.eye(self.dims.L)[:, data_indices(self.dims.L)]
        return apply_synthesis(apply_daft(data, self.chirps_pre), self.dims,
                               self.chirps_mod)

    def modulate(self, d: np.ndarray) -> np.ndarray:
        """Signal of the data symbols ``d``, the (L/2)*K of each frame
        along axis 0 as :func:`place_grid` takes them; trailing axes are
        batch."""
        A = place_grid(d, self.dims.L, self.K)
        b, q = self.gains[0], self.dims.L // 4
        A[:q] = scale_rows(b[:q], A[:q])
        A[-q:] = scale_rows(b[q:], A[-q:])
        return spread(apply_daft(A, self.chirps_pre), self)

    def demodulate(self, r: np.ndarray) -> np.ndarray:
        """Data symbols of signal ``r``, shaped as :meth:`modulate` takes
        them; trailing axes are batch. :func:`despread` checks the length."""
        A = apply_daft(despread(np.asarray(r), self), self.chirps_pre,
                       adjoint=True)
        d = scale_rows(self.gains[1], A[data_indices(self.dims.L)])
        return d.reshape((-1,) + d.shape[2:], order="F")

    spectrum = modulate  # the spectrum record of frames is their signal

    def symbol_operands(self) -> tuple:
        """One symbol as :func:`~afbm.channel.effective_channels` takes it,
        ``(Y, w, adjoint, c1)``: the synthesised identity, the prototype
        (its length is the block a path's delay and Doppler count in), the
        synthesis adjoint and the prefix chirp rate."""
        dims, chirps = self.dims, self.chirps_mod
        return (apply_synthesis(np.eye(dims.L, dtype=complex), dims, chirps),
                self.filter.coeffs,
                lambda Z: apply_synthesis_adjoint(Z, dims, chirps), chirps.c1)


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def symbol_table(constellation: str) -> np.ndarray:
    """The unit-average-energy symbol of each index, Gray-mapped per axis."""
    levels = _GRAY_LEVELS[constellation]
    return np.add.outer(levels, 1j * levels).ravel()


def demap_symbols(symbols: np.ndarray, constellation: str) -> np.ndarray:
    """Hard-decision index of each symbol, the inverse of
    :func:`symbol_table`; any shape."""
    symbols = np.asarray(symbols)
    if constellation == "QPSK":
        return 2 * (symbols.real < 0) + (symbols.imag < 0)
    if constellation == "QAM16":
        def digit(v):
            rank = np.clip(np.round((v * np.sqrt(10) + 3) / 2), 0, 3)
            return _QAM16_RANK_DIGITS[rank.astype(int)]

        return 4 * digit(symbols.real) + digit(symbols.imag)
    raise ValueError(f"unsupported constellation {constellation!r}")


# ---------------------------------------------------------------------------
# grid placement
# ---------------------------------------------------------------------------

def data_indices(L: int) -> np.ndarray:
    """Row indices carrying data: the first and last L/4 positions."""
    return np.r_[0:L // 4, L - L // 4:L]


def place_grid(d: np.ndarray, L: int, K: int) -> np.ndarray:
    """L x K grid of the data symbols ``d``, zero on the guard rows.

    ``d`` holds the (L/2)*K symbols of a frame along axis 0, column after
    column, each on the :func:`data_indices` rows; trailing axes are batch.
    The grid is Fortran-ordered, so each frame is contiguous.
    """
    d = np.asarray(d)
    if d.ndim == 0 or len(d) != (L // 2) * K:
        raise ValueError(f"expected {(L // 2) * K} symbols along axis 0, "
                         f"got shape {d.shape}")
    D = d.reshape((L // 2, K) + d.shape[1:], order="F")
    A = np.zeros((L, K) + d.shape[1:], dtype=complex, order="F")
    A[:L // 4] = D[:L // 4]
    A[L - L // 4:] = D[L // 4:]
    return A


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

    @property
    def band(self) -> tuple:
        """Inner 1/``AFDM_OOBE_OVERSAMPLE`` of the :meth:`spectrum` record."""
        half = 1 / (2 * AFDM_OOBE_OVERSAMPLE)
        return (-half, half)

    def modulate(self, d: np.ndarray) -> np.ndarray:
        """Signal of the data symbols ``d``, the L_a*K of each frame along
        axis 0, symbol after symbol; trailing axes are batch.

        Each symbol is the adjoint affine transform of its L_a data after a
        chirp-periodic prefix. The prefix copies the tail of the body with
        the quadratic phase continuation that makes a linear delay-Doppler
        channel act circularly on the body, so the channel module's
        circular model applies exactly.
        """
        d, L_a, cpp_len = np.asarray(d), self.L_a, self.cpp_len
        body = apply_daft(d.reshape((L_a, self.K) + d.shape[1:], order="F"),
                          self.chirps, adjoint=True)
        # each frame contiguous, so reshaping it is a view
        s = np.empty((L_a + cpp_len,) + body.shape[1:], complex, order="F")
        s[cpp_len:] = body
        s[:cpp_len] = scale_rows(prefix_phase(self.chirps.c1, L_a, cpp_len),
                                 body[L_a - cpp_len:])
        return s.reshape((-1,) + s.shape[2:], order="F")

    def spectrum(self, d: np.ndarray) -> np.ndarray:
        """The spectrum record of the frames of ``d``: their signal, each
        prefixed symbol interpolated ``AFDM_OOBE_OVERSAMPLE`` times alone."""
        s = self.modulate(d)  # Fortran-ordered: the reshapes are views
        x = s.reshape((self.M // self.K, -1), order="F")
        z = np.empty((AFDM_OOBE_OVERSAMPLE,) + x.shape, complex, order="F")
        z[0] = x  # phase 0, interleaved with the others sample by sample
        _interpolated_phases(np.fft.fft(x, axis=0), z[1:].transpose(1, 0, 2))
        return z.reshape((-1,) + s.shape[1:], order="F")

    def symbol_operands(self) -> tuple:
        """One symbol as :func:`~afbm.channel.effective_channels` takes it,
        ``(Y, w, adjoint, c1)``: the adjoint transform of the identity, no
        window (its L_a ones are the block a path's delay and Doppler count
        in), the forward transform and the prefix chirp rate."""
        chirps = self.chirps
        return (apply_daft(np.eye(self.L_a, dtype=complex), chirps,
                           adjoint=True),
                np.ones(self.L_a), lambda Z: apply_daft(Z, chirps), chirps.c1)


def prefix_phase(c1: float, n_body: int, cpp_len: int) -> np.ndarray:
    """``exp(-j2πc1(n_body² - 2 n_body (cpp_len - m)))``, m < cpp_len: the
    chirp-periodic prefix phase of a length-``n_body`` block."""
    m = np.arange(cpp_len)
    return np.exp(-2j * np.pi * c1 * (n_body ** 2 - 2 * n_body * (cpp_len - m)))
