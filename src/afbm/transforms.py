"""Unitary operators of the affine filter bank modulation core.

Every DFT-like operator here uses unitary (1/sqrt(n)) scaling so that all
transform round trips are exact isometries. The DFT kernel sign convention
is exp(+j*2*pi*k*l/n) and chirp diagonals rotate as exp(-j*2*pi*c*m^2).

The ``apply_*`` functions are FFT-based fast paths, tested against the
dense matrices of the test oracles. They transform along axis 0 and
treat any trailing axes as batch, so one call applies the operator to
every column of a stack of frames.

When ``c2 = 0`` the second chirp is the identity: ``apply_daft`` skips
it (exactly, the factor is 1), and the P-point DFT pair ``Fᴴ Λ_c2ᴴ F``
of the synthesis cancels, leaving the L-point chirp ``Λ_c1ᴴ``,
zero-padding and one N-point FFT (the adjoint mirrors it). Every
bundled configuration and every ``pick_chirp_params`` result has
``c2 = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChirpPair:
    """Digital chirp rates (cycles per sample^2) of an affine transform."""

    c1: float
    c2: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.c1) and np.isfinite(self.c2)):
            raise ValueError("chirp rates must be finite")
        if self.c1 < 0:
            raise ValueError("c1 must be >= 0 by convention")


@dataclass(frozen=True)
class DaftDims:
    """Static dimensions of one affine filter bank configuration.

    L: data subcarriers per symbol, P: chirp (spreading) length,
    N: filter bank DFT size. L <= P <= N with everything even and L
    divisible by 4 (half of the L positions carry data, split in two
    quarter blocks). P == N is permitted as a degenerate configuration.
    """

    L: int
    P: int
    N: int

    def __post_init__(self):
        for name in ("L", "P", "N"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise ValueError(f"{name} must be a positive integer")
            if v % 2:
                raise ValueError(f"{name} must be even, got {v}")
        if self.L % 4:
            raise ValueError(f"L must be divisible by 4, got {self.L}")
        if not (self.L <= self.P <= self.N):
            raise ValueError(
                f"need L <= P <= N, got L={self.L}, P={self.P}, N={self.N}")


def chirp_phase(c: float, n: int) -> np.ndarray:
    """Diagonal of the chirp matrix as a vector: exp(-j*2*pi*c*m^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not np.isfinite(c):
        raise ValueError("chirp rate must be finite")
    return np.exp(-2j * np.pi * c * np.arange(n) ** 2)


# ---------------------------------------------------------------------------
# fast application paths (FFT-based, vectorized over columns)
# ---------------------------------------------------------------------------

def scale_rows(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply row i of ``x`` (axis 0, any trailing batch axes) by ``v[i]``."""
    return v.reshape(v.shape + (1,) * (x.ndim - 1)) * x


def apply_dft(x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Apply the unitary (+j kernel) DFT matrix, or its adjoint, along axis 0."""
    if adjoint:
        return np.fft.fft(x, axis=0, norm="ortho")
    return np.fft.ifft(x, axis=0, norm="ortho")


def apply_daft(x: np.ndarray, chirps: ChirpPair, adjoint: bool = False) -> np.ndarray:
    """Apply the n-point affine transform (n = len of axis 0), or its adjoint."""
    n = x.shape[0]
    p1 = chirp_phase(chirps.c1, n)
    if adjoint:
        y = np.fft.fft(scale_rows(p1.conj(), x), axis=0, norm="ortho")
        if chirps.c2 == 0:
            return y
        return scale_rows(chirp_phase(chirps.c2, n).conj(), y)
    if chirps.c2 != 0:
        x = scale_rows(chirp_phase(chirps.c2, n), x)
    return scale_rows(p1, np.fft.ifft(x, axis=0, norm="ortho"))


def apply_freq_zero_pad(v: np.ndarray, N: int) -> np.ndarray:
    """Apply the N x P placement matrix along axis 0 (P = number of rows)."""
    P = v.shape[0]
    if N < P or N % 2 or P % 2:
        raise ValueError("invalid padding dimensions")
    shape = (N,) + v.shape[1:]
    w = np.zeros(shape, dtype=complex)
    w[:P // 2] = v[P // 2:]
    w[N - P // 2:] = v[:P // 2]
    return w


def apply_freq_zero_pad_adjoint(w: np.ndarray, P: int) -> np.ndarray:
    """Apply the transpose of the placement matrix: keep the outer P bins."""
    N = w.shape[0]
    if N < P or N % 2 or P % 2:
        raise ValueError("invalid padding dimensions")
    return np.concatenate([w[N - P // 2:], w[:P // 2]], axis=0)


def apply_synthesis(x: np.ndarray, dims: DaftDims, chirps: ChirpPair) -> np.ndarray:
    """Fast application of the N x L synthesis operator to L-row input."""
    if x.shape[0] != dims.L:
        raise ValueError(f"expected {dims.L} rows, got {x.shape[0]}")
    u = np.zeros((dims.P,) + x.shape[1:], dtype=complex)
    if chirps.c2 == 0:
        # the P-point DFT pair around Λ_c2ᴴ = I cancels: Λ_c1ᴴ alone
        u[:dims.L] = scale_rows(chirp_phase(chirps.c1, dims.L).conj(), x)
    else:
        u[:dims.L] = x
        u = apply_dft(apply_daft(u, chirps, adjoint=True))
    w = apply_freq_zero_pad(u, dims.N)
    return apply_dft(w, adjoint=True)


def apply_synthesis_adjoint(y: np.ndarray, dims: DaftDims, chirps: ChirpPair) -> np.ndarray:
    """Fast application of the adjoint synthesis operator to N-row input."""
    if y.shape[0] != dims.N:
        raise ValueError(f"expected {dims.N} rows, got {y.shape[0]}")
    u = apply_dft(y)
    v = apply_freq_zero_pad_adjoint(u, dims.P)
    if chirps.c2 == 0:
        return scale_rows(chirp_phase(chirps.c1, dims.L), v[:dims.L])
    v = apply_daft(apply_dft(v, adjoint=True), chirps)
    return v[:dims.L]
