"""Unitary operators of the affine filter bank modulation core.

Every DFT-like operator here uses unitary (1/sqrt(n)) scaling so that all
transform round trips are exact isometries. The DFT kernel sign convention
is exp(+j*2*pi*k*l/n) and chirp diagonals rotate as exp(-j*2*pi*c*m^2).

The ``apply_*`` functions are FFT-based fast paths, tested against the
dense matrices of the test oracles. They transform along axis 0 and
treat any trailing axes as batch, so one call applies the operator to
every column of a stack of frames. numpy's FFTs keep the memory order of
their input, so a Fortran-ordered stack is transformed along contiguous
columns.

The synthesis runs ``Λ_c1ᴴ`` on the L rows, the P-point ``Fᴴ Λ_c2ᴴ F``,
the placement of the P bins into N and one N-point DFT; its adjoint
runs the adjoint steps in reverse order. At ``c2 = 0`` the second chirp
is the identity (exactly, the factor is 1), so ``apply_daft`` skips its
multiply and the synthesis its P-point pair, whose P rows would be the
L chirped rows and zeros. Every bundled configuration and every
``pick_chirp_params`` result has ``c2 = 0``.

The bins ``(i - P/2) mod N`` of the rows i are one circular run from
``N - P/2``: the synthesis writes its L chirped rows (at ``c2 = 0``) or
the P rows of its P-point step straight into one pair of slices of a
Fortran-ordered array, zeroes the other bins and transforms it in place,
so its FFT and the filter bank after it read each column contiguously.
The adjoint reads the same pair of slices back.

The PAPR envelope and the baseline's spectrum record both take the
F-fold band-limited interpolation of a signal from here, phase by phase:
phase 0 is the signal itself, phase r an inverse FFT of its spectrum
times a ramp, the Nyquist bin of an even length split in half.
"""

from __future__ import annotations

import functools
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

def scale_rows(v: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """Multiply row i of ``x`` (axis 0) by ``v[i]``, into ``out`` if given."""
    return np.multiply(v.reshape(v.shape + (1,) * (x.ndim - 1)), x, out=out)


def apply_dft(x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Apply the unitary (+j kernel) DFT matrix, or its adjoint, along axis 0."""
    if adjoint:
        return np.fft.fft(x, axis=0, norm="ortho")
    return np.fft.ifft(x, axis=0, norm="ortho")


def apply_daft(x: np.ndarray, chirps: ChirpPair, adjoint: bool = False,
               out: np.ndarray | None = None) -> np.ndarray:
    """Apply the n-point affine transform (n = len of axis 0), or its
    adjoint, into ``out`` if given, which may be ``x`` itself."""
    n = x.shape[0]
    p1 = chirp_phase(chirps.c1, n)
    if adjoint:
        y = scale_rows(p1.conj(), x, out)
        np.fft.fft(y, axis=0, norm="ortho", out=y)
        if chirps.c2 != 0:
            scale_rows(chirp_phase(chirps.c2, n).conj(), y, y)
        return y
    if chirps.c2 != 0:
        x = scale_rows(chirp_phase(chirps.c2, n), x, out)
    y = np.fft.ifft(x, axis=0, norm="ortho", out=out)
    return scale_rows(p1, y, y)


def apply_synthesis(x: np.ndarray, dims: DaftDims, chirps: ChirpPair) -> np.ndarray:
    """Fast application of the N x L synthesis operator to L-row input: at
    ``c2 = 0`` no P-point step, the L rows chirped straight into bins."""
    if x.shape[0] != dims.L:
        raise ValueError(f"expected {dims.L} rows, got {x.shape[0]}")
    c = chirp_phase(chirps.c1, dims.L).conj()
    n = dims.L if chirps.c2 == 0 else dims.P  # the rows placed
    # the bins (i - P/2) mod N of the rows i run circularly from N - P/2
    start, head = dims.N - dims.P // 2, min(n, dims.P // 2)
    w = np.empty((dims.N,) + x.shape[1:], dtype=complex, order="F")
    w[n - head:start], w[start + head:] = 0, 0  # the bins left empty
    if chirps.c2 == 0:
        scale_rows(c[:head], x[:head], w[start:start + head])
        scale_rows(c[head:], x[head:], w[:n - head])
    else:  # the P-point Fᴴ Λ_c2ᴴ F, its input padded to P
        u = np.fft.fft(scale_rows(c, x), n=dims.P, axis=0, norm="ortho")
        u = apply_dft(scale_rows(chirp_phase(chirps.c2, dims.P).conj(), u))
        w[start:start + head], w[:n - head] = u[:head], u[head:]
    return np.fft.fft(w, axis=0, norm="ortho", out=w)  # apply_dft's adjoint


def apply_synthesis_adjoint(y: np.ndarray, dims: DaftDims, chirps: ChirpPair) -> np.ndarray:
    """Fast application of the adjoint synthesis operator to N-row input,
    reading the run of bins :func:`apply_synthesis` writes: its first L
    rows at ``c2 = 0``, where the P-point step is skipped, all P otherwise."""
    if y.shape[0] != dims.N:
        raise ValueError(f"expected {dims.N} rows, got {y.shape[0]}")
    w = apply_dft(y)
    n = dims.L if chirps.c2 == 0 else dims.P  # the rows the synthesis placed
    start, head = dims.N - dims.P // 2, min(n, dims.P // 2)
    v = np.concatenate((w[start:start + head], w[:n - head]))
    if chirps.c2 != 0:  # the adjoint P-point step
        v = apply_dft(v, adjoint=True)
        v = apply_dft(scale_rows(chirp_phase(chirps.c2, dims.P), v))[:dims.L]
    return scale_rows(chirp_phase(chirps.c1, dims.L), v)


# ---------------------------------------------------------------------------
# band-limited interpolation, phase by phase
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _phase_ramps(M: int, F: int) -> np.ndarray:
    """M x (F - 1) spectral ramps of the F-fold interpolation of an
    M-sample signal: column r - 1 is ``exp(2πj k r / (F M))`` of the
    signed bin k, and ``cos(πr / F)`` on the split Nyquist bin of an even
    M. Fortran-ordered and read-only; cached, as each PAPR call needs
    them and they took a tenth of its time."""
    k = np.arange(M)
    k[(M + 1) // 2:] -= M
    r = np.arange(1, F)
    t = np.exp(2j * np.pi * np.outer(k, r) / (F * M))
    if M % 2 == 0:
        t[M // 2] = np.cos(np.pi * r / F)
    t = np.asfortranarray(t)  # each ramp contiguous: 3x faster products
    t.flags.writeable = False
    return t


def _interpolated_phases(X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Phases 1 to F - 1 of the F-fold interpolation of the signals whose
    M-point spectra are the columns of ``X`` (M x batch), written into
    ``out`` (M x (F - 1) x batch) and returned: ``out[m, r - 1]``, sample
    ``F m + r``, is the inverse FFT of ``X`` times :func:`_phase_ramps`."""
    ramps = _phase_ramps(len(X), out.shape[1] + 1)
    np.multiply(ramps[:, :, None], X[:, None], out=out)
    return np.fft.ifft(out, axis=0, out=out)
