"""Prototype filters, the overlap-add filter bank and its adjoint, and
the compensation vector that restores complex orthogonality of the
filtered chain.

The three built-in prototypes:

* ``PHYDYAS`` -- the frequency-sampled prototype with the standard
  published frequency coefficients, very low sidelobes, integer overlap
  up to 4.
* ``HERMITE`` -- a weighted sum of Hermite functions (orders 0, 4, ...,
  20 with the classic localization weights), truncated to overlap 1.5.
  The raw envelope is divided by the square root of its period-N power
  fold so the folded power profile is exactly flat; that flatness is
  what makes the compensated transceiver chain exactly orthogonal at
  overlap <= 1.5. Finally the pulse is scaled to unit energy.
* ``RECT`` -- constant window, overlap 1, test-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermval

from .transforms import (ChirpPair, DaftDims, apply_daft, apply_synthesis,
                         scale_rows)

# frequency-domain coefficients H_1..H_{O-1} of the frequency-sampled
# prototype, per overlap factor (H_0 = 1 always)
_PHYDYAS_TAILS = {
    1: [],
    2: [np.sqrt(2) / 2],
    3: [0.91143783, 0.41143783],
    4: [0.97195983, 1 / np.sqrt(2), 0.23514695],
}

# weights of the Hermite-function orders 0, 4, ..., 20
_HERMITE_WEIGHTS = {
    0: 1.412692577,
    4: -3.0145e-3,
    8: -8.8041e-6,
    12: -2.2611e-9,
    16: -4.4570e-15,
    20: 1.8633e-16,
}

_SINGULAR_TOL = 1e-12

MAX_OVERLAP = 4  # symbols per pulse; the PHYDYAS table ends at 4


@dataclass(frozen=True)
class PrototypeFilter:
    """Real prototype pulse of length overlap*N with unit energy."""

    kind: str
    overlap: float
    N: int
    coeffs: np.ndarray = field(repr=False, compare=False)

    @property
    def length(self) -> int:
        return len(self.coeffs)


def _check_overlap(overlap: float, N: int) -> int:
    if overlap > MAX_OVERLAP:
        raise ValueError(f"overlap must be <= {MAX_OVERLAP}, got {overlap}")
    two_o = overlap * 2
    if abs(two_o - round(two_o)) > 1e-12:
        raise ValueError(f"2*overlap must be an integer, got overlap={overlap}")
    on = overlap * N
    if abs(on - round(on)) > 1e-9:
        raise ValueError(f"overlap*N must be an integer, got {on}")
    return int(round(on))


def fold_power(coeffs: np.ndarray, N: int) -> np.ndarray:
    """Period-N fold of the squared pulse: out[i] = sum_p coeffs[i+p*N]^2."""
    out = np.zeros(N)
    for p in range(math.ceil(len(coeffs) / N)):
        seg = coeffs[p * N:(p + 1) * N] ** 2
        out[:len(seg)] += seg
    return out


def _hermite_envelope(overlap: float, N: int) -> np.ndarray:
    length = _check_overlap(overlap, N)
    m = np.arange(length)
    t = (m - (length - 1) / 2) / N
    x = np.sqrt(2 * np.pi) * np.sqrt(2) * t
    h = np.zeros(length)
    for order, w in _HERMITE_WEIGHTS.items():
        basis = np.zeros(order + 1)
        basis[order] = 1
        h += w * hermval(x, basis)
    return h * np.exp(-2 * np.pi * t ** 2)


def prototype_filter(kind: str, overlap: float, N: int) -> PrototypeFilter:
    """Build one of the supported prototype pulses, unit-energy normalized."""
    kind = kind.upper()
    length = _check_overlap(overlap, N)
    if kind == "PHYDYAS":
        if abs(overlap - round(overlap)) > 1e-12 or not 1 <= overlap <= 4:
            raise ValueError("PHYDYAS requires integer overlap <= 4")
        tail = _PHYDYAS_TAILS[int(round(overlap))]
        m = np.arange(length)
        g = np.ones(length)
        for k, hk in enumerate(tail, start=1):
            # half-sample offset keeps the even symmetry g[m] = g[len-1-m]
            g += 2 * (-1) ** k * hk * np.cos(2 * np.pi * k * (m + 0.5) / length)
    elif kind == "HERMITE":
        h = _hermite_envelope(overlap, N)
        d = fold_power(h, N)
        if d.min() <= _SINGULAR_TOL:
            raise ValueError("degenerate Hermite fold; unsupported overlap/N")
        g = h / np.sqrt(d[np.arange(length) % N])
    elif kind == "RECT":
        if overlap != 1:
            raise ValueError("RECT is defined for overlap 1 only")
        g = np.ones(length)
    else:
        raise ValueError(f"unsupported filter kind {kind!r}")
    g = g / np.linalg.norm(g)
    return PrototypeFilter(kind=kind, overlap=float(overlap), N=N, coeffs=g)


def output_length(filt: PrototypeFilter, K: int) -> int:
    """Number of time samples produced by K symbols overlapped every N/2."""
    return filt.length + (filt.N // 2) * (K - 1)


def apply_filter_bank(y: np.ndarray, filt: PrototypeFilter) -> np.ndarray:
    """Fast synthesis: overlap-add of the windowed periodic extensions.

    ``y`` is N x K (one column per symbol), optionally with trailing batch
    axes; the output is the length-M time signal (M x batch).
    """
    N, K = y.shape[:2]
    if N != filt.N:
        raise ValueError("row count must equal the filter bank size")
    idx = np.arange(filt.length) % N
    if K == 1:  # window the gathered samples in place: one M x batch array
        s = np.asarray(y[idx, 0], dtype=complex)
        s *= filt.coeffs.reshape((-1,) + (1,) * (y.ndim - 2))
        return s
    s = np.zeros((output_length(filt, K),) + y.shape[2:], dtype=complex)
    hop = N // 2
    for k in range(K):
        s[k * hop:k * hop + filt.length] += scale_rows(filt.coeffs, y[idx, k])
    return s


def apply_filter_bank_adjoint(r: np.ndarray, filt: PrototypeFilter, K: int) -> np.ndarray:
    """Fast analysis: window each symbol's span and fold it to period N.

    ``r`` is the length-M time signal, optionally with trailing batch
    axes; the output is N x K (x batch). Every span is folded in the same
    order as for a lone column, so a batch equals per-column calls.
    """
    N = filt.N
    hop = N // 2
    if len(r) != output_length(filt, K):
        raise ValueError("input length does not match K symbols")
    z = np.zeros((N, K) + r.shape[1:], dtype=complex)
    for k in range(K):
        seg = scale_rows(filt.coeffs, r[k * hop:k * hop + filt.length])
        for p in range(0, filt.length, N):
            part = seg[p:p + N]
            z[:len(part), k] += part
    return z


def data_indices(L: int) -> np.ndarray:
    """Row indices carrying data: the first and last L/4 positions."""
    return np.r_[0:L // 4, L - L // 4:L]


def compensation_vector(dims: DaftDims, chirps_pre: ChirpPair,
                        chirps_mod: ChirpPair,
                        filt: PrototypeFilter) -> np.ndarray:
    """Real gains of the L/2 data positions, in :func:`data_indices`
    order: the inverse square root of each one's power gain through the
    single-symbol chain (its Gram diagonal). The filter Gram collapses to
    the period-N power fold, so only the L/2 data columns are spread and
    their fold-weighted norms taken."""
    if filt.N != dims.N:
        raise ValueError("filter bank size must match dims.N")
    data = data_indices(dims.L)
    cols = apply_synthesis(apply_daft(np.eye(dims.L)[:, data], chirps_pre),
                           dims, chirps_mod)
    w = fold_power(filt.coeffs, dims.N)
    c = np.einsum("i,ij,ij->j", w, cols.conj(), cols).real
    bad = c <= _SINGULAR_TOL
    if np.any(bad):
        raise ArithmeticError(
            "singular compensation: chain gain vanished at data positions "
            f"{data[bad].tolist()}")
    return 1 / np.sqrt(c)
