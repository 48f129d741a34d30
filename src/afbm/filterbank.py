"""Prototype filters, the overlap-add filter bank and its adjoint, and
the Gram of one symbol's columns through the filter, whose diagonal
gives the compensation vector that restores complex orthogonality.

The filter bank returns Fortran-ordered frames, each one contiguous
column. It overlap-adds by half-blocks of N/2 samples, each half-block
of the pulse windowing one half of every symbol at once, with no
gathered periodic extension; the analysis runs the mirror loop.
:func:`fold` of the squared pulse is its period-N power profile.

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
* ``RECT`` -- constant window, overlap 1: the reference prototype
  without overlap, whose power fold is flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermval

from .transforms import scale_rows

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


def fold(v: np.ndarray, N: int, start: int = 0) -> np.ndarray:
    """Period-N fold along axis 0, trailing axes batch: ``out[i]``, i < N,
    is the sum of ``v[j]`` over the j with ``(start + j) mod N == i``,
    added in ascending j when N > 1."""
    lead = start % N
    rows = np.zeros((-(-(lead + len(v)) // N) * N,) + v.shape[1:], v.dtype)
    rows[lead:lead + len(v)] = v
    return rows.reshape((-1, N) + v.shape[1:]).sum(axis=0)


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
        d = fold(h ** 2, N)
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
    axes; the output is the length-M time signal (M x batch),
    Fortran-ordered, so each frame is contiguous.

    The sum runs by half-blocks of N/2 samples, with no gather: half-block
    j of the pulse windows half ``j % 2`` of every symbol at once and
    lands in output half-blocks ``j … j+K-1``. The loop runs j downwards
    from a zeroed output, so every sample adds its symbols in ascending
    order, as a symbol-by-symbol overlap-add does.
    """
    N, K = y.shape[:2]
    if N != filt.N:
        raise ValueError("row count must equal the filter bank size")
    hop = N // 2
    s = np.zeros((output_length(filt, K),) + y.shape[2:], dtype=complex,
                 order="F")
    blocks = s.reshape((hop, -1) + y.shape[2:], order="F")  # a view
    for j in reversed(range(filt.length // hop)):
        g = filt.coeffs[j * hop:(j + 1) * hop]
        blocks[:, j:j + K] += scale_rows(g, y[j % 2 * hop:(j % 2 + 1) * hop])
    return s


def apply_filter_bank_adjoint(r: np.ndarray, filt: PrototypeFilter, K: int) -> np.ndarray:
    """Fast analysis, the mirror of :func:`apply_filter_bank`: half-block
    j of the pulse windows output half-blocks ``j … j+K-1`` of ``r`` and
    adds them to half ``j % 2`` of every symbol at once.

    ``r`` is the length-M time signal, optionally with trailing batch
    axes; the output is N x K (x batch). The loop runs j upwards, so each
    symbol sums its pulse's samples in ascending order, as a fold of its
    windowed span to period N does, and a batch equals per-column calls.
    """
    hop = filt.N // 2
    if len(r) != output_length(filt, K):
        raise ValueError("input length does not match K symbols")
    z = np.zeros((filt.N, K) + r.shape[1:], dtype=complex)
    blocks = r.reshape((hop, -1) + r.shape[1:], order="F")
    for j in range(filt.length // hop):
        g = filt.coeffs[j * hop:(j + 1) * hop]
        z[j % 2 * hop:(j % 2 + 1) * hop] += scale_rows(g, blocks[:, j:j + K])
    return z


def compensation_vector(cols: np.ndarray, filt: PrototypeFilter) -> np.ndarray:
    """Real gain of each one-symbol column of ``cols`` (N x n): the
    inverse square root of its power gain through the filter, the
    diagonal of :func:`fold_gram`, taken as fold-weighted norms."""
    w = fold(filt.coeffs ** 2, filt.N)
    c = np.einsum("i,ij,ij->j", w, cols.conj(), cols).real
    bad = c <= _SINGULAR_TOL
    if np.any(bad):
        raise ArithmeticError(
            "singular compensation: chain gain vanished at data columns "
            f"{np.flatnonzero(bad).tolist()}")
    return 1 / np.sqrt(c)


def fold_gram(cols: np.ndarray, filt: PrototypeFilter) -> np.ndarray:
    """Gram of the one-symbol columns ``cols`` (N x n) through the filter,
    ``colsᴴ diag(w) cols`` with ``w`` the :func:`fold` of the squared
    prototype: sample m of a filtered column is ``g[m] col[m mod N]``."""
    return cols.conj().T @ scale_rows(fold(filt.coeffs ** 2, filt.N), cols)
