"""Doubly-dispersive (delay-Doppler) channel model and related tools.

The channel acting on one transmitted block of length M is the circular
model

    H = sum_r  h_r * Phi_r * Z^{f_r} * Pi^{l_r}

where Pi is the circular left shift, Z^f = diag(exp(-j*2*pi*f*m/M)) the
Doppler rotation (fractional f allowed), and Phi_r the quadratic prefix
phase that makes the circular model identical to linear propagation of a
chirp-periodic-prefixed block: its first l_r diagonal entries are
exp(-j*2*pi*c1*(M^2 - 2*M*(l_r - m))) for row m < l_r and ones elsewhere,
the phase that :func:`afbm.modem.prefix_phase` gives the baseline's prefix.

A path's delay l_r counts samples of the block the channel is handed
and its Doppler f_r cycles over that block. For AFBM the block is the
prototype's length, in ``effchan`` and in the K = 1 frames of ``ber``
alike (384 samples at fig3, 1024 at fig4, 512 at fig2); for the
baseline it is the L_a-sample body. The same f_r is thus a different
Doppler per sample for each waveform and prototype (ROADMAP item 11).

:func:`apply_paths` applies ``H`` to a block without building it, M
being the block's length: path r rolls the input down by l_r samples and
scales row m by h_r times the m-th entries of Phi_r and Z^{f_r},
O(paths * M) per column. :func:`unit_power` scales the path gains to
unit total power.

Also here: the chirp-rate feasibility rule for keeping paths separable,
:func:`effective_channels`, the effective channels ``Bᴴ H B`` of a
waveform's one-symbol basis ``B`` (the whole channel and each distinct
path), each path folded onto the N rows of the columns before the
window and finished by the waveform's fast adjoint, and a path
separation score. The BER detector needs no receive model of its own:
it whitens its noise, which cancels the receive gains, so the transmit
basis ``S`` gives its whole linear model (see
:func:`afbm.metrics.ber_experiment`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .filterbank import fold
from .transforms import ChirpPair, scale_rows
from .modem import prefix_phase


@dataclass(frozen=True)
class PathSpec:
    """One resolvable propagation path."""

    gain: complex
    delay: int
    doppler: float

    def __post_init__(self):
        if (isinstance(self.delay, bool)
                or not isinstance(self.delay, (int, np.integer))
                or self.delay < 0):
            raise ValueError(
                f"delay must be a nonnegative integer, got {self.delay!r}")
        for name, kind in (("gain", numbers.Complex),
                           ("doppler", numbers.Real)):
            v = getattr(self, name)  # a bool is not a number
            if (isinstance(v, bool) or not isinstance(v, kind)
                    or not np.isfinite(v)):
                raise ValueError(f"{name} must be a finite "
                                 f"{kind.__name__.lower()} number, got {v!r}")


def unit_power(paths) -> tuple:
    """The same paths with gains scaled to unit total power, the sum of
    |gain|² over the paths as listed. The sum is taken of the gains over
    the power of two at or below their largest real or imaginary part in
    magnitude, an exact division: no gain squares past the float range,
    gains scaled by a power of two give the same result to the bit, and
    gains whose largest part lies in [1, 2) are not changed by it. Gains
    that are all zero are refused, and so are paths that cancel: the
    channel is zero when the scaled gains of each distinct ``(delay,
    doppler)`` sum to zero."""
    big = max(max(abs(p.gain.real), abs(p.gain.imag)) for p in paths)
    if not big:
        raise ValueError(
            "total path power must be positive and finite, got 0.0")
    unit = 2.0 ** (math.frexp(big)[1] - 1)
    gains = [p.gain / unit for p in paths]
    scale = 1 / math.sqrt(sum(abs(g) ** 2 for g in gains))
    scaled = tuple(replace(p, gain=g * scale) for p, g in zip(paths, gains))
    net = {}
    for p in scaled:
        net[p.delay, p.doppler] = net.get((p.delay, p.doppler), 0) + p.gain
    if not any(net.values()):
        raise ValueError("the paths cancel: the gains of each distinct "
                         "(delay, doppler) sum to zero")
    return scaled


def apply_paths(paths, S: np.ndarray, c1: float = 0.0) -> np.ndarray:
    """``H S``: the sum over paths of gain times prefix phase (chirp rate
    ``c1``) times Doppler ramp times ``S`` rolled down by the delay, along
    axis 0, whose length is the block length M; trailing axes of ``S``
    are batch."""
    S = np.asarray(S)
    M = len(S)
    _check_paths(paths, M)
    terms = (scale_rows(_path_diagonal(p, M, c1),
                        np.roll(S, p.delay, axis=0)) for p in paths)
    out = next(terms)
    for term in terms:
        out += term
    return out


def _check_paths(paths, M: int) -> None:
    if len(paths) < 1:
        raise ValueError("need at least one path")
    for p in paths:
        if p.delay >= M:
            raise ValueError(f"path delay {p.delay} must be < M={M}")


def _path_diagonal(p: PathSpec, M: int, c1: float) -> np.ndarray:
    """Row m's factor of path ``p`` on an M-sample block: the gain times
    the Doppler ramp, times the prefix phase (chirp rate ``c1``) on the
    first ``p.delay`` rows, the ones that wrap."""
    d = p.gain * np.exp(-2j * np.pi * p.doppler * np.arange(M) / M)
    d[:p.delay] *= prefix_phase(c1, M, p.delay)
    return d


def pick_chirp_params(ell_max: int, f_max: float, xi: int, P: int) -> ChirpPair:
    """Chirp rates keeping delay-Doppler paths separable on a P-point grid.

    Feasibility requires 2*(f_max + xi)*(ell_max + 1) + ell_max <= P;
    the returned rate is c1 = (2*(ceil(f_max) + xi) + 1)/(2*P), the usual
    choice that maps each unit of Doppler and delay to distinct circular
    offsets, with c2 = 0.
    """
    if P <= 0:
        raise ValueError("P must be positive")
    if ell_max < 0 or f_max < 0 or xi < 0:
        raise ValueError("ell_max, f_max and xi must be nonnegative")
    lhs = 2 * (f_max + xi) * (ell_max + 1) + ell_max
    if lhs > P:
        raise ValueError(
            f"infeasible chirp configuration: 2(f_max+xi)(ell_max+1)+ell_max "
            f"= {lhs} exceeds P = {P}")
    alpha = math.ceil(f_max) + xi
    return ChirpPair(c1=(2 * alpha + 1) / (2 * P), c2=0.0)


def check_paths_feasible(paths, xi: int, P: int) -> None:
    """Raise ``ValueError`` unless the paths' largest delay and largest
    |Doppler| meet the feasibility rule of :func:`pick_chirp_params` on a
    P-point grid."""
    pick_chirp_params(max(p.delay for p in paths),
                      max(abs(p.doppler) for p in paths), xi, P)


def effective_channels(paths, Y: np.ndarray, w: np.ndarray, adjoint,
                       c1: float = 0.0):
    """Effective channels ``Bᴴ H B`` of a one-symbol basis ``B`` (M x n,
    one column per symbol position), given as the N-row columns ``Y``
    (N x n) before the filter, the window ``w`` (length M) with
    ``B[m] = w[m] Y[m mod N]``, and ``adjoint``, the waveform's fast
    ``Yᴴ`` on N-row input; ``H`` is :func:`apply_paths` with the prefix
    chirp rate ``c1``: the four of a waveform's ``symbol_operands()``.

    Returns ``(total, references)``: ``references`` holds ``Bᴴ H_r B`` of
    the unit-gain channel of each distinct ``(delay, doppler)`` path, in
    first-seen order, and ``total`` is their sum weighted by each path's
    gain, which is ``Bᴴ H B`` because the map is linear in ``H``.
    """
    _check_paths(paths, len(w))
    refs = {}
    total = 0
    for p in paths:
        key = (p.delay, p.doppler)
        if key not in refs:
            refs[key] = adjoint(_fold_path(replace(p, gain=1.0), Y, w, c1))
        total = total + p.gain * refs[key]
    return total, list(refs.values())


def _fold_path(p: PathSpec, Y: np.ndarray, w: np.ndarray, c1: float):
    """``Z`` with ``Yᴴ Z = Bᴴ H_p B`` for the basis ``B[m] = w[m] Y[m mod N]``
    of :func:`effective_channels`.

    Row m of ``H_p B`` is ``d[m] w[m-l] Y[(m-l) mod N]``, indices mod M,
    ``d`` the :func:`_path_diagonal` and l the delay; ``Bᴴ`` weights it
    by ``conj(w[m])`` and sums the rows m of each residue mod N. The rows
    m >= l read ``Y`` rolled by l; the l wrapped rows read row
    ``(m - l + M) mod N``, ``Y`` rolled by l - M, the same roll only when
    N divides M. The work is O(M + N n), with no M-row array of columns.
    """
    M, N, delay = len(w), len(Y), p.delay
    q = w.conj() * _path_diagonal(p, M, c1) * np.roll(w, delay)
    late, wrapped = fold(q[delay:], N, delay), fold(q[:delay], N)
    if M % N == 0:
        return scale_rows(late + wrapped, np.roll(Y, delay, axis=0))
    return (scale_rows(late, np.roll(Y, delay, axis=0))
            + scale_rows(wrapped, np.roll(Y, delay - M, axis=0)))


def circular_diagonal_energy(H: np.ndarray) -> np.ndarray:
    """Energy on each circular diagonal: out[d] = sum_i |H[i, (i+d) % n]|^2,
    read from ``|H|²`` tiled twice as the strided view ``[i, i + d]``."""
    n = H.shape[0]
    E = np.abs(H) ** 2
    tiled = np.concatenate((E, E), axis=1)
    row, col = tiled.strides
    return np.lib.stride_tricks.as_strided(
        tiled, (n, n), (row + col, col), writeable=False).sum(axis=0)


def path_separation_metric(H_eff, references, xi: int = 0) -> float:
    """Fraction of channel energy within ``xi`` of the per-path offsets.

    ``references`` are single-path effective channels (one per distinct
    path, as :func:`effective_channels` returns them); each predicts an
    offset as the circular diagonal of its peak energy. No closed-form
    offset rule is assumed.
    """
    energy = circular_diagonal_energy(H_eff)
    offsets = np.array([np.argmax(circular_diagonal_energy(r))
                        for r in references], dtype=int)
    keep = np.zeros(len(energy), dtype=bool)
    keep[np.add.outer(offsets, np.arange(-xi, xi + 1)) % len(energy)] = True
    total = energy.sum()
    if total <= 0:
        raise ValueError("effective channel has no energy")
    return float(energy[keep].sum() / total)

