"""Doubly-dispersive (delay-Doppler) channel model and related tools.

The channel acting on one transmitted block of length M is the circular
model

    H = sum_r  h_r * Phi_r * Z^{f_r} * Pi^{l_r}

where Pi is the circular left shift, Z^f = diag(exp(-j*2*pi*f*m/M)) the
Doppler rotation (fractional f allowed), and Phi_r the quadratic prefix
phase that makes the circular model identical to linear propagation of a
chirp-periodic-prefixed block: its first l_r diagonal entries are
exp(-j*2*pi*c1*(M^2 - 2*M*(l_r - m))) for row m < l_r and ones elsewhere.

Also here: the chirp-rate feasibility rule for keeping paths separable,
the end-to-end effective channel of the filtered waveform, a path
separation score, and the data-to-data channel that the BER detector
equalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .transforms import ChirpPair, daft_matrix
from .filterbank import data_indices
from .modem import AfbmModem, GridFrame, TimeSignal, WaveformParams, spread


@dataclass(frozen=True)
class PathSpec:
    """One resolvable propagation path."""

    gain: complex
    delay: int
    doppler: float

    def __post_init__(self):
        if self.delay < 0 or int(self.delay) != self.delay:
            raise ValueError("delay must be a nonnegative integer")
        if not np.isfinite(self.doppler):
            raise ValueError("doppler must be finite")


@dataclass(frozen=True)
class ChannelSpec:
    """Paths plus the block length and the chirp rate of the prefix phase."""

    paths: tuple
    M: int
    c1: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if len(self.paths) < 1:
            raise ValueError("need at least one path")
        for p in self.paths:
            if p.delay >= self.M:
                raise ValueError(f"path delay {p.delay} must be < M={self.M}")

    def normalized(self) -> "ChannelSpec":
        """Same paths with gains scaled to unit total power."""
        power = sum(abs(p.gain) ** 2 for p in self.paths)
        if power <= 0:
            raise ValueError("total path power must be positive")
        scale = 1 / math.sqrt(power)
        paths = tuple(replace(p, gain=p.gain * scale) for p in self.paths)
        return ChannelSpec(paths=paths, M=self.M, c1=self.c1)


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


def build_channel(spec: ChannelSpec) -> np.ndarray:
    """Dense M x M circular delay-Doppler matrix of the given paths."""
    M = spec.M
    H = np.zeros((M, M), dtype=complex)
    m = np.arange(M)
    for p in spec.paths:
        doppler = np.exp(-2j * np.pi * p.doppler * m / M)
        phi = np.ones(M, dtype=complex)
        if p.delay:
            head = np.arange(p.delay)
            phi[:p.delay] = np.exp(
                -2j * np.pi * spec.c1 * (M ** 2 - 2 * M * (p.delay - head)))
        H[m, (m - p.delay) % M] += p.gain * phi * doppler
    return H


def effective_channel(H: np.ndarray, params: WaveformParams) -> np.ndarray:
    """End-to-end L x L channel of one symbol, ``Bᴴ H B``, between spread
    symbols and despread samples (no compensation); ``B`` is the
    :func:`spread` of the identity."""
    if params.K != 1:
        raise ValueError("effective channel is defined for K = 1")
    B = spread(np.eye(params.dims.L, dtype=complex)[:, None, :], params)
    if H.shape != (B.shape[0],) * 2:
        raise ValueError(f"channel must be {B.shape[0]} x {B.shape[0]}")
    return B.conj().T @ (H @ B)


def afdm_effective_channel(H: np.ndarray, chirps: ChirpPair) -> np.ndarray:
    """Chirp-domain channel of the prefix-based baseline: W * H * Wᴴ."""
    W = daft_matrix(chirps, H.shape[0])
    return W @ H @ W.conj().T


def circular_diagonal_energy(H: np.ndarray) -> np.ndarray:
    """Energy on each circular diagonal: out[d] = sum_i |H[i, (i+d) % n]|^2."""
    n = H.shape[0]
    i = np.arange(n)
    return np.sum(np.abs(H[i[:, None], (i[:, None] + i[None, :]) % n]) ** 2,
                  axis=0)


def path_separation_metric(H_eff, references, xi: int = 0) -> float:
    """Fraction of channel energy within ``xi`` of the per-path offsets.

    ``references`` are single-path effective channels (one per distinct
    path) computed by brute force through the same chain; each predicts
    an offset as the circular diagonal of its peak energy. Identical
    paths may share a reference. No closed-form offset rule is assumed.
    """
    energy = circular_diagonal_energy(H_eff)
    n = len(energy)
    predicted = set()
    for ref in references:
        predicted.add(int(np.argmax(circular_diagonal_energy(ref))))
    keep = np.zeros(n, dtype=bool)
    for off in predicted:
        for d in range(-xi, xi + 1):
            keep[(off + d) % n] = True
    total = energy.sum()
    if total <= 0:
        raise ValueError("effective channel has no energy")
    return float(energy[keep].sum() / total)


def single_path_references(spec: ChannelSpec, make_effective) -> list:
    """Unit-gain single-path effective channels for each distinct path.

    ``make_effective`` maps a dense channel matrix to the effective-domain
    matrix (e.g. a closure over ``effective_channel`` or the baseline's
    chirp-domain conjugation).
    """
    refs = []
    seen = set()
    for p in spec.paths:
        key = (p.delay, p.doppler)
        if key in seen:
            continue
        seen.add(key)
        one = ChannelSpec(paths=(replace(p, gain=1.0),), M=spec.M, c1=spec.c1)
        refs.append(make_effective(build_channel(one)))
    return refs


def data_restricted_channel(H: np.ndarray, modem: AfbmModem) -> np.ndarray:
    """Despread data-to-data channel seen by the symbol detector.

    Runs the full receive chain of ``modem`` over the channel response
    of each transmitted data symbol (single-symbol frame) and keeps the
    data rows: an (L/2) x (L/2) matrix suitable for linear equalization.
    """
    params = modem.params
    if params.K != 1:
        raise ValueError("detector channel is defined for K = 1")
    L = params.dims.L
    data = data_indices(L)
    A = np.zeros((L, 1, L // 2), dtype=complex)
    A[data, 0, np.arange(L // 2)] = 1.0
    R = H @ modem.modulate(GridFrame(A=A)).s
    return modem.demodulate(TimeSignal(s=R)).A[data, 0]
