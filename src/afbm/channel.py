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
separation score, and an MMSE equalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .transforms import ChirpPair, apply_synthesis, daft_matrix
from .filterbank import data_indices, single_symbol_filter
from .modem import AfbmModem, GridFrame, TimeSignal, WaveformParams


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


@dataclass(frozen=True)
class EffectiveChannel:
    """End-to-end L x L operator between spread symbols and demodulated
    samples (no compensation, single multicarrier symbol)."""

    H_eff: np.ndarray = field(repr=False, compare=False)


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


def apply_channel(signal: TimeSignal, H: np.ndarray, snr_db: float,
                  seed=None) -> TimeSignal:
    """Propagate through ``H`` and add complex white Gaussian noise.

    The per-sample noise variance is set from the actual received energy
    so that 10*log10(||H s||^2 / ||n||^2) targets ``snr_db``; ``snr_db =
    inf`` disables noise entirely. Deterministic under a fixed seed.
    """
    s = np.asarray(signal.s)
    if H.shape[1] != len(s):
        raise ValueError(f"channel expects {H.shape[1]} samples, got {len(s)}")
    r = H @ s
    if not np.isinf(snr_db):
        rng = np.random.default_rng(seed)
        nvar = np.sum(np.abs(r) ** 2) / len(r) / 10 ** (snr_db / 10)
        noise = np.sqrt(nvar / 2) * (rng.standard_normal(len(r))
                                     + 1j * rng.standard_normal(len(r)))
        r = r + noise
    return TimeSignal(s=r, f_s=signal.f_s)


def _spread_matrix(params: WaveformParams) -> np.ndarray:
    """Columns of the single-symbol uncompensated chain G~ * Q (M x L)."""
    cols = apply_synthesis(np.eye(params.dims.L, dtype=complex),
                           params.dims, params.chirps_mod)
    return single_symbol_filter(cols, params.filter)


def effective_channel(H: np.ndarray, params: WaveformParams) -> EffectiveChannel:
    """End-to-end L x L channel of one symbol: adjoint chain * H * chain.

    Spreading and filtering are applied column-wise through the fast
    transforms; equals the dense triple product of the assembled
    operators.
    """
    if params.K != 1:
        raise ValueError("effective channel is defined for K = 1")
    B = _spread_matrix(params)
    if H.shape != (B.shape[0],) * 2:
        raise ValueError(f"channel must be {B.shape[0]} x {B.shape[0]}")
    return EffectiveChannel(H_eff=B.conj().T @ (H @ B))


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
    if isinstance(H_eff, EffectiveChannel):
        H_eff = H_eff.H_eff
    energy = circular_diagonal_energy(H_eff)
    n = len(energy)
    predicted = set()
    for ref in references:
        if isinstance(ref, EffectiveChannel):
            ref = ref.H_eff
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


def mmse_equalize(x_tilde: np.ndarray, H_d: np.ndarray,
                  noise_var: float) -> np.ndarray:
    """Linear MMSE estimate (H_dᴴ H_d + noise_var I)⁻¹ H_dᴴ x̃.

    With ``noise_var = 0`` this is zero-forcing and raises if the system
    is singular.
    """
    x_tilde = np.asarray(x_tilde).ravel()
    n = H_d.shape[1]
    if H_d.shape[0] != len(x_tilde):
        raise ValueError("dimension mismatch between channel and input")
    A = H_d.conj().T @ H_d + noise_var * np.eye(n)
    return np.linalg.solve(A, H_d.conj().T @ x_tilde)


def normalized_path_parameters(delay_s: float, doppler_hz: float,
                               sample_rate: float, block_len: int):
    """Physical delay/Doppler to sample delay and cycles-per-block shift."""
    return (int(round(delay_s * sample_rate)),
            doppler_hz * block_len / sample_rate)
