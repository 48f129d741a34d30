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

:meth:`ChannelSpec.apply` applies ``H`` without building it: path r
rolls the input down by l_r samples and scales row m by h_r times the
m-th entries of Phi_r and Z^{f_r}, O(paths * M) per column.

Also here: the chirp-rate feasibility rule for keeping paths separable,
the effective channels ``Bᴴ H B`` of a waveform basis ``B`` (the whole
channel and each distinct path) and a path separation score. The BER
detector needs no receive model of its own: it whitens its noise, which
cancels the receive gains, so the transmit basis ``S`` gives its whole
linear model (see :func:`afbm.metrics.ber_experiment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .transforms import ChirpPair
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

    def apply(self, S: np.ndarray) -> np.ndarray:
        """``H S``: the sum over paths of gain times prefix phase times
        Doppler ramp times ``S`` rolled down by the delay, along axis 0;
        trailing axes of ``S`` are batch."""
        S = np.asarray(S)
        out = self._apply_path(self.paths[0], S, np.empty(S.shape, complex))
        term = np.empty_like(out)
        for p in self.paths[1:]:
            out += self._apply_path(p, S, term)
        return out

    def _apply_path(self, p: PathSpec, S: np.ndarray, out: np.ndarray):
        """Path ``p``'s term of :meth:`apply`, written into ``out`` (shaped
        like ``S``) and returned."""
        M, delay = self.M, p.delay
        if len(S) != M:
            raise ValueError(f"channel expects {M} samples, got {len(S)}")
        d = p.gain * np.exp(-2j * np.pi * p.doppler * np.arange(M) / M)
        d[:delay] *= prefix_phase(self.c1, M, delay)
        d = d.reshape(d.shape + (1,) * (S.ndim - 1))
        # rows m >= delay take S[m - delay]; the first delay rows wrap
        np.multiply(d[delay:], S[:M - delay], out=out[delay:])
        np.multiply(d[:delay], S[M - delay:], out=out[:delay])
        return out


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


def effective_channels(spec: ChannelSpec, B: np.ndarray):
    """Effective channels ``Bᴴ H B`` of a basis ``B`` (M x n, one column
    per symbol position, e.g. the :func:`spread` identity or the baseline's
    adjoint affine transform).

    Returns ``(total, references)``: ``references`` holds ``Bᴴ H_r B`` of
    the unit-gain channel of each distinct ``(delay, doppler)`` path, in
    first-seen order, and ``total`` is their sum weighted by each path's
    gain, which is ``Bᴴ H B`` because the map is linear in ``H``.
    """
    Bh = B.conj().T
    HB = np.empty(B.shape, dtype=complex)  # H_r B of each path in turn
    refs = {}
    total = 0
    for p in spec.paths:
        key = (p.delay, p.doppler)
        if key not in refs:
            refs[key] = Bh @ spec._apply_path(replace(p, gain=1.0), B, HB)
        total = total + p.gain * refs[key]
    return total, list(refs.values())


def circular_diagonal_energy(H: np.ndarray) -> np.ndarray:
    """Energy on each circular diagonal: out[d] = sum_i |H[i, (i+d) % n]|^2."""
    n = H.shape[0]
    i = np.arange(n)
    return np.sum(np.abs(H[i[:, None], (i[:, None] + i[None, :]) % n]) ** 2,
                  axis=0)


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

