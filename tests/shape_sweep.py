"""Every fast operator against its oracle on every small valid shape.

Enumerates every valid ``(L, P, N)`` up to a largest N and crosses it with
the prototypes, K in {1, 2, 3}, c2 zero and non-zero and both
compensation policies. Each configuration checks, against the dense
matrices and plain references of :mod:`oracles`:

* ``modulate`` against ``dense_transmit_matrix``, the power
  ``b_tx / b_rx`` of each of its compensated data columns (which holds
  the gains to their definition, as the dense matrix reads them from the
  same ``params.gains``), the adjoint pair
  ``<modulate(d), r> = <d, diag(b_tx / b_rx) demodulate(r)>`` and
  ``papr`` of the frames against the zero-padded oracle.

The checks that the policy does not change run once for both:
``spread``/``despread`` and ``apply_filter_bank`` with its adjoint, as
adjoint pairs, and the filter bank against its dense matrix, per shape,
prototype, K and c2; ``effective_channels`` of the symbol operands
against the dense ``Bᴴ H B`` on one path whose delay reaches past N, per
shape, prototype and c2 (one symbol, so K = 1); and the AFDM baseline's
``modulate`` and ``spectrum`` against its symbol-by-symbol oracles, per
shape, K and c2, of which it reads L alone.

The tier-1 suite runs it up to N = 16 (``test_shape_sweep.py``); CI runs
it up to N = 32 as a script::

    PYTHONPATH=src python tests/shape_sweep.py 32
"""

import sys
from dataclasses import replace

import numpy as np

from afbm.channel import PathSpec, effective_channels
from afbm.filterbank import (apply_filter_bank, apply_filter_bank_adjoint,
                             prototype_filter)
from afbm.metrics import papr
from afbm.modem import AfdmParams, WaveformParams, despread, spread
from afbm.transforms import ChirpPair, DaftDims
from oracles import (afdm_symbol, assemble_filter_matrix, build_channel,
                     dense_transmit_matrix, papr_zero_padded,
                     spectral_interpolate, synthesis_matrix)

PROTOTYPES = (("HERMITE", 1), ("HERMITE", 1.5), ("PHYDYAS", 2),
              ("PHYDYAS", 4), ("RECT", 1))
C2 = (0.0, 0.0123)
KS = (1, 2, 3)
POLICIES = ("split", "tx")
TOL = 1e-12  # relative to the scale of each compared quantity


def valid_dims(max_n):
    """Every valid (L, P, N) with N <= ``max_n``: all even, L a multiple
    of 4 and L <= P <= N."""
    return [DaftDims(L, P, N) for N in range(4, max_n + 1, 2)
            for P in range(4, N + 1, 2) for L in range(4, P + 1, 4)]


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(a, b, scale=1.0):
    return np.abs(a - b).max() <= TOL * scale


def _adjoint_pair(x, ax, y, aty):
    """``<A x, y> = <x, Aᴴ y>`` for ``ax = A x`` and ``aty = Aᴴ y``."""
    tol = TOL * np.linalg.norm(x) * np.linalg.norm(y)
    return abs(np.vdot(ax, y) - np.vdot(x, aty)) <= tol


def check_waveform(params, rng):
    """The frame checks of one AFBM configuration; the name of the first
    that fails, or None."""
    n, M, K = params.data_per_frame, params.M, params.K
    T = params.modulate(np.eye(n, dtype=complex))
    if not _close(T, dense_transmit_matrix(params)):
        return "modulate"
    b_tx, b_rx = params.gains
    # compensated, each data column carries the power b_tx / b_rx
    if not _close(np.square(np.linalg.norm(T, axis=0)),
                  np.tile(b_tx / b_rx, K), b_tx.max() / b_rx.min()):
        return "compensation"
    d, r = _crandn(rng, n, 2), _crandn(rng, M, 2)
    back = np.tile(b_tx / b_rx, K)[:, None] * params.demodulate(r)
    s = T @ d
    if not _adjoint_pair(d, s, r, back):
        return "modulate/demodulate"
    if not _close(papr(s), papr_zero_padded(s)):
        return "papr"
    return None


def check_chain(params, rng):
    """``spread``/``despread`` and the filter bank of one AFBM shape,
    prototype, K and c2, which the policy does not change; the name of the
    first check that fails, or None."""
    L, N, K, M = params.dims.L, params.dims.N, params.K, params.M
    r = _crandn(rng, M, 2)
    X = _crandn(rng, L, K, 2)
    if not _adjoint_pair(X, spread(X, params), r, despread(r, params)):
        return "spread/despread"
    Y = _crandn(rng, N, K, 2)
    G = assemble_filter_matrix(params.filter, K)
    S = apply_filter_bank(Y, params.filter)
    if not _close(S, G @ Y.reshape(-1, 2, order="F"), np.abs(Y).max()):
        return "apply_filter_bank"
    Z = apply_filter_bank_adjoint(r, params.filter, K)
    if not _adjoint_pair(Y, S, r, Z):
        return "apply_filter_bank_adjoint"
    return None


def check_effective_channel(params):
    """``effective_channels`` of the symbol operands against the dense
    ``Bᴴ H B`` of one symbol on one path, its delay past N where the
    window is longer than N; the name of the check, or None."""
    Y, w, adjoint, c1 = params.symbol_operands()
    M = len(w)
    path = PathSpec(0.8 - 0.6j, (2 * M) // 3, 1.37)
    total, _ = effective_channels((path,), Y, w, adjoint, c1)
    B = (assemble_filter_matrix(params.filter, 1)
         @ synthesis_matrix(params.dims, params.chirps_mod))
    if not _close(total, B.conj().T @ build_channel((path,), M, c1) @ B):
        return "effective_channels"
    return None


def check_afdm(afdm, rng):
    """The baseline's ``modulate`` and ``spectrum`` against the oracle
    built symbol by symbol; the name of the first that fails, or None."""
    X = _crandn(rng, afdm.L_a, afdm.K)
    symbols = [afdm_symbol(X[:, k], afdm.chirps, afdm.cpp_len)
               for k in range(afdm.K)]
    d = X.ravel(order="F")
    if not _close(afdm.modulate(d), np.concatenate(symbols),
                  np.abs(X).max()):
        return "afdm modulate"
    expected = np.concatenate([spectral_interpolate(s, 2) for s in symbols])
    if not _close(afdm.spectrum(d), expected, np.abs(X).max()):
        return "afdm spectrum"
    return None


def sweep(max_n, seed=0):
    """Run every check on every configuration up to N = ``max_n``; return
    the number of AFBM configurations checked and the failures, each a
    ``(check, configuration)`` pair."""
    rng = np.random.default_rng(seed)
    count, failures = 0, []

    def note(fault, what):
        if fault is not None:
            failures.append((fault, what))

    for dims in valid_dims(max_n):
        L, P, N = dims.L, dims.P, dims.N
        for c2 in C2:
            pre, mod = ChirpPair(0.0211, c2), ChirpPair(0.0371, c2)
            for K in KS:
                afdm = AfdmParams(L_a=L, K=K, chirps=mod, cpp_len=L // 4)
                note(check_afdm(afdm, rng), (L, K, c2))
            for kind, overlap in PROTOTYPES:
                try:
                    filt = prototype_filter(kind, overlap, N)
                except ValueError:
                    continue  # a combination the constructor refuses
                one = WaveformParams(dims=dims, K=1, chirps_pre=pre,
                                     chirps_mod=mod, filter=filt)
                note(check_effective_channel(one),
                     (L, P, N, kind, overlap, c2))
                for K in KS:
                    what = (L, P, N, kind, overlap, K, c2)
                    note(check_chain(replace(one, K=K), rng), what)
                    for policy in POLICIES:
                        params = replace(one, K=K, compensation=policy)
                        count += 1
                        note(check_waveform(params, rng), what + (policy,))
    return count, failures


if __name__ == "__main__":
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    count, failures = sweep(max_n)
    for check, what in failures[:20]:
        print(f"FAIL {check}: {what}")
    print(f"{count} configurations up to N = {max_n}, "
          f"{len(failures)} failures")
    sys.exit(1 if failures else 0)
