"""Straightforward per-element and per-frame reference implementations.

The package runs these computations vectorized over stacks of frames;
the versions here do one element or one frame at a time, the plain way,
so the tests can check the fast paths against them.
"""

import numpy as np

from afbm.channel import (build_channel, data_restricted_channel,
                          mmse_equalize, pick_chirp_params)
from afbm.filterbank import output_length
from afbm.metrics import random_afbm_frame
from afbm.modem import AfbmModem, TimeSignal, extract_grid

_QAM16_AXIS_BITS = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}


def demap_symbols_dict(symbols, constellation):
    """Hard-decision demap of a 1-D symbol vector, one symbol at a time."""
    symbols = np.asarray(symbols).ravel()
    bits = []
    for sym in symbols:
        if constellation == "QPSK":
            bits += [int(sym.real < 0), int(sym.imag < 0)]
            continue
        for v in (sym.real, sym.imag):
            lvl = int(np.clip(np.round((v * np.sqrt(10) + 3) / 2), 0, 3))
            bits += _QAM16_AXIS_BITS[lvl]
    return np.array(bits, dtype=int)


def filter_bank_adjoint_add_at(r, filt, K):
    """Analysis filter bank of one 1-D signal by ``np.add.at`` folding."""
    hop = filt.N // 2
    if len(r) != output_length(filt, K):
        raise ValueError("input length does not match K symbols")
    idx = np.arange(filt.length) % filt.N
    z = np.zeros((filt.N, K), dtype=complex)
    for k in range(K):
        np.add.at(z[:, k], idx, filt.coeffs * r[k * hop:k * hop + filt.length])
    return z


def ber_trial_errors(params, channel_spec, snr_grid, trials, seed):
    """Bit errors of each trial (SNR x trial) of the BER experiment.

    One frame at a time: trial ``t`` at SNR index ``i`` draws its bits,
    then its real and imaginary noise from ``default_rng([seed, i, t])``,
    and is detected with :func:`mmse_equalize` and a per-symbol demap.
    """
    ell_max = max(p.delay for p in channel_spec.paths)
    f_max = max(abs(p.doppler) for p in channel_spec.paths)
    pick_chirp_params(ell_max, f_max, 0, params.dims.P)
    H = build_channel(channel_spec.normalized())
    modem = AfbmModem(params)
    H_d = data_restricted_channel(H, modem)
    errors = np.zeros((len(snr_grid), trials), dtype=int)
    for i, snr_db in enumerate(snr_grid):
        snr_lin = 10 ** (snr_db / 10)
        for t in range(trials):
            rng = np.random.default_rng([seed, i, t])
            bits, _, sig = random_afbm_frame(params, rng, modem)
            r = H @ sig.s
            nvar = np.sum(np.abs(r) ** 2) / len(r) / snr_lin
            noise = np.sqrt(nvar / 2) * (
                rng.standard_normal(len(r)) + 1j * rng.standard_normal(len(r)))
            grid_rx = modem.demodulate(TimeSignal(s=r + noise, f_s=sig.f_s))
            est = mmse_equalize(extract_grid(grid_rx), H_d, nvar)
            errors[i, t] = np.sum(
                demap_symbols_dict(est, params.constellation) != bits)
    return errors
