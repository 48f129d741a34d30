"""End-to-end acceptance checks.

Each test prints one summary line (PASS/FAIL plus the measured numbers) on
the original stdout so the verdicts are visible in any pytest run, then
asserts the stated tolerance.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from afbm.channel import PathSpec, pick_chirp_params
from afbm.cli import read_config_file, resolve_config, run
from afbm.filterbank import prototype_filter
from afbm.metrics import (
    ber_experiment,
    oobe_floor,
    oobe_level,
    orthogonality_gram,
    papr_ccdf,
    sir_orthogonality,
    spectrum_psd,
)
from afbm.modem import AfdmParams, WaveformParams, data_indices, spread
from afbm.transforms import ChirpPair, DaftDims
from oracles import (assemble_filter_matrix, daft_matrix,
                     dense_transmit_matrix, map_symbols_dict,
                     synthesis_matrix)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(capfd, number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} — {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def _reference_waveform(kind="HERMITE", overlap=1.5, K=1):
    chirps = ChirpPair(3 / 384, 0.0)
    return WaveformParams(dims=DaftDims(128, 192, 256), K=K,
                          chirps=chirps,
                          filter=prototype_filter(kind, overlap, 256))


def _reference_baseline(K=8):
    return AfdmParams(L_a=128, K=K, chirps=ChirpPair(3 / 256, 0.0), cpp_len=2)


def test_acceptance_1_orthogonality_restoration(capfd):
    start = time.monotonic()
    params = _reference_waveform()
    _, M_orth = orthogonality_gram(params)
    diag_err = np.abs(np.diag(M_orth) - 1.0).max()
    sir = sir_orthogonality(M_orth)
    elapsed = time.monotonic() - start
    ok = diag_err <= 1e-8 and sir >= 60.0 and elapsed <= 30.0
    _report(capfd, 1, ok, f"data diagonal within {diag_err:.2e} of 1, "
                   f"SIR {sir:.1f} dB >= 60 ({elapsed:.1f} s)")


def test_acceptance_2_round_trip(capfd):
    start = time.monotonic()
    params = _reference_waveform()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        d = map_symbols_dict(rng.integers(0, 2, 128), "QPSK")
        rx = params.demodulate(params.modulate(d))
        worst = max(worst, float(np.abs(rx - d).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed <= 30.0
    _report(capfd, 2, ok, f"max symbol error {worst:.2e} over 100 frames "
                   f"({elapsed:.1f} s)")


def test_acceptance_3_oracle_equivalence(capfd):
    start = time.monotonic()
    rng = np.random.default_rng(3)
    kinds = [("HERMITE", 1.5), ("PHYDYAS", 1), ("PHYDYAS", 2),
             ("PHYDYAS", 3), ("PHYDYAS", 4), ("RECT", 1)]
    worst_tx = worst_rx = worst_eff = 0.0
    checked = 0
    while checked < 20:
        kind, overlap = kinds[checked % len(kinds)]
        N = int(rng.choice([16, 32, 64]))
        L = int(rng.choice([8, 12, 16]))
        P = int(rng.choice(np.arange(L, N + 1, 2)))
        K = int(rng.integers(1, 4))
        chirps = ChirpPair(float(rng.uniform(0, 0.05)),
                           float(rng.uniform(0, 0.02)))
        params = WaveformParams(dims=DaftDims(L, P, N), K=K,
                                chirps=chirps,
                                filter=prototype_filter(kind, overlap, N))
        G = assemble_filter_matrix(params.filter, K)
        Q = synthesis_matrix(params.dims, chirps)
        W = daft_matrix(chirps, L)
        Gd = dense_transmit_matrix(params)

        d = map_symbols_dict(rng.integers(0, 2, L * K), "QPSK")
        tx_fast = params.modulate(d)
        tx_dense = Gd @ d
        worst_tx = max(worst_tx, float(np.abs(tx_fast - tx_dense).max()))

        r = rng.standard_normal(params.M) + 1j * rng.standard_normal(params.M)
        rx_fast = params.demodulate(r)
        per_symbol = ((params.gains[1][:, None] * W.conj().T[data_indices(L)])
                      @ Q.conj().T)
        rx_dense = (per_symbol @ (G.T @ r).reshape((N, K), order="F")
                    ).ravel(order="F")
        worst_rx = max(worst_rx, float(np.abs(rx_fast - rx_dense).max()))

        p1 = params if K == 1 else replace(params, K=1)
        H = (rng.standard_normal((p1.M, p1.M))
             + 1j * rng.standard_normal((p1.M, p1.M)))
        B_fast = spread(np.eye(L, dtype=complex)[:, None, :], p1)
        eff_fast = B_fast.conj().T @ (H @ B_fast)
        B = assemble_filter_matrix(p1.filter, 1) @ Q
        eff_dense = B.conj().T @ H @ B
        worst_eff = max(worst_eff, float(np.abs(eff_fast - eff_dense).max()))
        checked += 1

    elapsed = time.monotonic() - start
    ok = max(worst_tx, worst_rx, worst_eff) <= 1e-10 and elapsed <= 120.0
    _report(capfd, 3, ok, f"20 configs: transmit {worst_tx:.2e}, receive "
                   f"{worst_rx:.2e}, effective channel {worst_eff:.2e} "
                   f"({elapsed:.1f} s)")


def test_acceptance_4_papr_ccdf(capfd):
    start = time.monotonic()
    thresholds = np.arange(4.0, 14.0 + 1e-9, 0.25)
    afbm = papr_ccdf(_reference_waveform(K=8), trials=10_000,
                     thresholds=thresholds, seed=1)
    afdm = papr_ccdf(_reference_baseline(), trials=10_000,
                     thresholds=thresholds, seed=1)
    probs = np.geomspace(1e-3, 1e-1, 9)
    left = all(afbm.level_at(p) < afdm.level_at(p) for p in probs)
    gap = afdm.level_at(1e-2) - afbm.level_at(1e-2)
    elapsed = time.monotonic() - start
    ok = left and 1.5 <= gap <= 4.0 and elapsed <= 300.0
    _report(capfd, 4, ok, f"curve left of the baseline on [1e-3, 1e-1]: {left}, "
                   f"gap at 1e-2 = {gap:.2f} dB ({elapsed:.1f} s)")


def test_acceptance_5_oobe(capfd):
    start = time.monotonic()
    seg = 1024
    est_phy = spectrum_psd(_reference_waveform("PHYDYAS", 4, K=8), frames=64,
                           seed=2, segment=seg)
    est_her = spectrum_psd(_reference_waveform(K=8), frames=64, seed=2,
                           segment=seg)
    est_afd = spectrum_psd(_reference_baseline(), frames=64, seed=2,
                           segment=seg)
    edges_a = _reference_waveform(K=8).band
    edges_b = _reference_baseline().band
    margins = []
    for rel in (0.10, 0.20, 0.30):
        lvl_phy = oobe_level(est_phy, edges_a, rel * edges_a[1])
        lvl_afd = oobe_level(est_afd, edges_b, rel * edges_b[1])
        margins.append(lvl_afd - lvl_phy)
    floor_phy = oobe_floor(est_phy, edges_a)
    floor_her = oobe_floor(est_her, edges_a)
    floor_afd = oobe_floor(est_afd, edges_b)
    elapsed = time.monotonic() - start
    ok = (min(margins) >= 40.0 and floor_phy <= -80.0
          and floor_phy < floor_her < floor_afd and elapsed <= 300.0)
    _report(capfd, 5, ok, f"probe margins {min(margins):.1f} dB >= 40, floors "
                   f"{floor_phy:.1f} < {floor_her:.1f} < {floor_afd:.1f} dBr "
                   f"({elapsed:.1f} s)")


def test_acceptance_6_effective_channel_structure(capfd, tmp_path):
    start = time.monotonic()
    data = read_config_file(CONFIG_DIR / "fig2.cfg")
    data["out"] = str(tmp_path)
    score = {row[0]: row[3] for row in run(resolve_config(data))}
    metric_afbm = score["path_separation_afbm"]
    metric_afdm = score["path_separation_afdm"]
    elapsed = time.monotonic() - start
    ok = (metric_afbm >= 0.9 and abs(metric_afdm - 1.0) <= 1e-12
          and elapsed <= 60.0)
    _report(capfd, 6, ok, f"three-path separation: afbm {metric_afbm:.4f} >= 0.9, "
                   f"afdm {metric_afdm:.12f} == 1 ({elapsed:.1f} s)")


def test_acceptance_7_chirp_feasibility(capfd):
    start = time.monotonic()
    cases = []
    for ell in (0, 1, 2, 4, 6):
        for f in (0.0, 1.0):
            lhs = 2 * f * (ell + 1) + ell
            P_eq = int(np.ceil(lhs)) if lhs > 0 else 2
            cases.append((ell, f, 0, max(P_eq, 1)))
            cases.append((ell, f, 0, max(P_eq - 1, 1)))
    cases = cases[:20]
    ok = True
    for ell, f, xi, P in cases:
        feasible = 2 * (f + xi) * (ell + 1) + ell <= P
        try:
            got = pick_chirp_params(ell, f, xi, P)
            agreed = feasible and got.c1 == (2 * (np.ceil(f) + xi) + 1) / (2 * P)
        except ValueError:
            agreed = not feasible
        ok = ok and agreed
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 1.0
    _report(capfd, 7, ok, f"accept/reject agrees with the brute-force inequality on "
                   f"{len(cases)} boundary cases ({elapsed:.2f} s)")


def test_acceptance_8_ber_sanity(capfd):
    start = time.monotonic()
    params = _reference_waveform()
    awgn = (PathSpec(1.0, 0, 0.0),)
    grid = [-3.0, -2.0, -1.0, 0.0, 1.0]
    rows = ber_experiment(params, awgn, snr_grid=grid, trials=300, seed=8)
    ber = np.array([row[1] for row in rows])
    # measured crossing of BER = 1e-2, interpolated on a log scale
    idx = np.nonzero((ber[:-1] >= 1e-2) & (ber[1:] < 1e-2))[0][0]
    lo, hi = np.log10(ber[idx]), np.log10(ber[idx + 1])
    snr_cross = grid[idx] + (np.log10(1e-2) - lo) / (hi - lo)
    # analytic crossing: Q(sqrt(snr * 2M/L)) = 1e-2 at snr * 6 = Q^-1(1e-2)^2
    snr_ref = 10 * np.log10(2.3263478740408408 ** 2 / 6.0)
    offset = abs(snr_cross - snr_ref)

    multi = (PathSpec(1.0, 0, 0.0), PathSpec(0.7, 1, 1.0),
             PathSpec(0.5, 2, -1.0))
    rows2 = ber_experiment(params, multi, snr_grid=[0, 5, 10, 15, 20],
                           trials=300, seed=9)
    ber2 = np.array([row[1] for row in rows2])
    monotone = bool(np.all(np.diff(ber2) <= 1e-12))
    elapsed = time.monotonic() - start
    ok = offset <= 0.5 and monotone and elapsed <= 300.0
    _report(capfd, 8, ok, f"AWGN crossing at {snr_cross:+.2f} dB vs analytic "
                   f"{snr_ref:+.2f} (|offset| {offset:.2f} <= 0.5); "
                   f"multipath BER {np.array2string(ber2, precision=4)} "
                   f"monotone ({elapsed:.1f} s)")
