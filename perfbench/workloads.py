"""Workloads of the afbm benchmark and the checks on their outputs.

Every workload is a list of experiment configs that go through the
program's own entry points, ``afbm.cli.resolve_config`` and
``afbm.cli.run``. The profiles are written out here rather than read
from ``configs/``, so that an edit to a bundled config never changes
what the benchmark measures.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEED = 1

_CHANNEL = {
    "ell_max": 2, "f_max": 1.0, "xi": 0,
    "paths": [
        {"gain": 1.0, "delay": 0, "doppler": 0.0},
        {"gain": 0.7, "delay": 1, "doppler": 1.0},
        {"gain": 0.5, "delay": 2, "doppler": -1.0},
    ],
}

# Reference profile (fig3): L=128, P=192, N=256, K=8, Hermite 1.5, QPSK.
FIG3 = {"waveform": {"L": 128, "P": 192, "N": 256, "K": 8,
                     "filter": "HERMITE", "overlap": 1.5,
                     "constellation": "QPSK"},
        "channel": _CHANNEL}
# fig2: small PHYDYAS overlap-4 single-symbol profile with xi = 1.
FIG2 = {"waveform": {"L": 64, "P": 128, "N": 128, "K": 1,
                     "filter": "PHYDYAS", "overlap": 4},
        "channel": dict(_CHANNEL, xi=1)}
# fig4: the reference dimensions with the PHYDYAS overlap-4 filter.
FIG4 = {"waveform": dict(FIG3["waveform"], filter="PHYDYAS", overlap=4),
        "channel": _CHANNEL}
BER16 = {"waveform": dict(FIG3["waveform"], K=1, constellation="QAM16"),
         "channel": _CHANNEL,
         "snr_grid": [0, 2, 4, 6, 8, 10, 12, 14]}

OPERATOR_PROFILES = {"fig3": FIG3, "fig2": FIG2, "fig4": FIG4}

# Experiments whose work is a Monte Carlo loop over random frames.
MONTE_CARLO = ("papr", "oobe", "ber")


@dataclass(frozen=True)
class Workload:
    """A named list of experiments; BENCHMARK.json says why each exists."""

    name: str
    experiments: tuple          # (label, experiment, profile)
    # Trials per config for the "timed" runs, the "reference" check and
    # the self-test "smoke" run; any other size (set-up) runs one trial.
    trials: dict
    # The calibration kernel that tracks the machine speed for this kind
    # of work: "frame" (per-frame Python and small numpy) or "dense".
    calibration: str = "frame"

    def configs(self, seed: int, size: str, out: Path) -> list:
        """Config dicts for ``afbm.cli.resolve_config``, one per experiment."""
        return [dict(profile, experiment=experiment, seed=seed,
                     trials=self.trials.get(size, 1), out=str(out / label))
                for label, experiment, profile in self.experiments]


WORKLOADS = {w.name: w for w in (
    Workload("papr_fig3",
             (("papr", "papr", FIG3),),
             {"timed": 200, "reference": 200, "smoke": 10}),
    Workload("oobe_fig4",
             (("oobe", "oobe", FIG4),),
             {"timed": 200, "reference": 40, "smoke": 4}),
    Workload("ber_qam16",
             (("ber", "ber", BER16),),
             {"timed": 25, "reference": 10, "smoke": 2}),
    Workload("operators",
             tuple((f"{ex}_{label}", ex, prof)
                   for label, prof in OPERATOR_PROFILES.items()
                   for ex in ("orth", "effchan")),
             {"timed": 1, "reference": 1, "smoke": 1}, "dense"),
)}


def items(config: dict) -> int:
    """Work items in one run of ``config``: frames, or one analysis."""
    experiment = config["experiment"]
    if experiment in ("papr", "oobe"):
        return 2 * config["trials"]      # both waveforms
    if experiment == "ber":
        return config["trials"] * len(config["snr_grid"])
    return 1


def frames_by_waveform(config: dict) -> dict:
    """Frames each waveform contributes to one run of ``config``."""
    experiment = config["experiment"]
    if experiment in ("papr", "oobe"):
        return {"afbm": config["trials"], "afdm": config["trials"]}
    if experiment == "ber":
        return {"afbm": items(config), "afdm": 0}
    return {"afbm": 0, "afdm": 0}


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------

def read_results(outdir: Path) -> dict:
    """``results.csv`` rows as metric -> list of (x, y)."""
    rows = {}
    with open(outdir / "results.csv", newline="") as fh:
        body = [line for line in fh if not line.startswith("#")]
    for rec in csv.DictReader(body):
        rows.setdefault(rec["metric"], []).append(
            (float(rec["x"]), float(rec["y"])))
    return rows


def digest(outdir: Path) -> str:
    """SHA-256 over every file the run wrote, in name order."""
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def invariants(config: dict, rows: dict) -> list:
    """Seed-independent properties every output must have."""
    problems = [f"{m}: non-finite value" for m, pts in rows.items()
                if not all(math.isfinite(x) and math.isfinite(y)
                           for x, y in pts)]
    experiment = config["experiment"]
    if experiment == "papr":
        for name in ("afbm", "afdm"):
            p = [y for _, y in rows.get(f"papr_ccdf_{name}", [])]
            if not p or any(not 0 <= v <= 1 for v in p) or any(
                    b > a for a, b in zip(p, p[1:])):
                problems.append(f"papr_ccdf_{name}: not a CCDF")
    elif experiment == "oobe":
        for name in ("afbm", "afdm"):
            floor = rows.get(f"oobe_floor_{name}", [(0, math.nan)])[0][1]
            probe = rows.get(f"oobe_probe10_{name}", [(0, math.nan)])[0][1]
            if not floor <= probe <= 0:
                problems.append(f"oobe {name}: floor {floor} probe {probe}")
    elif experiment == "ber":
        bits = _ber_bits(config)
        pts = rows.get("ber", [])
        if len(pts) != len(config["snr_grid"]):
            problems.append("ber: wrong number of SNR points")
        for snr, ber in pts:
            if not 0 <= ber <= 1 or abs(ber * bits - round(ber * bits)) > 1e-6:
                problems.append(f"ber at {snr} dB: {ber} is not a count "
                                f"of {bits} bits")
    elif experiment == "orth":
        for name in ("sir_compensated", "sir_uncompensated"):
            if not rows.get(name) or not rows[name][0][1] <= 150.0:
                problems.append(f"{name}: missing or above the 150 dB cap")
    elif experiment == "effchan":
        for name in ("path_separation_afbm", "path_separation_afdm"):
            if not rows.get(name) or not 0 <= rows[name][0][1] <= 1:
                problems.append(f"{name}: missing or outside [0, 1]")
    return problems


def _ber_bits(config: dict) -> int:
    """Bits per SNR point: trials x L/2 data symbols (K=1) x bits/symbol."""
    bps = {"QPSK": 2, "QAM16": 4}[config["waveform"]["constellation"]]
    return config["trials"] * config["waveform"]["L"] // 2 * bps


# ---------------------------------------------------------------------------
# reference observations
# ---------------------------------------------------------------------------
# What the reference check records per workload, and the tolerance each
# value is compared with. PAPR samples follow the 1e-12 dB rule for
# batched rewrites; BER error counts must match exactly. The AFBM
# spectral floor sits near -143 dBr; a relative 1e-15 perturbation of
# every sample (a reordered sum) moves it by 9e-11 dB, far inside 1e-6 dB.

TOLERANCES = {
    "papr_samples_db": 1e-12,
    "ber_errors": 0,
    "oobe_db": 1e-6,
    "sir_db": 1e-9,
    "path_separation": 1e-12,
    "effchan_row_rel": 1e-9,
}


def observe(config: dict, rows: dict, outdir: Path, papr_samples) -> dict:
    """The reference-checked values of one experiment run."""
    experiment = config["experiment"]
    if experiment == "papr":
        return {"papr_samples_db": papr_samples}
    if experiment == "oobe":
        return {"oobe_db": {m: rows[m][0][1] for m in sorted(rows)}}
    if experiment == "ber":
        bits = _ber_bits(config)
        return {"ber_errors": [round(ber * bits) for _, ber in rows["ber"]]}
    if experiment == "orth":
        return {"sir_db": {m: rows[m][0][1] for m in sorted(rows)}}
    with open(outdir / "effchan_magnitude.csv") as fh:
        sums = [sum(float(v) for v in line.split(","))
                for line in fh if not line.startswith("#")]
    return {"path_separation": {m: rows[m][0][1] for m in sorted(rows)},
            "effchan_row_rel": sums}


def compare(observed: dict, reference: dict) -> list:
    """Mismatches between two observations of one experiment."""
    problems = []
    for key, ref in reference.items():
        got = observed.get(key)
        tol = TOLERANCES[key]
        if isinstance(ref, dict):
            pairs = [(f"{key}.{k}", got.get(k) if got else None, v)
                     for k, v in ref.items()]
        else:
            if got is None or len(got) != len(ref):
                problems.append(f"{key}: expected {len(ref)} values")
                continue
            pairs = [(f"{key}[{i}]", g, r)
                     for i, (g, r) in enumerate(zip(got, ref))]
        for label, g, r in pairs:
            if g is None:
                problems.append(f"{label}: missing")
                continue
            err = abs(g - r)
            if key == "effchan_row_rel":
                err /= abs(r)
            if not err <= tol:
                problems.append(f"{label}: {g!r} != {r!r} (tolerance {tol})")
    return problems
