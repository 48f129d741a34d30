"""Config-driven experiment runner.

Reproduces the reference experiments (PAPR CCDF, OOBE spectra, chain
SIR, effective-channel structure, BER sweeps) as CSV files from a JSON
config, deterministically under a fixed seed::

    afbm <experiment> --config <file> --out <dir> --seed <u64> --trials <n>

Command-line flags override config-file values. An empty (or missing)
config produces the reference setup: L=128, P=192, N=256, K=8, Hermite
prototype with overlap 1.5, QPSK, and a three-path channel.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .transforms import ChirpPair, DaftDims, apply_daft
from .filterbank import prototype_filter
from .modem import AfdmParams, WaveformParams, spread
from .channel import (
    ChannelSpec,
    PathSpec,
    check_paths_feasible,
    effective_channels,
    path_separation_metric,
    pick_chirp_params,
)
from . import metrics
from .metrics import ResultTable

EXPERIMENTS = ("papr", "oobe", "orth", "effchan", "ber")

_DEFAULTS = {
    "experiment": "papr",
    "waveform": {
        "L": 128, "P": 192, "N": 256, "K": 8,
        "filter": "HERMITE", "overlap": 1.5,
        "constellation": "QPSK", "compensation": "split",
        "c2": 0.0,
    },
    "channel": {
        "ell_max": 2, "f_max": 1.0, "xi": 0,
        "paths": [
            {"gain": 1.0, "delay": 0, "doppler": 0.0},
            {"gain": 0.7, "delay": 1, "doppler": 1.0},
            {"gain": 0.5, "delay": 2, "doppler": -1.0},
        ],
    },
    "afdm": {},
    "snr_grid": [0, 2, 4, 6, 8, 10, 12, 14],
    "trials": 1000,
    "seed": 0,
    "out": "results",
}


@dataclass
class ExperimentConfig:
    """Fully resolved and validated experiment description."""

    experiment: str
    waveform: WaveformParams
    afdm: AfdmParams
    paths: tuple
    xi: int
    snr_grid: tuple
    trials: int
    seed: int
    out: str
    resolved: dict = field(repr=False)

    @property
    def config_hash(self) -> str:
        hashed = {k: v for k, v in self.resolved.items()
                  if k not in ("out", "seed")}
        blob = json.dumps(hashed, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @property
    def config_id(self) -> str:
        return self.config_hash[:8]


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


# every key of the schema: those with a default, and the optional ones
_KNOWN_KEYS = _merge(_DEFAULTS, {
    "waveform": dict.fromkeys(("c1", "c1_pre", "c2_pre")),
    "afdm": dict.fromkeys(("cpp_len", "c1", "c2"))})


def _as_complex(g) -> complex:
    if isinstance(g, (list, tuple)):
        if len(g) != 2:
            raise ValueError("complex gain must be [real, imag]")
        return complex(g[0], g[1])
    return complex(g)


def _check_keys(data: dict, known: dict, where: str = "") -> None:
    """Reject a key the schema lacks by its dotted path, naming the nearest."""
    for key, value in data.items():
        if key not in known:
            from difflib import get_close_matches  # only on this error path
            near = get_close_matches(str(key), list(known), n=1)
            hint = f"; did you mean {where + near[0]!r}?" if near else ""
            raise ValueError(f"unknown config key {where + str(key)!r}{hint}")
        if isinstance(known[key], dict) and isinstance(value, dict):
            _check_keys(value, known[key], f"{where}{key}.")


def _int(value, name: str, minimum: int) -> int:
    """``value`` if it is an int (a bool is not) of at least ``minimum``."""
    if type(value) is not int or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def read_config_file(path) -> dict:
    """Parse the JSON config file; an empty file means all defaults."""
    text = Path(path).read_text()
    if not text.strip():
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"config parse error at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from err
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


def resolve_config(data: dict) -> ExperimentConfig:
    """Apply defaults and build every referenced object, validating all
    module-level invariants before any computation starts."""
    _check_keys(data, _KNOWN_KEYS)
    resolved = _merge(_DEFAULTS, data)
    experiment = resolved["experiment"]
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    trials = _int(resolved["trials"], "trials", 1)
    seed = _int(resolved["seed"], "seed", 0)
    snr_grid = tuple(resolved["snr_grid"])
    if not snr_grid or not all(type(v) in (int, float) and math.isfinite(v)
                               for v in snr_grid):
        raise ValueError(f"snr_grid must be a non-empty list of finite "
                         f"numbers, got {list(snr_grid)!r}")

    wf = resolved["waveform"]
    ch = resolved["channel"]
    _int(wf["K"], "waveform.K", 1)  # DaftDims checks L, P and N
    dims = DaftDims(L=wf["L"], P=wf["P"], N=wf["N"])
    filt = prototype_filter(wf["filter"], wf["overlap"], wf["N"])
    ell_max = _int(ch["ell_max"], "channel.ell_max", 0)
    xi = _int(ch["xi"], "channel.xi", 0)
    f_max = ch["f_max"]
    c1 = (wf["c1"] if "c1" in wf
          else pick_chirp_params(ell_max, f_max, xi, dims.P).c1)
    chirps_mod = ChirpPair(c1=c1, c2=wf.get("c2", 0.0))
    chirps_pre = ChirpPair(c1=wf.get("c1_pre", chirps_mod.c1),
                           c2=wf.get("c2_pre", chirps_mod.c2))
    waveform = WaveformParams(
        dims=dims, K=wf["K"], chirps_pre=chirps_pre, chirps_mod=chirps_mod,
        filter=filt, constellation=wf["constellation"],
        compensation=wf["compensation"])

    af = resolved["afdm"]
    cpp_len = _int(af.get("cpp_len", ell_max), "afdm.cpp_len", 0)
    c1 = (af["c1"] if "c1" in af
          else pick_chirp_params(ell_max, f_max, xi, dims.L).c1)
    afdm_chirps = ChirpPair(c1=c1, c2=af.get("c2", 0.0))
    afdm = AfdmParams(L_a=dims.L, K=wf["K"], chirps=afdm_chirps,
                      cpp_len=cpp_len, constellation=wf["constellation"])

    for i, p in enumerate(ch["paths"]):
        _check_keys(p, _DEFAULTS["channel"]["paths"][0],
                    f"channel.paths[{i}].")
    paths = tuple(
        PathSpec(gain=_as_complex(p["gain"]), delay=p["delay"],
                 doppler=p["doppler"])
        for p in ch["paths"])
    return ExperimentConfig(
        experiment=experiment, waveform=waveform, afdm=afdm, paths=paths,
        xi=xi, snr_grid=snr_grid, trials=trials,
        seed=seed, out=resolved["out"], resolved=resolved)


def load_config(path) -> ExperimentConfig:
    return resolve_config(read_config_file(path))


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _metadata(cfg: ExperimentConfig) -> dict:
    """The reproducibility header of every CSV file a run writes."""
    return {"config_hash": cfg.config_hash, "seed": cfg.seed,
            "version": __version__, "experiment": cfg.experiment}


def _write_two_column(cfg, path, columns, pairs) -> None:
    ResultTable(_metadata(cfg), columns, list(pairs)).write_csv(path)


def _run_papr(cfg: ExperimentConfig, outdir: Path):
    thresholds = np.round(np.arange(4.0, 14.0 + 1e-9, 0.25), 10)
    curves = {
        "afbm": metrics.papr_ccdf(cfg.waveform, cfg.trials, thresholds,
                                  cfg.seed),
        "afdm": metrics.papr_ccdf(cfg.afdm, cfg.trials, thresholds, cfg.seed),
    }
    rows = []
    for name, curve in curves.items():
        rows += [(f"papr_ccdf_{name}", cfg.config_id, th, p)
                 for th, p in zip(curve.thresholds, curve.probabilities)]
        _write_two_column(cfg, outdir / f"papr_{name}.csv",
                          ("threshold_db", "ccdf"),
                          zip(curve.thresholds, curve.probabilities))
    lvl_afbm = curves["afbm"].level_at(1e-2)
    lvl_afdm = curves["afdm"].level_at(1e-2)
    rows.append(("papr_at_ccdf_1e-2_afbm", cfg.config_id, 1e-2, lvl_afbm))
    rows.append(("papr_at_ccdf_1e-2_afdm", cfg.config_id, 1e-2, lvl_afdm))
    summary = (f"papr: afbm {lvl_afbm:.2f} dB, afdm {lvl_afdm:.2f} dB at "
               f"CCDF 1e-2 (gap {lvl_afdm - lvl_afbm:.2f} dB, "
               f"{cfg.trials} frames)")
    return rows, summary


def _run_oobe(cfg: ExperimentConfig, outdir: Path):
    segment = 4 * cfg.waveform.dims.N
    sources = {"afbm": (cfg.waveform, metrics.afbm_band_edges(cfg.waveform)),
               "afdm": (cfg.afdm, metrics.afdm_band_edges())}
    rows, floors, probes = [], {}, {}
    for name, (source, edges) in sources.items():
        sig = metrics.spectrum_signal(source, cfg.trials, cfg.seed)
        psd = metrics.psd_welch(sig, segment)
        floors[name] = metrics.oobe_floor(psd, edges)
        probes[name] = metrics.oobe_level(psd, edges, 0.1 * edges[1])
        _write_two_column(cfg, outdir / f"psd_{name}.csv",
                          ("normalized_frequency", "power_dbr"),
                          zip(psd.freq, psd.power_dbr))
        rows.append((f"oobe_floor_{name}", cfg.config_id, edges[1],
                     floors[name]))
        rows.append((f"oobe_probe10_{name}", cfg.config_id, 1.1 * edges[1],
                     probes[name]))
    summary = (f"oobe: floors afbm {floors['afbm']:.1f} / afdm "
               f"{floors['afdm']:.1f} dBr; +10% probes afbm "
               f"{probes['afbm']:.1f} / afdm {probes['afdm']:.1f} dBr")
    return rows, summary


def _run_orth(cfg: ExperimentConfig, outdir: Path):
    sir_c = metrics.sir_orthogonality(cfg.waveform, compensated=True)
    sir_u = metrics.sir_orthogonality(cfg.waveform, compensated=False)
    rows = [("sir_compensated", cfg.config_id, 0, sir_c),
            ("sir_uncompensated", cfg.config_id, 0, sir_u)]
    summary = (f"orth: sir {sir_c:.1f} dB compensated, {sir_u:.1f} dB "
               f"uncompensated ({cfg.waveform.filter.kind} "
               f"O={cfg.waveform.filter.overlap:g})")
    return rows, summary


def _run_effchan(cfg: ExperimentConfig, outdir: Path):
    for size in (cfg.waveform.dims.P, cfg.afdm.L_a):
        check_paths_feasible(cfg.paths, cfg.xi, size)
    params1 = replace(cfg.waveform, K=1)
    spec = ChannelSpec(paths=cfg.paths, M=params1.M,
                       c1=params1.chirps_mod.c1).normalized()
    basis = spread(np.eye(params1.dims.L, dtype=complex)[:, None, :], params1)
    eff, refs = effective_channels(spec, basis)
    score = path_separation_metric(eff, refs, cfg.xi)

    L_a = cfg.afdm.L_a
    bspec = ChannelSpec(paths=cfg.paths, M=L_a,
                        c1=cfg.afdm.chirps.c1).normalized()
    bbasis = apply_daft(np.eye(L_a, dtype=complex), cfg.afdm.chirps,
                        adjoint=True)
    beff, brefs = effective_channels(bspec, bbasis)
    bscore = path_separation_metric(beff, brefs, cfg.xi)

    mag = np.abs(eff)
    header = dict(_metadata(cfg), shape=f"{mag.shape[0]}x{mag.shape[1]}")
    path = outdir / "effchan_magnitude.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for key, value in header.items():
            fh.write(f"# {key}={value}\n")
        for row in mag:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

    rows = [("path_separation_afbm", cfg.config_id, cfg.xi, score),
            ("path_separation_afdm", cfg.config_id, cfg.xi, bscore)]
    summary = (f"effchan: path separation afbm {score:.4f}, afdm "
               f"{bscore:.4f} (xi={cfg.xi}, {len(cfg.paths)} paths)")
    return rows, summary


def _run_ber(cfg: ExperimentConfig, outdir: Path):
    params1 = replace(cfg.waveform, K=1)
    spec = ChannelSpec(paths=cfg.paths, M=params1.M,
                       c1=params1.chirps_mod.c1)
    table = metrics.ber_experiment(cfg.waveform, spec, cfg.snr_grid,
                                   cfg.trials, cfg.seed, xi=cfg.xi)
    _write_two_column(cfg, outdir / "ber.csv", table.columns, table.rows)
    rows = [("ber", cfg.config_id, snr, ber) for snr, ber in table.rows]
    last = table.rows[-1]
    summary = (f"ber: {last[1]:.3e} at {last[0]:g} dB "
               f"({cfg.trials} frames/point)")
    return rows, summary


_RUNNERS = {"papr": _run_papr, "oobe": _run_oobe, "orth": _run_orth,
            "effchan": _run_effchan, "ber": _run_ber}


def run(cfg: ExperimentConfig) -> ResultTable:
    """Execute the experiment, write its CSV outputs, print a summary."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows, summary = _RUNNERS[cfg.experiment](cfg, outdir)
    table = ResultTable(_metadata(cfg), ("metric", "config", "x", "y"), rows)
    table.write_csv(outdir / "results.csv")
    print(summary)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="afbm",
        description="waveform laboratory experiment runner")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials")
    args = parser.parse_args(argv)
    try:
        data = read_config_file(args.config) if args.config else {}
        data["experiment"] = args.experiment
        for key in ("out", "seed", "trials"):
            value = getattr(args, key)
            if value is not None:
                data[key] = value
        cfg = resolve_config(data)
        run(cfg)
    except Exception as err:  # noqa: BLE001 - single reporting point
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
