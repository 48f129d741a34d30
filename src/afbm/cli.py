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
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .transforms import ChirpPair, DaftDims, apply_daft
from .filterbank import MAX_OVERLAP, prototype_filter
from .modem import BITS_PER_SYMBOL, AfdmParams, WaveformParams, spread
from .channel import (
    PathSpec,
    check_paths_feasible,
    effective_channels,
    path_separation_metric,
    pick_chirp_params,
    unit_power,
)
from . import metrics

EXPERIMENTS = ("papr", "oobe", "orth", "effchan", "ber")


@dataclass(frozen=True)
class _Key:
    """A config value that ``ok`` accepts and ``what`` describes. Without a
    ``default`` it is optional; ``entries`` is the schema of its items."""

    ok: Callable[[object], bool]
    what: str
    default: object = None
    entries: dict | None = None


def _finite(v) -> bool:  # a bool is not a number, nor is an int past float
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _int(minimum: int, default=None) -> _Key:
    return _Key(lambda v: type(v) is int and v >= minimum,
                f"an integer >= {minimum}", default)


def _num(default=None, minimum=-math.inf, maximum=math.inf) -> _Key:
    return _Key(lambda v: _finite(v) and minimum <= v <= maximum,
                "a finite number"
                + (f" >= {minimum}" if minimum > -math.inf else "")
                + (f" and <= {maximum}" if maximum < math.inf else ""),
                default)


def _one_of(choices: tuple, default) -> _Key:
    return _Key(lambda v: v in choices, f"one of {choices}", default)


def _nonempty(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) > 0


# every config key with its rule; the defaults are the reference setup
_SCHEMA = {
    "experiment": _one_of(EXPERIMENTS, "papr"),
    "waveform": {
        "L": _int(1, 128), "P": _int(1, 192), "N": _int(1, 256),
        "K": _int(1, 8), "overlap": _num(1.5, minimum=0, maximum=MAX_OVERLAP),
        "filter": _one_of(("HERMITE", "PHYDYAS", "RECT"), "HERMITE"),
        "constellation": _one_of(tuple(BITS_PER_SYMBOL), "QPSK"),
        "compensation": _one_of(("split", "tx"), "split"),
        "c1": _num(minimum=0), "c2": _num(0.0),
        "c1_pre": _num(minimum=0), "c2_pre": _num()},
    "channel": {
        "ell_max": _int(0, 2), "xi": _int(0, 0),
        "f_max": _num(1.0, minimum=0),
        "paths": _Key(_nonempty, "a non-empty list", [
            {"gain": 1.0, "delay": 0, "doppler": 0.0},
            {"gain": 0.7, "delay": 1, "doppler": 1.0},
            {"gain": 0.5, "delay": 2, "doppler": -1.0}], entries={
            "gain": _Key(lambda g: _finite(g) or (
                _nonempty(g) and len(g) == 2 and all(map(_finite, g))),
                "a finite number or a [real, imag] pair"),
            "delay": _int(0), "doppler": _num()})},
    "afdm": {"cpp_len": _int(0), "c1": _num(minimum=0), "c2": _num()},
    "snr_grid": _Key(lambda v: _nonempty(v) and all(
        _finite(x) and abs(x) <= metrics.SNR_LIMIT_DB for x in v),
        f"a non-empty list of numbers within ±{metrics.SNR_LIMIT_DB:g} dB",
        [0, 2, 4, 6, 8, 10, 12, 14]),
    "trials": _int(1, 1000), "seed": _int(0, 0),
    "out": _Key(lambda v: isinstance(v, str), "a string", "results"),
}


@dataclass
class ExperimentConfig:
    """Fully resolved and validated experiment description."""

    experiment: str
    waveform: WaveformParams
    afdm: AfdmParams | None  # None where the baseline is not run
    paths: tuple
    xi: int
    snr_grid: tuple
    trials: int
    seed: int
    out: str
    resolved: dict = field(repr=False)

    @cached_property  # read for every row a run writes
    def config_hash(self) -> str:
        hashed = {k: v for k, v in self.resolved.items()
                  if k not in ("out", "seed")}
        blob = json.dumps(hashed, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @property
    def config_id(self) -> str:
        return self.config_hash[:8]


def _walk(data, schema: dict, where="", exact=False) -> dict:
    """``data`` checked against a schema section, its defaults filled in;
    with ``exact`` every key must be present. A fault names its dotted key,
    an unknown key the nearest known one."""
    if not isinstance(data, dict):
        raise ValueError(f"{where or 'root'} must be an object, got {data!r}")
    prefix = f"{where}." if where else ""
    unknown = [str(key) for key in data if key not in schema]
    if unknown:
        from difflib import get_close_matches  # only on this error path
        near = get_close_matches(unknown[0], list(schema), n=1)
        hint = f"; did you mean {prefix + near[0]!r}?" if near else ""
        raise ValueError(f"unknown config key {prefix + unknown[0]!r}{hint}")
    out = {}
    for key, rule in schema.items():
        name = prefix + key
        if isinstance(rule, dict):
            out[key] = _walk(data.get(key, {}), rule, name)
        elif key in data:
            out[key] = value = data[key]
            if not rule.ok(value):
                raise ValueError(f"{name} must be {rule.what}, got {value!r}")
            for i, entry in enumerate(value if rule.entries else ()):
                _walk(entry, rule.entries, f"{name}[{i}]", exact=True)
        elif rule.default is not None:
            out[key] = rule.default
        elif exact:
            raise ValueError(f"{name} is missing")
    return out


def _unique_keys(pairs) -> dict:
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"config key {key!r} appears more than once")
        seen[key] = value
    return seen


def read_config_file(path) -> dict:
    """Parse the JSON config file; an empty file means all defaults. A key
    repeated within one object is refused."""
    text = Path(path).read_text()
    if not text.strip():
        return {}
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"config parse error at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from err
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


def resolve_config(data: dict) -> ExperimentConfig:
    """Check every key against the schema, apply the defaults and build
    every referenced object, all before any computation starts."""
    resolved = _walk(data, _SCHEMA)
    wf, ch, af = resolved["waveform"], resolved["channel"], resolved["afdm"]
    dims = DaftDims(L=wf["L"], P=wf["P"], N=wf["N"])
    if resolved["experiment"] == "oobe" and 11 * dims.P >= 10 * dims.N:
        raise ValueError(f"waveform.P = {dims.P} is too close to N for oobe: "
                         "the band and its +10 % probe must end below "
                         "Nyquist (11*P < 10*N)")
    filt = prototype_filter(wf["filter"], wf["overlap"], wf["N"])
    ell_max, f_max, xi = ch["ell_max"], ch["f_max"], ch["xi"]
    c1 = (wf["c1"] if "c1" in wf
          else pick_chirp_params(ell_max, f_max, xi, dims.P).c1)
    chirps_mod = ChirpPair(c1=c1, c2=wf["c2"])
    chirps_pre = ChirpPair(c1=wf.get("c1_pre", c1),
                           c2=wf.get("c2_pre", chirps_mod.c2))
    waveform = WaveformParams(
        dims=dims, K=wf["K"], chirps_pre=chirps_pre, chirps_mod=chirps_mod,
        filter=filt, constellation=wf["constellation"],
        compensation=wf["compensation"])
    afdm = None  # orth and ber do not run the baseline
    if resolved["experiment"] in ("papr", "oobe", "effchan"):
        try:
            c1 = (af["c1"] if "c1" in af
                  else pick_chirp_params(ell_max, f_max, xi, dims.L).c1)
        except ValueError as err:
            raise ValueError(f"afdm (L = {dims.L}): {err}") from err
        afdm = AfdmParams(L_a=dims.L, K=wf["K"],
                          chirps=ChirpPair(c1=c1, c2=af.get("c2", 0.0)),
                          cpp_len=af.get("cpp_len", ell_max),
                          constellation=wf["constellation"])
    trials = resolved["trials"]
    if resolved["experiment"] == "oobe":
        lengths = (trials * waveform.M,
                   trials * metrics.AFDM_OOBE_OVERSAMPLE * afdm.M)
        if min(lengths) < 4 * dims.N:
            raise ValueError(f"trials = {trials} is too few for oobe: the "
                             f"afbm and afdm records hold {lengths[0]} and "
                             f"{lengths[1]} samples, shorter than one 4*N = "
                             f"{4 * dims.N} sample Welch segment")
    paths = tuple(  # a gain is a number or a [real, imag] pair
        PathSpec(gain=complex(*np.ravel(p["gain"])), delay=p["delay"],
                 doppler=p["doppler"])
        for p in ch["paths"])
    if sum(abs(p.gain) ** 2 for p in paths) <= 0:
        raise ValueError("channel.paths must have positive total power")
    for size in {"effchan": (dims.P, dims.L), "ber": (dims.P,)}.get(
            resolved["experiment"], ()):
        try:
            check_paths_feasible(paths, xi, size)
        except ValueError as err:
            raise ValueError(f"channel.paths: {err}") from err
    return ExperimentConfig(
        experiment=resolved["experiment"], waveform=waveform, afdm=afdm,
        paths=paths, xi=xi, snr_grid=tuple(resolved["snr_grid"]),
        trials=resolved["trials"], seed=resolved["seed"],
        out=resolved["out"], resolved=resolved)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _format_cell(v) -> str:
    if type(v) is float:  # the bulk of every table, tested first
        return repr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_table(cfg: ExperimentConfig, path, columns, rows,
                 **header) -> None:
    """A CSV file: the reproducibility header of the run and then
    ``header`` as ``# key=value`` lines, the column names if any, and the
    rows."""
    header = dict(config_hash=cfg.config_hash, seed=cfg.seed,
                  version=__version__, experiment=cfg.experiment, **header)
    with open(path, "w") as fh:
        for key, value in header.items():
            fh.write(f"# {key}={value}\n")
        if columns:
            fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _run_papr(cfg: ExperimentConfig, outdir: Path):
    thresholds = np.round(np.arange(4.0, 14.0 + 1e-9, 0.25), 10)
    curves = {
        "afbm": metrics.papr_ccdf(cfg.waveform, cfg.trials, thresholds,
                                  cfg.seed),
        "afdm": metrics.papr_ccdf(cfg.afdm, cfg.trials, thresholds, cfg.seed),
    }
    rows = []
    for name, curve in curves.items():
        # lists of floats take the fast path of _format_cell
        table = list(zip(curve.thresholds.tolist(),
                         curve.probabilities.tolist()))
        rows += [(f"papr_ccdf_{name}", cfg.config_id, th, p)
                 for th, p in table]
        _write_table(cfg, outdir / f"papr_{name}.csv",
                     ("threshold_db", "ccdf"), table)
    lvl_afbm = curves["afbm"].level_at(1e-2)
    lvl_afdm = curves["afdm"].level_at(1e-2)
    rows.append(("papr_at_ccdf_1e-2_afbm", cfg.config_id, 1e-2, lvl_afbm))
    rows.append(("papr_at_ccdf_1e-2_afdm", cfg.config_id, 1e-2, lvl_afdm))
    summary = (f"papr: afbm {lvl_afbm:.2f} dB, afdm {lvl_afdm:.2f} dB at "
               f"CCDF 1e-2 (gap {lvl_afdm - lvl_afbm:.2f} dB, "
               f"{cfg.trials} frames)")
    return rows, summary


def _run_oobe(cfg: ExperimentConfig, outdir: Path):
    segment = 4 * cfg.waveform.dims.N  # resolve_config checks the records
    rows, floors, probes = [], {}, {}
    for name, source in (("afbm", cfg.waveform), ("afdm", cfg.afdm)):
        edges = metrics.band_edges(source)
        psd = metrics.spectrum_psd(source, cfg.trials, cfg.seed, segment)
        floors[name] = metrics.oobe_floor(psd, edges)
        probes[name] = metrics.oobe_level(psd, edges, 0.1 * edges[1])
        _write_table(cfg, outdir / f"psd_{name}.csv",
                     ("normalized_frequency", "power_dbr"),
                     zip(psd.freq.tolist(), psd.power_dbr.tolist()))
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
    params1, chirps = replace(cfg.waveform, K=1), cfg.afdm.chirps
    bases = {  # one column per symbol position, with the prefix chirp rate
        "afbm": (spread(np.eye(params1.dims.L, dtype=complex)[:, None, :],
                        params1), params1.chirps_mod.c1),
        "afdm": (apply_daft(np.eye(cfg.afdm.L_a, dtype=complex), chirps,
                            adjoint=True), chirps.c1)}
    eff, score = {}, {}
    for name, (basis, c1) in bases.items():
        eff[name], refs = effective_channels(unit_power(cfg.paths), basis, c1)
        score[name] = path_separation_metric(eff[name], refs, cfg.xi)

    mag = np.abs(eff["afbm"])
    _write_table(cfg, outdir / "effchan_magnitude.csv", (), mag.tolist(),
                 shape=f"{mag.shape[0]}x{mag.shape[1]}")

    rows = [(f"path_separation_{name}", cfg.config_id, cfg.xi, value)
            for name, value in score.items()]
    summary = (f"effchan: path separation afbm {score['afbm']:.4f}, afdm "
               f"{score['afdm']:.4f} (xi={cfg.xi}, {len(cfg.paths)} paths)")
    return rows, summary


def _run_ber(cfg: ExperimentConfig, outdir: Path):
    ber = metrics.ber_experiment(cfg.waveform, cfg.paths, cfg.snr_grid,
                                 cfg.trials, cfg.seed, xi=cfg.xi)
    _write_table(cfg, outdir / "ber.csv", ("snr_db", "ber"), ber)
    rows = [("ber", cfg.config_id, snr, value) for snr, value in ber]
    last = ber[-1]
    summary = (f"ber: {last[1]:.3e} at {last[0]:g} dB "
               f"({cfg.trials} frames/point)")
    return rows, summary


_RUNNERS = {"papr": _run_papr, "oobe": _run_oobe, "orth": _run_orth,
            "effchan": _run_effchan, "ber": _run_ber}


def run(cfg: ExperimentConfig) -> list:
    """Execute the experiment, write its CSV outputs, print a summary and
    return the ``(metric, config, x, y)`` rows of ``results.csv``."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows, summary = _RUNNERS[cfg.experiment](cfg, outdir)
    _write_table(cfg, outdir / "results.csv", ("metric", "config", "x", "y"),
                 rows)
    print(summary)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="afbm", description="waveform laboratory experiment runner")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials")
    args = parser.parse_args(argv)
    try:
        data = read_config_file(args.config) if args.config else {}
        data.update((key, value) for key, value in vars(args).items()
                    if value is not None and key != "config")
        run(resolve_config(data))
    except Exception as err:  # noqa: BLE001 - single reporting point
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
