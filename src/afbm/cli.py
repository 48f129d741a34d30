"""Config-driven experiment runner.

Reproduces the reference experiments (PAPR CCDF, OOBE spectra, chain
SIR, effective-channel structure, BER sweeps) as CSV files from a JSON
config, deterministically under a fixed seed::

    afbm <experiment> --config <file> --out <dir> --seed <u64> --trials <n>

Command-line flags override config-file values. An empty (or missing)
config produces the reference setup: L=128, P=192, N=256, K=8, Hermite
prototype with overlap 1.5, QPSK, and a three-path channel. Runners
compute; :func:`run` alone writes, once every result row is finite, so a
failed run leaves an existing output directory as it was.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .transforms import ChirpPair, DaftDims
from .filterbank import MAX_OVERLAP, prototype_filter
from .modem import (AFDM_OOBE_OVERSAMPLE, BITS_PER_SYMBOL, AfdmParams,
                    WaveformParams)
from .channel import (
    PathSpec,
    check_delays,
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


def _rate(minimum: float = -1, default=None) -> _Key:
    """A chirp rate within one period, |c| < 1: the phase ``c m²`` of a
    whole cycle per sample² or more aliases, and at 1e308 it is nan."""
    return _Key(lambda v: _finite(v) and abs(v) < 1 and v >= minimum,
                "a chirp rate with |c| < 1"
                + (f" and >= {minimum}" if minimum > -1 else ""), default)


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
        "c1": _rate(0), "c2": _rate(default=0.0)},
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
    "afdm": {"cpp_len": _int(0), "c1": _rate(0), "c2": _rate()},
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

    @cached_property  # read for every table a run writes
    def config_hash(self) -> str:
        hashed = {k: v for k, v in self.resolved.items()
                  if k not in ("out", "seed")}
        blob = json.dumps(hashed, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


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
    waveform = WaveformParams(
        dims=dims, K=wf["K"], chirps=ChirpPair(c1=c1, c2=wf["c2"]),
        filter=filt, constellation=wf["constellation"],
        compensation=wf["compensation"])
    afdm = None  # orth and ber do not run the baseline
    if resolved["experiment"] in ("papr", "oobe", "effchan"):
        try:
            c1 = (af["c1"] if "c1" in af
                  else pick_chirp_params(ell_max, f_max, xi, dims.L).c1)
        except ValueError as err:
            raise ValueError(f"afdm (L = {dims.L}): {err}") from err
        cpp_len = af.get("cpp_len", ell_max)
        if cpp_len >= dims.L:
            source = "" if "cpp_len" in af else " (from channel.ell_max)"
            raise ValueError(f"afdm.cpp_len = {cpp_len}{source} must be < "
                             f"L = {dims.L}, the baseline's symbol body")
        afdm = AfdmParams(L_a=dims.L, K=wf["K"],
                          chirps=ChirpPair(c1=c1, c2=af.get("c2", 0.0)),
                          cpp_len=cpp_len, constellation=wf["constellation"])
    trials = resolved["trials"]
    if resolved["experiment"] == "oobe":
        lengths = (trials * waveform.M,
                   trials * AFDM_OOBE_OVERSAMPLE * afdm.M)
        if min(lengths) < 4 * dims.N:
            raise ValueError(f"trials = {trials} is too few for oobe: the "
                             f"afbm and afdm records hold {lengths[0]} and "
                             f"{lengths[1]} samples, shorter than one 4*N = "
                             f"{4 * dims.N} sample Welch segment")
    paths = tuple(  # a gain is a number or a [real, imag] pair
        PathSpec(gain=complex(*np.ravel(p["gain"])), delay=p["delay"],
                 doppler=p["doppler"])
        for p in ch["paths"])
    try:
        unit_power(paths)
    except ValueError as err:
        raise ValueError(f"channel.paths: {err}") from err
    # the grid each waveform separates the paths on and the block their
    # delays count in: AFBM's prototype (one symbol), the baseline's body
    for size, block in {"effchan": ((dims.P, filt.length), (dims.L, dims.L)),
                        "ber": ((dims.P, filt.length),)}.get(
            resolved["experiment"], ()):
        try:
            check_paths_feasible(paths, xi, size)
            check_delays(paths, block)
        except ValueError as err:
            raise ValueError(f"channel.paths: {err}") from err
    return ExperimentConfig(
        experiment=resolved["experiment"], waveform=waveform, afdm=afdm,
        paths=paths, xi=xi, snr_grid=tuple(resolved["snr_grid"]),
        trials=resolved["trials"], seed=resolved["seed"],
        out=resolved["out"], resolved=resolved)


# ---------------------------------------------------------------------------
# experiment runners: each returns its (metric, x, y) rows, its summary and
# its tables, file name -> (columns, rows, header lines as a dict)
# ---------------------------------------------------------------------------

def _write_table(cfg: ExperimentConfig, path, columns, rows,
                 **header) -> None:
    """A CSV file: the reproducibility header of the run and then
    ``header`` as ``# key=value`` lines, the column names if any, and the
    rows, each cell written as its ``str``: a float (Python or numpy) as
    its shortest ``repr``, which parses back to it exactly."""
    header = dict(config_hash=cfg.config_hash, seed=cfg.seed,
                  version=__version__, experiment=cfg.experiment, **header)
    with open(path, "w") as fh:
        for key, value in header.items():
            fh.write(f"# {key}={value}\n")
        if columns:
            fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _run_papr(cfg: ExperimentConfig):
    thresholds = np.round(np.arange(4.0, 14.0 + 1e-9, 0.25), 10)
    curves = {
        "afbm": metrics.papr_ccdf(cfg.waveform, cfg.trials, thresholds,
                                  cfg.seed),
        "afdm": metrics.papr_ccdf(cfg.afdm, cfg.trials, thresholds, cfg.seed),
    }
    rows, tables = [], {}
    for name, curve in curves.items():
        # Python floats: their str is faster than a numpy scalar's
        table = list(zip(curve.thresholds.tolist(),
                         curve.probabilities.tolist()))
        rows += [(f"papr_ccdf_{name}", th, p) for th, p in table]
        tables[f"papr_{name}.csv"] = ("threshold_db", "ccdf"), table, {}
    lvl_afbm = curves["afbm"].level_at(1e-2)
    lvl_afdm = curves["afdm"].level_at(1e-2)
    rows.append(("papr_at_ccdf_1e-2_afbm", 1e-2, lvl_afbm))
    rows.append(("papr_at_ccdf_1e-2_afdm", 1e-2, lvl_afdm))
    summary = (f"papr: afbm {lvl_afbm:.2f} dB, afdm {lvl_afdm:.2f} dB at "
               f"CCDF 1e-2 (gap {lvl_afdm - lvl_afbm:.2f} dB, "
               f"{cfg.trials} frames)")
    return rows, summary, tables


def _run_oobe(cfg: ExperimentConfig):
    segment = 4 * cfg.waveform.dims.N  # resolve_config checks the records
    rows, tables, floors, probes = [], {}, {}, {}
    for name, source in (("afbm", cfg.waveform), ("afdm", cfg.afdm)):
        edges = source.band
        psd = metrics.spectrum_psd(source, cfg.trials, cfg.seed, segment)
        floors[name] = metrics.oobe_floor(psd, edges)
        probes[name] = metrics.oobe_level(psd, edges, 0.1 * edges[1])
        tables[f"psd_{name}.csv"] = (
            ("normalized_frequency", "power_dbr"),
            zip(psd.freq.tolist(), psd.power_dbr.tolist()), {})
        rows.append((f"oobe_floor_{name}", edges[1], floors[name]))
        rows.append((f"oobe_probe10_{name}", 1.1 * edges[1], probes[name]))
    summary = (f"oobe: floors afbm {floors['afbm']:.1f} / afdm "
               f"{floors['afdm']:.1f} dBr; +10% probes afbm "
               f"{probes['afbm']:.1f} / afdm {probes['afdm']:.1f} dBr")
    return rows, summary, tables


def _run_orth(cfg: ExperimentConfig):
    sir_u, sir_c = map(metrics.sir_orthogonality,  # raw, compensated
                       metrics.orthogonality_gram(cfg.waveform))
    rows = [("sir_compensated", 0, sir_c), ("sir_uncompensated", 0, sir_u)]
    summary = (f"orth: sir {sir_c:.1f} dB compensated, {sir_u:.1f} dB "
               f"uncompensated ({cfg.waveform.filter.kind} "
               f"O={cfg.waveform.filter.overlap:g})")
    return rows, summary, {}


def _run_effchan(cfg: ExperimentConfig):
    paths, eff, score = unit_power(cfg.paths), {}, {}
    for name, source in (("afbm", cfg.waveform), ("afdm", cfg.afdm)):
        eff[name], refs = effective_channels(paths, *source.symbol_operands())
        score[name] = path_separation_metric(eff[name], refs, cfg.xi)

    # 12 significant digits (relative rounding <= 5e-12): writing the
    # shortest repr of every float cost more than computing the grid
    mag, digits = np.abs(eff["afbm"]), 12
    row = ",".join([f"%.{digits}g"] * mag.shape[1])
    grid = ((), ((row % tuple(values),) for values in mag.tolist()),
            dict(shape=f"{mag.shape[0]}x{mag.shape[1]}", digits=digits))

    rows = [(f"path_separation_{name}", cfg.xi, value)
            for name, value in score.items()]
    summary = (f"effchan: path separation afbm {score['afbm']:.4f}, afdm "
               f"{score['afdm']:.4f} (xi={cfg.xi}, {len(cfg.paths)} paths)")
    return rows, summary, {"effchan_magnitude.csv": grid}


def _run_ber(cfg: ExperimentConfig):
    ber = metrics.ber_experiment(cfg.waveform, cfg.paths, cfg.snr_grid,
                                 cfg.trials, cfg.seed, xi=cfg.xi)
    rows = [("ber", snr, value) for snr, value in ber]
    last = ber[-1]
    summary = (f"ber: {last[1]:.3e} at {last[0]:g} dB "
               f"({cfg.trials} frames/point)")
    return rows, summary, {"ber.csv": (("snr_db", "ber"), ber, {})}


_RUNNERS = {"papr": _run_papr, "oobe": _run_oobe, "orth": _run_orth,
            "effchan": _run_effchan, "ber": _run_ber}


def run(cfg: ExperimentConfig) -> list:
    """Execute the experiment, then write its CSV outputs, print a summary
    and return the ``(metric, config, x, y)`` rows of ``results.csv``: each
    runner's ``(metric, x, y)`` rows with the config id, the first 8 hex
    digits of the config hash, put in here. The output directory is made
    first, but no file is written until every row is checked: a row whose
    ``x`` or ``y`` is not finite is refused, naming its metric. If the run
    raises, the directories this call created are removed, and one that
    existed before is left as it was."""
    outdir = Path(cfg.out)
    created = next((d for d in reversed((outdir, *outdir.parents))
                    if not d.exists()), None)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        found, summary, tables = _RUNNERS[cfg.experiment](cfg)
        rows = []
        for metric, x, y in found:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{metric} is not finite: x = {x!r}, "
                                 f"y = {y!r}")
            rows.append((metric, cfg.config_hash[:8], x, y))
        tables["results.csv"] = ("metric", "config", "x", "y"), rows, {}
        for name, (columns, body, header) in tables.items():
            _write_table(cfg, outdir / name, columns, body, **header)
    except BaseException:
        if created is not None:
            import shutil  # only on this error path
            shutil.rmtree(created, ignore_errors=True)
        raise
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
