"""One fresh interpreter of the afbm benchmark; started by ``run.py``.

    child.py setup --workload W --seed S --work DIR
    child.py run --workload W --seed S --seconds T --trace 0|1 --work DIR

``setup`` times ``import afbm``, ``resolve_config`` and a one-trial run
of each Monte Carlo experiment, which builds every operator the
experiment builds before its first trial. ``run`` checks the program
against the recorded references, then repeats the workload until the
time is up. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path

from tracer import Tracer
from workloads import (MONTE_CARLO, REFERENCE_SEED, WORKLOADS, compare,
                       digest, frames_by_waveform, invariants, items, observe,
                       read_results)

REFERENCES = Path(__file__).resolve().parent / "references.json"
MIN_REPS = 3
PROBE_TRIALS = 6

# Spans that time each waveform's half of an experiment (untraced reps).
_WAVEFORM = {"WaveformParams": "afbm", "AfdmParams": "afdm"}
HALF_HOOKS = {
    "metrics.papr_ccdf": lambda args, out: _WAVEFORM[type(args[0]).__name__],
    "metrics.spectrum_signal":
        lambda args, out: _WAVEFORM[type(args[0]).__name__],
    "metrics.ber_experiment": lambda args, out: "afbm",
}
TRANSFORM_SPANS = ("transforms.apply_daft", "transforms.apply_synthesis",
                   "transforms.apply_synthesis_adjoint")
FULL_HOOKS = {
    **{name: lambda args, out: _columns(args[0]) for name in TRANSFORM_SPANS},
    "metrics.spectrum_signal": lambda args, out: out.nbytes,
}

# Per-layer metric -> span name. Timings fall back to probe runs when the
# workload never calls the function (see README).
US_PER_CALL = {m: m for m in (
    "transforms.apply_daft", "transforms.apply_synthesis",
    "transforms.apply_synthesis_adjoint", "filterbank.apply_filter_bank",
    "filterbank.apply_filter_bank_adjoint", "modem.AfbmModem.init",
    "modem.map_symbols", "modem.place_grid", "modem.afdm_modulate",
    "modem.demap_symbols", "channel.build_channel",
    "channel.data_restricted_channel", "channel.mmse_equalize",
    "channel.effective_channel", "channel.afdm_effective_channel",
    "metrics.papr", "metrics.random_afbm_frame", "metrics.random_afdm_frame",
    "metrics.afdm_oobe_signal", "metrics.psd_welch",
    "metrics.orthogonality_gram", "cli.resolve_config")}
US_PER_CALL.update({"modem.modulate": "modem.AfbmModem.modulate",
                    "modem.demodulate": "modem.AfbmModem.demodulate"})
CALLS = ("filterbank.compensation_vector", "modem.AfbmModem.init")
CALLS_PER_ITEM = ("transforms.chirp_phase", "modem.afdm_modulate")
SELF_US_PER_ITEM = ("metrics.papr_ccdf", "metrics.ber_experiment")


def _columns(x) -> int:
    shape = getattr(x, "shape", ())
    return math.prod(shape[1:]) if len(shape) > 1 else 1


def _quiet_run(cli, cfg) -> None:
    """``cli.run`` with its one-line summary kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(cfg)


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def setup(args) -> dict:
    """Set-up times, and the machine speed measured around the set-up.

    The ``frame`` kernel runs after the import and after the set-up (it
    needs numpy, which the import loads); its time is left out of
    ``setup_s``.
    """
    workload = WORKLOADS[args.workload]
    configs = workload.configs(args.seed, "setup", Path(args.work))
    t0 = time.perf_counter()
    import afbm.cli as cli
    import_s = time.perf_counter() - t0
    kernel_s = calibration("frame")
    t1 = time.perf_counter()
    resolved = [cli.resolve_config(c) for c in configs]
    for config, cfg in zip(configs, resolved):
        if config["experiment"] in MONTE_CARLO:
            _quiet_run(cli, cfg)
    setup_s = import_s + time.perf_counter() - t1
    kernel_s += calibration("frame")
    return {"import_s": import_s, "setup_s": setup_s,
            "speed": 2 * CALIBRATIONS["frame"][1] / kernel_s}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def observe_reference(workload, cli, work: Path) -> dict:
    """Label -> (invariant problems, observation) of each reference run."""
    seen = {}
    for config in workload.configs(REFERENCE_SEED, "reference", work):
        samples = Tracer(select={"metrics.papr_ccdf"},
                         hooks={"metrics.papr_ccdf":
                                lambda args, out: out.samples.tolist()})
        samples.install()
        try:
            _quiet_run(cli, cli.resolve_config(config))
        finally:
            samples.uninstall()
        papr = [v for span in samples.spans for v in span[5]]
        outdir = Path(config["out"])
        rows = read_results(outdir)
        seen[outdir.name] = (invariants(config, rows),
                             observe(config, rows, outdir, papr))
    return seen


def reference_check(workload, cli, work: Path) -> list:
    """Problems against the recorded references, one list per config."""
    recorded = json.loads(REFERENCES.read_text())[workload.name]
    return [problems + compare(observation, recorded[label])
            for label, (problems, observation)
            in observe_reference(workload, cli, work).items()]


def frame_kernel() -> None:
    """Sixty rounds of a bit draw, QPSK mapping, grid placement, a chirped
    FFT spread over 256 x 8 and a 4x interpolated PAPR: small numpy calls
    driven from Python, like the per-frame code of the Monte Carlo
    experiments."""
    import numpy as np
    chirp = np.exp(-2j * np.pi * 0.003 * np.arange(256) ** 2)[:, None]
    for trial in range(60):
        bits = np.random.default_rng([7, trial]).integers(0, 2, size=512)
        sym = ((1 - 2.0 * bits[0::2]) + 1j * (1 - 2.0 * bits[1::2])) / 2**0.5
        grid = np.zeros((256, 8), dtype=complex)
        grid[:32] = sym[:256].reshape(32, 8)
        grid[96:128] = sym[:256].reshape(32, 8)
        s = np.fft.ifft(chirp * np.fft.fft(grid, axis=0)).ravel(order="F")
        spec = np.fft.fft(s)
        padded = np.zeros(4 * len(s), dtype=complex)
        padded[:len(s) // 2] = spec[:len(s) // 2]
        padded[-len(s) // 2:] = spec[len(s) // 2:]
        env = np.abs(np.fft.ifft(padded)) ** 2
        float(10 * np.log10(env.max() / env.mean()))


def dense_kernel() -> None:
    """Twenty FFT/IFFT pairs over a 1024 x 64 complex array (1 MiB), like
    the identity-column operator products of ``orth`` and ``effchan``."""
    import numpy as np
    x = np.ones((1024, 64), dtype=complex)
    for _ in range(20):
        x = np.fft.ifft(np.fft.fft(x, axis=0), axis=0)


# Kernel and its median time on the reference machine (README).
CALIBRATIONS = {"frame": (frame_kernel, 0.020), "dense": (dense_kernel, 0.030)}


def calibration(kind: str) -> float:
    """Seconds the ``kind`` kernel takes now.

    The kernels run no afbm code. Timed between repetitions, a kernel
    tracks how fast the shared machine runs that kind of code at that
    moment; a repetition's wall time is scaled by the kernel's reference
    time over the mean of the kernel times around it.
    """
    kernel, _ = CALIBRATIONS[kind]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def _timed_rep(cli, resolved) -> float:
    t0 = time.perf_counter()
    for cfg in resolved:
        _quiet_run(cli, cfg)
    return time.perf_counter() - t0


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    import afbm.cli as cli

    problems = reference_check(workload, cli, work / "reference")
    attempted, failed = len(problems), sum(1 for p in problems if p)
    notes = [p for group in problems for p in group]

    configs = workload.configs(args.seed, args.size, work / "timed")
    resolved = [cli.resolve_config(c) for c in configs]
    per_rep = sum(items(c) for c in configs)
    half = Tracer(select=set(HALF_HOOKS), hooks=HALF_HOOKS)
    full = Tracer(hooks=FULL_HOOKS)
    walls, traced_walls, first_digest = [], [], None
    _, nominal = CALIBRATIONS[workload.calibration]
    calibrations = [calibration(workload.calibration)]
    deadline = time.perf_counter() + args.seconds
    while (len(walls) < MIN_REPS or len(traced_walls) < args.trace * MIN_REPS
           or time.perf_counter() < deadline):
        traced = args.trace and len(traced_walls) < len(walls)
        tracer = full if traced else half if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            if traced:
                full.run_id = "resolve"
                resolved = [cli.resolve_config(c) for c in configs]
                full.run_id = "rep"
            else:
                half.run_id = "rep"
            wall = _timed_rep(cli, resolved)
        finally:
            if tracer is not None:
                tracer.uninstall()
        calibrations.append(calibration(workload.calibration))
        speed = 2 * nominal / (calibrations[-2] + calibrations[-1])
        (traced_walls if traced else walls).append((wall, speed))

        rep_problems = []
        for config in configs:
            outdir = Path(config["out"])
            rep_problems += invariants(config, read_results(outdir))
        rep_digest = "".join(digest(Path(c["out"])) for c in configs)
        first_digest = first_digest or rep_digest
        if rep_digest != first_digest:
            rep_problems.append("outputs differ between repetitions")
        attempted += 1
        failed += bool(rep_problems)
        notes += rep_problems

    result = {"attempted": attempted, "failed": failed, "notes": notes[:20],
              "items_per_rep": per_rep, "walls": walls,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024,
              "environment": environment()}
    if args.trace:
        probe_items = probe(workload, cli, full, args.seed, work / "probe")
        result["layers"] = layer_metrics(
            full, half, configs, walls, traced_walls, probe_items)
    return result


def probe(workload, cli, tracer, seed: int, work: Path) -> dict:
    """Run each experiment the workload lacks, small and traced.

    Returns the items of each probe run, keyed by its run id.
    """
    have = {ex for _, ex, _ in workload.experiments}
    profile = workload.experiments[0][2]
    probe_items = {}
    tracer.install()
    try:
        for experiment in ("papr", "oobe", "ber", "orth", "effchan"):
            if experiment in have:
                continue
            config = dict(profile, experiment=experiment, seed=seed,
                          trials=PROBE_TRIALS, out=str(work / experiment),
                          snr_grid=[0, 7, 14])
            # The first run pays first-call costs and is not counted.
            for run_id in ("warm-up", f"probe:{experiment}"):
                tracer.run_id = run_id
                _quiet_run(cli, cli.resolve_config(config))
            probe_items[tracer.run_id] = items(config)
    finally:
        tracer.uninstall()
    return probe_items


def layer_metrics(full, half, configs, walls, traced_walls,
                  probe_items) -> dict:
    """Per-layer metrics from the traced reps (and probes for gaps).

    ``walls`` and ``traced_walls`` hold ``(seconds, speed)`` per rep.
    """
    reps = len(traced_walls)
    per_rep = sum(items(c) for c in configs)
    main, layer_self = full.reduce({"rep"})
    other, _ = full.reduce({"resolve"} | set(probe_items))

    def stat(name):
        return main.get(name) or {"calls": 0, "durations": [], "extras": []}

    def us_per_call(name):
        durations = stat(name)["durations"] or other.get(
            name, {"durations": []})["durations"]
        return statistics.median(durations) * 1e6 if durations else 0.0

    def self_us_per_item(name):
        if name in main:
            return main[name]["self"] / (reps * per_rep) * 1e6
        for run_id, n in probe_items.items():
            by_name, _ = full.reduce({run_id})
            if name in by_name:
                return by_name[name]["self"] / n * 1e6
        return 0.0

    traced_wall = sum(wall for wall, _ in traced_walls)
    out = {f"{m}.us_per_call": us_per_call(s) for m, s in US_PER_CALL.items()}
    out.update({f"{m}.calls": stat(m)["calls"] / reps for m in CALLS})
    out.update({f"{m}.calls_per_item": stat(m)["calls"] / (reps * per_rep)
                for m in CALLS_PER_ITEM})
    out.update({f"{m}.self_us_per_item": self_us_per_item(m)
                for m in SELF_US_PER_ITEM})
    out.update({f"{layer}.self_share": t / traced_wall
                for layer, t in layer_self.items()})
    columns = [c for name in TRANSFORM_SPANS for c in stat(name)["extras"]]
    out["transforms.columns_per_call"] = (
        sum(columns) / len(columns) if columns else 0.0)
    records = stat("metrics.spectrum_signal")["extras"]
    out["metrics.spectrum_signal.record_mb"] = (
        max(records) / 2 ** 20 if records else 0.0)
    writes = stat("cli.write")
    out["cli.write_s"] = sum(writes["durations"]) / reps
    out["cli.bytes_written"] = sum(writes["extras"]) / reps
    out["trace.overhead_frac"] = (scaled_wall(traced_walls)
                                  / scaled_wall(walls) - 1)
    out["bench.raw_wall_s"] = statistics.median(wall for wall, _ in walls)
    out["bench.machine_speed"] = statistics.median(
        speed for _, speed in walls + traced_walls)

    halves, _ = half.reduce({"rep"})
    frames = {"afbm": 0, "afdm": 0}
    for config in configs:
        for waveform, n in frames_by_waveform(config).items():
            frames[waveform] += n * len(walls)
    seconds = {"afbm": 0.0, "afdm": 0.0}
    for stat_ in halves.values():
        for waveform, d in zip(stat_["extras"], stat_["durations"]):
            seconds[waveform] += d
    for waveform in frames:
        out[f"{waveform}_frames_per_s"] = (
            frames[waveform] / seconds[waveform] if seconds[waveform] else 0.0)
    return out


def scaled_wall(walls) -> float:
    """Median wall time of the reps at the reference machine speed."""
    return statistics.median(wall * speed for wall, speed in walls)


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("task", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--size", choices=("timed", "smoke"), default="timed")
    args = parser.parse_args()
    result = setup(args) if args.task == "setup" else run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
