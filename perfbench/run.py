"""Benchmark of the afbm experiments, end to end and per module.

Run from the repository root::

    python3 perfbench/run.py --workload papr_fig3 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --out FILE

Each task runs in a fresh child interpreter (``child.py``) with the BLAS
and OpenMP thread pools capped at the CPU count. ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics. Every metric is printed with its unit; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--workload all`` runs every workload in both modes and
writes the results, with the environment, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from child import scaled_wall

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ".perfbench_work"


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Our environment plus ``src`` on the path and capped thread pools."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    cap = str(len(os.sched_getaffinity(0)))
    env.update(dict.fromkeys(THREAD_VARS, cap))
    return env


def spawn(task: str, workload: str, seed: int, work: Path, timeout: float,
          *extra: str) -> dict:
    """Run one child task and return its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), task, "--workload",
           workload, "--seed", str(seed), "--work", str(work), *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{task} {workload} timed out after {timeout} s") \
            from err
    if proc.returncode != 0:
        raise BenchError(f"{task} {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = Path(".git") / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 declared: dict) -> tuple:
    """One benchmark run: set-up samples, then the timed child.

    Returns ``(result, record)``: the contract result and the full record
    (environment, raw samples, notes).
    """
    Path(WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        setups = [spawn("setup", workload, seed, work / f"setup{i}", 120)
                  for i in range(SETUP_SAMPLES)]
        run = spawn("run", workload, seed, work / "run", seconds + 150,
                    "--seconds", str(seconds), "--trace", str(trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = run["attempted"], run["failed"]
    if trace:
        metrics = dict(run["layers"])
        metrics["cli.import_s"] = statistics.median(
            s["import_s"] * s["speed"] for s in setups)
        metrics["fail_frac"] = failed / attempted
    else:
        wall = scaled_wall(run["walls"])
        metrics = {"wall_s": wall, "items_per_s": run["items_per_rep"] / wall,
                   "setup_s": statistics.median(
                       s["setup_s"] * s["speed"] for s in setups),
                   "peak_rss_mb": run["peak_rss_mb"]}
    if set(metrics) != set(declared):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name],
                                 "unit": declared[name]["unit"]}
                          for name in declared}}
    environment = dict(run["environment"], commit=git_commit(), seed=seed,
                       thread_cap={v: child_env()[v] for v in THREAD_VARS})
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "result": result, "environment": environment,
              "walls": run["walls"], "setups": setups, "notes": run["notes"]}
    return result, record


def print_result(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:10s} {name:48s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(f"{workload:10s} {'attempted/failed':48s} "
          f"{result['attempted']:>9d}/{result['failed']}")


def main(argv=None) -> int:
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        print(f"error: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="record file for --workload all")
    args = parser.parse_args(argv)
    if not Path("src/afbm/__init__.py").is_file():
        print("error: no src/afbm here; run from the afbm repository root",
              file=sys.stderr)
        return 2
    declared = {mode: {m["name"]: m for m in spec[key]}
                for mode, key in ((0, "end_to_end"), (1, "per_layer"))}

    try:
        if args.workload != "all":
            result, record = run_workload(args.workload, args.seed,
                                          args.seconds, args.trace,
                                          declared[args.trace])
            print_result(args.workload, result)
            print(json.dumps(record["environment"]))
            print(json.dumps(result))
            return 0
        records = []
        for workload in workloads:
            for trace in (0, 1):
                result, record = run_workload(workload, args.seed,
                                              args.seconds, trace,
                                              declared[trace])
                print_result(workload, result)
                records.append(record)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    summary = {"correct": all(r["result"]["correct"] for r in records),
               "attempted": sum(r["result"]["attempted"] for r in records),
               "failed": sum(r["result"]["failed"] for r in records)}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"summary": summary, "runs": records}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
