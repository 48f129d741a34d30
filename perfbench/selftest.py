"""Self-test of the benchmark. Run from the repository root::

    python3 perfbench/selftest.py

1. Every metric name that ``run.py`` prints is declared in BENCHMARK.json,
   and its result line carries exactly the declared metrics of its mode.
2. A smoke-size traced run of every workload finishes with no failure.
3. Perturbed outputs are reported as failures: one BER error count off by
   one, one PAPR sample moved by 1e-9 dB.

Exits with 1 if any check fails.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

HERE = Path(__file__).resolve().parent
failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def printed_names() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"] for m in spec[key]}
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "operators",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170)
        check(proc.returncode == 0, f"run.py --trace {trace} exits 0")
        if proc.returncode:
            print(proc.stderr)
            continue
        lines = proc.stdout.strip().splitlines()
        table = {line.split()[1] for line in lines[:-2]} - {"attempted/failed"}
        check(table <= declared, f"--trace {trace}: printed names declared "
                                 f"(extra: {sorted(table - declared)})")
        result = json.loads(lines[-1])
        check(set(result["metrics"]) == declared,
              f"--trace {trace}: result carries exactly the {key} metrics")


def smoke_runs() -> None:
    from run import WORK_DIR, BenchError, spawn
    from workloads import WORKLOADS
    Path(WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_DIR))
    try:
        for name in WORKLOADS:
            try:
                out = spawn("run", name, 1, work / name, 170, "--size",
                            "smoke", "--seconds", "0", "--trace", "1")
            except BenchError as err:
                check(False, f"smoke {name}: {err}")
                continue
            check(out["failed"] == 0 and out["attempted"] > 0,
                  f"smoke {name}: {out['attempted']} attempted, "
                  f"{out['failed']} failed {out['notes']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def perturbations() -> None:
    import afbm.cli as cli
    from child import REFERENCES, observe_reference
    from workloads import WORKLOADS, compare
    recorded = json.loads(REFERENCES.read_text())
    cases = (("ber_qam16", "ber", "ber_errors", 1),
             ("papr_fig3", "papr", "papr_samples_db", 1e-9))
    with tempfile.TemporaryDirectory(dir=".") as work:
        for workload, label, key, delta in cases:
            seen = observe_reference(WORKLOADS[workload], cli,
                                     Path(work) / workload)
            problems, observation = seen[label]
            reference = recorded[workload][label]
            check(not problems and not compare(observation, reference),
                  f"{workload}: unperturbed output matches its reference")
            bad = copy.deepcopy(observation)
            bad[key][len(bad[key]) // 2] += delta
            check(bool(compare(bad, reference)),
                  f"{workload}: {key} moved by {delta} is a failure")


if __name__ == "__main__":
    printed_names()
    smoke_runs()
    perturbations()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)
