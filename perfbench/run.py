"""qlogic benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh interpreters started one after another, with
BLAS/OpenMP pinned to one thread and a fixed hash seed, and loads qlogic
from this checkout's src/.  With --trace 0 it prints the end-to-end
metrics: setup_s (median over SETUP_SAMPLES fresh interpreters, from
process start to the first op), ops_per_s, op_ms.p50/p90 and peak_rss_mb,
plus error_rate and a sha256 over the outputs.  Times are normalised to a
nominal machine speed by a reference kernel timed while the program runs
(see worker.py); the wall-clock figures are printed beside them.  With
--trace 1 it runs the workload's fixed op list untraced and then traced,
and prints the per-layer metrics.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Workloads, seeds
and the layer-to-metric map are in perfbench/plan.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("qm_corpus", "qm_query", "classical_check")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170  # per workload, for every interpreter it starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
         "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return its start time (monotonic) and its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=_env(), stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    out = HERE / "out"
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--workdir", str(out / f"work-{name}-{os.getpid()}")]
    # compile bytecode first, so that no setup sample pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=ROOT,
                   env=_env(), stdout=subprocess.DEVNULL, timeout=60)
    if trace:
        spans = out / f"spans-{name}-{seed}.jsonl"
        _, res = _worker([*common, "--mode", "trace", "--spans", str(spans)], deadline)
        res["spans"] = str(spans.relative_to(ROOT))
        return res
    setups, raw_setups = [], []
    for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["run"]:
        started, res = _worker([*common, "--mode", mode], deadline)
        raw_setups.append(res["ready"] - started - res["setup_spent"])
        setups.append(raw_setups[-1] * res["setup_factor"])
    res["setup_s"] = statistics.median(setups)
    res["raw"]["setup_s"] = statistics.median(raw_setups)
    res["metrics"] = {m: res[m] for m in UNITS}
    return res


def _print_report(name: str, seed: int, trace: bool, res: dict) -> None:
    print(f"== {name} (seed {seed}, trace {int(trace)})")
    if trace:
        for metric, unit in metric_units().items():
            print(f"  {metric:48s} {res['metrics'][metric]:14.6g} {unit}")
        print(f"  spans written to {res['spans']}")
    else:
        for metric, unit in UNITS.items():
            note = ""
            if metric in res["raw"]:
                note = f"  (wall clock {res['raw'][metric]:.4f})"
            if metric == "setup_s":
                note += f"  median of {SETUP_SAMPLES} interpreters"
            elif metric.startswith("op_ms"):
                note += f"  {res['ops']} samples"
                if metric == "op_ms.p90" and res["ops"] < 100:
                    note += "; under 100, so the input strata set it, not noise"
            print(f"  {metric:14s} {res['metrics'][metric]:12.4f} {unit}{note}")
        print(f"  {'error_rate':14s} {res['failed'] / res['ops']:12.4f} fraction"
              f"  ({res['failed']} of {res['ops']} ops failed)")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  output sha256 over the first {res['digest_ops']} ops: {res['digest']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=json.loads((HERE / "plan.json").read_text())["default_seed"])
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qlogic" / "__init__.py").is_file():
        print(f"no qlogic sources under {ROOT / 'src'}; run from a qlogic checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        _print_report(name, args.seed, bool(args.trace), results[name])
    units = metric_units() if args.trace else UNITS
    metrics = {
        (m if len(names) == 1 else f"{n}.{m}"): {"value": v, "unit": units[m]}
        for n, r in results.items()
        for m, v in r["metrics"].items()
    }
    attempted = sum(r["ops"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
