"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

From the root of a source checkout. Runs are sequential. For each workload
and end-to-end metric it records every value, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (quartile distance over
the median); the traced run of the first seed gives the per-layer values.
Host details go alongside so that numbers are compared like for like.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _host() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    report = {"host": _host(), "run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            result = _run(workload, seed, 0)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "elapsed_s": time.perf_counter() - start})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), file=sys.stderr)
        summary = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else 0.0, "values": vals}
        traced = _run(workload, seeds[0], 1)
        report["workloads"][workload] = {
            "runs": runs,
            "end_to_end": summary,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
