"""Self-check of the benchmark harness.

    python3 bench/selfcheck.py

From the root of a source checkout, runs every workload at a tenth of its
size and checks that:

- the last stdout line is the result object, with every end-to-end metric of
  BENCHMARK.json (untraced run) or every per-layer metric (traced run), each
  with its declared unit, and no failed op;
- with --corrupt-reference the same run reports failed ops and correct=false;
- in a directory that holds only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = "0.1"


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(SPEC["command"] + args, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_workload(name: str) -> list[str]:
    problems = []
    base = ["--workload", name, "--seed", "7", "--seconds", "0.1", "--scale", SCALE]
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        try:
            result = _result(_run(base + ["--trace", trace]))
        except AssertionError as exc:
            problems.append(f"{name} --trace {trace}: {exc}")
            continue
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{name} --trace {trace}: metrics/units differ: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, "
                            f"units {[k for k in want if k in got and got[k] != want[k]]}")
        if not isinstance(result["attempted"], int) or result["attempted"] < 1:
            problems.append(f"{name} --trace {trace}: attempted={result['attempted']}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{name} --trace {trace}: {result['failed']} failed ops")
        print(f"{name} --trace {trace}: {len(got)} metrics, {result['attempted']} ops, "
              f"{result['failed']} failed", flush=True)
    try:
        corrupted = _result(_run(base + ["--trace", "0", "--corrupt-reference"]))
        if corrupted["correct"] or corrupted["failed"] < 1:
            problems.append(f"{name}: a corrupted reference was not reported as a failed op")
        print(f"{name} with a corrupted reference: {corrupted['failed']} failed", flush=True)
    except AssertionError as exc:
        problems.append(f"{name} --corrupt-reference: {exc}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_tmp" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {proc.returncode}", flush=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: the benchmark did not fail without the program source"]
    return []


def main() -> int:
    problems = check_bare_directory()
    for workload in SPEC["workloads"]:
        problems += check_workload(workload["name"])
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
