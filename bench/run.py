"""Offline benchmark of FlakiDock: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
./src and nothing is built. The seed fixes the inputs. A run does a fixed
number of passes of fixed work, sized so that they take about S seconds on
the recording host, and at least 100 ops. Times are corrected to the
reference host speed (hostspeed.py), and per-op figures are the median of
each op over the passes. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. A human summary goes to stderr.

--trace 1 runs set-up and one pass untraced, then installs the wrappers of
tracing.py and runs set-up and one pass again; spans are written to
.bench_out/spans-WORKLOAD-seedN.jsonl when the run ends.

--scale shrinks every input (for the self-check); --corrupt-reference
falsifies one reference value so that the run must report a failed op.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One client in one thread: keep numpy's BLAS from starting threads of its own
# on the other cores, before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402

ROOT = Path.cwd()
MIN_OPS = 100  # op executions per run, at least
MIN_PASSES = 3  # per run, at least; per-op figures are medians over passes


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--corrupt-reference", action="store_true")
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import flakidock from ./src of the checkout, and nothing else."""
    src = ROOT / "src"
    if not (src / "flakidock" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {src}/flakidock; run from a checkout root")
    sys.path.insert(0, str(src))  # ahead of this directory, which holds the harness
    import flakidock

    if Path(flakidock.__file__).resolve().parent != (src / "flakidock").resolve():
        sys.exit(f"bench: imported flakidock from {flakidock.__file__}, not from {src}")


def _pin_mmap_threshold() -> None:
    """Keep glibc from raising its mmap threshold after big frees.

    Otherwise whether a later large array is mapped (and unmapped when freed)
    or carved from the heap (and kept) depends on allocation history, and
    peak RSS of the same work differs by a whole array between runs.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: nothing to pin
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD: glibc's default value, fixed


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _timed(fn, *args) -> float:
    gc.collect()  # start every timed step from the same collector state
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _timed_under(sampler, fn, *args) -> tuple[float, float, float]:
    """Seconds fn takes, less the sampler's time inside it, with its start and end."""
    gc.collect()
    start = time.perf_counter()
    spent = sampler.spent
    fn(*args)
    spent = sampler.spent - spent
    end = time.perf_counter()
    return end - start - spent, start, end


def main(argv=None) -> int:
    args = _parse_args(argv)
    _pin_mmap_threshold()
    _import_program()
    from tracing import LAYER_METRICS, Tracer
    from workloads import WORKLOADS, Ops

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.scale)
        # The generated inputs live as long as the run; keep them out of the
        # collector's way so that it only walks what the program allocates.
        gc.collect()
        gc.freeze()
        ops = Ops()
        pass_ops: list[range] = []  # indexes into ops of each pass
        pass_walls: list[float] = []

        def one_pass() -> float:
            first = len(ops.outputs)
            seconds = _timed(workload.run_pass, len(pass_ops), ops)
            pass_ops.append(range(first, len(ops.outputs)))
            pass_walls.append(seconds)
            shutil.rmtree(workdir / "pass", ignore_errors=True)
            return seconds

        if args.trace:
            untraced = _timed(workload.setup) + one_pass()
            tracer = Tracer()
            ops.on_op = tracer.next_op
            workload.counters = {}
            tracer.install()
            try:
                traced = _timed(workload.setup) + one_pass()
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics(traced, traced - untraced, workload.counters)
            tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            # A fixed number of passes for a given --seconds, never "as many
            # as fit": the work of a run does not depend on the program's speed.
            passes = max(MIN_PASSES, round(args.seconds / workload.pass_seconds))
            repeats = workload.setup_repeats
            setups = []
            with hostspeed.Sampler() as sampler:
                ops.sampler = sampler
                index = 0
                while index < passes or len(ops.outputs) < MIN_OPS:
                    # Set-up runs before passes spread over the whole run, so
                    # that its median is not taken from one stretch of host load.
                    due = -(-(index + 1) * repeats // passes) + (index * repeats // -passes)
                    for _ in range(due):
                        setups.append(_timed_under(sampler, workload.setup))
                    one_pass()
                    index += 1
            # Every time at the reference host speed (see hostspeed.py).
            setup_times = [seconds / sampler.factor(start, end) for seconds, start, end in setups]
            pass_latencies = [[ops.latencies[i] / sampler.factor(*ops.intervals[i]) for i in ops_of]
                              for ops_of in pass_ops]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdicts = [ok for index, ops_of in enumerate(pass_ops)
                    for ok in workload.check(index, ops.outputs[ops_of.start:ops_of.stop],
                                             args.corrupt_reference)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(verdicts)
    failed = verdicts.count(False)
    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        # Every pass does the same ops, so op i of a pass has one latency per
        # pass. Its median over the passes, at the reference host speed, is
        # the op's cost without the bursts of other load on the host that
        # the correction misses; the figures below are taken over these.
        per_op_ms = [statistics.median(column) * 1000.0 for column in zip(*pass_latencies)]
        metrics = {
            "throughput_ops_per_s": {"value": len(per_op_ms) / (sum(per_op_ms) / 1000.0), "unit": "1/s"},
            "latency_p50_ms": {"value": _percentile(per_op_ms, 0.50), "unit": "ms"},
            "latency_p90_ms": {"value": _percentile(per_op_ms, 0.90), "unit": "ms"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload} seed={args.seed} passes={len(pass_ops)} "
          f"wall_s={[round(w, 2) for w in pass_walls]} ops={attempted} "
          f"failed={failed} (error_rate={failed / attempted:.4f})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:55s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
