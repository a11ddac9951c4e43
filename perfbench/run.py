"""deltabox benchmark: seeded CLI request lists, timed end to end and per layer.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1          # all three workloads

Workloads (see workloads.py): `tables` mixes the gallery's closed-form
commands, `fourier` builds and sums sine-series expansions, `oracle` runs
the finite-difference cross-check.  --seconds sets the length of the
request list (requests per second measured at the benchmark's first
commit, times --seconds), so a faster deltabox finishes the same list in
less time.

This process imports neither numpy nor deltabox.  It starts each workload
process (worker.py) itself, so set-up time covers the interpreter start and
every import deltabox makes.  With --trace 0 it prints the end-to-end
metrics:

  setup_s      spawn of a workload interpreter until deltabox is imported
               and the request list is built; median of 7 probe processes
               started after one discarded warm-up
  wall_s       summed request times of the whole list (checks excluded)
  req_p50_ms   median request latency; req_p90_ms too on lists of at least
               100 requests (it is printed, not part of the JSON line)
  peak_rss_mb  ru_maxrss of the workload process

Request times are scaled to the host's usual speed, because the shared host
they were tuned on switches between two speeds about 1.7 times apart every
few seconds.  The workload process times a fixed pure-Python routine between
requests (worker.calibrate) and scales each request by the samples around
it.  Raw times and the run's mean speed are printed too.  Set-up time is not
scaled: process start and imports do not follow that routine's speed.

With --trace 1 it runs the same list again in a second process with every
traced layer wrapped, and prints per-layer calls and self time (divided by
that run's mean host speed), counters, set-up facts and trace.overhead_frac
(traced over untraced wall_s, minus 1).  Span records go to perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A request fails when cli.main raises, exits non-zero, or prints
output that fails its check (checks.py).  The exit code is 0 whenever a
result is printed, and 2 when no result can be produced.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import ERROR_COUNTS, LAYERS  # noqa: E402  (stdlib only)
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# Every run must end within 180 s; the traced run takes about three lists.
WORKER_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _worker(args: argparse.Namespace, *extra: str) -> dict:
    """Run worker.py once; return its JSON result and its spawn time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(cmd)} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup"]["setup_s"] = result["setup"]["ready"] - spawned
    return result


def setup_seconds(args: argparse.Namespace) -> float:
    _worker(args, "--probe")  # fills the bytecode cache, as an install would
    samples = [_worker(args, "--probe")["setup"]["setup_s"] for _ in range(SETUP_PROBES)]
    return statistics.median(samples)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_workload(args: argparse.Namespace) -> dict:
    setup_s = setup_seconds(args)
    plain = _worker(args)
    speed = plain["speed"]
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": _nproc(), "cpu": _cpu_model(),
        "python": plain["python"], "numpy": plain["numpy"],
    }
    print("machine " + json.dumps(facts))
    print("load closed loop, 1 client, 1 thread")
    print(f"requests {plain['requests']} count")
    print(f"fail_frac {plain['failed'] / plain['requests']:.6g} ratio")
    for failure in plain["failures"]:
        print(f"FAILED deltabox {' '.join(failure['argv'])}: {failure['reason']}")
    print(f"host_speed {speed:.6g} ratio (mean slowness over the run, 1 is usual)")
    print(f"raw wall_s {plain['raw_wall_s']:.6g} s, req_p50_ms {plain['raw_req_p50_ms']:.6g} ms")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (plain["wall_s"], "s"),
        "req_p50_ms": (plain["req_p50_ms"], "ms"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
    }
    if args.trace:
        traced = _worker(args, "--trace")
        if traced["output_sha256"] != plain["output_sha256"]:
            raise BenchmarkError("traced and untraced runs printed different tables")
        metrics = trace_metrics(plain, traced)
        print(f"spans {traced['span_records']} records in {traced['span_file']}")
        for layer in traced["missing_layers"]:
            print(f"WARNING layer {layer} not found in deltabox; reported as 0")
    else:
        p90 = plain["req_p90_ms"]
        print("req_p90_ms " + (f"{p90:.6g} ms" if p90 is not None
                               else "n/a (fewer than 100 requests)"))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" if isinstance(value, float) else f"{name} {value} {unit}")
    return {
        "correct": plain["failed"] == 0,
        "attempted": plain["requests"],
        "failed": plain["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def trace_metrics(plain: dict, traced: dict) -> dict:
    metrics = {}
    for layer in LAYERS:
        totals = traced["layers"].get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (totals["calls"], "count")
        metrics[f"{layer}.self_s"] = (totals["self_s"] / traced["speed"], "s")
    for layer in ERROR_COUNTS:
        metrics[f"{layer}.errors"] = (traced["errors"].get(layer, 0), "count")
    for name, value in traced["counters"].items():
        metrics[name] = (value, "count")
    metrics["setup.numpy_loaded"] = (traced["setup"]["numpy_loaded"], "flag")
    metrics["setup.modules_loaded"] = (traced["setup"]["modules_loaded"], "count")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if not (ROOT / "src" / "deltabox" / "cli.py").is_file():
        print(f"perfbench: no deltabox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        for workload in workloads:
            print(f"== {workload}")
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
            print(json.dumps(result), flush=True)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
