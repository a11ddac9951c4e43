"""Workload process: runs one seeded request list through deltabox.cli.main.

Started by run.py in a fresh interpreter.  It imports deltabox from the
checkout's src/ directory, builds the request list and reports the moment
it is ready (the end of set-up).  Unless it is a set-up probe, it then
sends the requests in a closed loop with one client, in this one thread:
each request is sent when the previous one has returned.  Every output is
checked between requests, outside the timed region.  The last line on
stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# This shared 2-CPU host switches, every few seconds, between two speeds
# about 1.7 times apart.  So every run also times a fixed pure-Python
# routine before the first request and then whenever 50 ms of request time
# have passed.  Each request time is scaled by REFERENCE_S over the mean of
# the two samples around it: REFERENCE_S is the routine's duration on the
# same host in its usual, slower state (Intel Xeon, Python 3.11).
REFERENCE_S = 0.0014
CALIBRATE_EVERY_S = 0.05


def reference_work() -> float:
    """About 1 ms of fixed interpreter work: float math, repr and joins."""
    acc = 0.0
    parts = []
    for i in range(1, 1000):
        x = math.sin(0.001 * i) * math.sqrt(i)
        parts.append(repr(x))
        acc += abs(x) / (1.0 + i % 7)
    return acc + len(",".join(parts))


def calibrate() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--probe", action="store_true", help="set up, report, exit")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    loaded_before = len(sys.modules)
    sys.path.insert(0, str(ROOT / "src"))
    from deltabox import cli

    import workloads

    requests = workloads.build_requests(args.workload, args.seed, args.seconds)
    ready = time.perf_counter()
    setup = {
        "ready": ready,
        "numpy_loaded": int("numpy" in sys.modules),
        "modules_loaded": len(sys.modules) - loaded_before,
    }
    if args.probe:
        print(json.dumps({"setup": setup}))
        return 0
    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz" if args.trace else None
    result = run(cli, args.workload, requests, spans)
    result["setup"] = setup
    print(json.dumps(result))
    return 0


def run(cli, workload: str, requests, spans=None) -> dict:
    """Send `requests` through cli.main one after another and check each.

    With `spans` (a path), every traced layer is wrapped first and the span
    records are written there at the end.
    """
    # Imported here, after set-up has been timed.
    import contextlib
    import hashlib
    import io
    import resource
    import statistics
    import traceback
    from importlib import metadata

    from checks import CHECKS

    check = CHECKS[workload]
    tracer = None
    if spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    durations = []
    failures = []
    calibration = [calibrate()]
    before = []  # index of the last calibration sample before each request
    since = 0.0
    digest = hashlib.sha256()
    for rid, req in enumerate(requests):
        if since >= CALIBRATE_EVERY_S:
            calibration.append(calibrate())
            since = 0.0
        before.append(len(calibration) - 1)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request_id, tracer.recording = rid, True
        crash = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(req.argv))
        except Exception as exc:  # a crashing request is counted, not fatal
            crash = traceback.format_exception_only(type(exc), exc)[-1].strip()
        finally:
            durations.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.recording = False
        since += durations[-1]
        if crash is not None:
            reason = f"exception escaped cli.main: {crash}"
        elif code != 0:
            reason = f"exit code {code}, expected 0: {err.getvalue().strip()}"
        else:
            text = out.getvalue()
            digest.update(text.encode())
            reason = check(req, text)
        if reason is not None:
            failures.append({"argv": list(req.argv), "reason": reason})
    calibration.append(calibrate())
    scaled = [
        d * 2 * REFERENCE_S / (calibration[b] + calibration[b + 1])
        for d, b in zip(durations, before)
    ]
    result = {
        "requests": len(requests),
        "failed": len(failures),
        "failures": failures,
        "raw_wall_s": sum(durations),
        "raw_req_p50_ms": 1e3 * statistics.median(durations),
        "wall_s": sum(scaled),
        "req_p50_ms": 1e3 * statistics.median(scaled),
        # p90 needs at least ten samples beyond it.
        "req_p90_ms": (
            1e3 * statistics.quantiles(scaled, n=10)[-1] if len(scaled) >= 100 else None
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # Mean host slowness over the run, 1 in the usual state.
        "speed": statistics.fmean(calibration) / REFERENCE_S,
        "output_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": _version(metadata, "numpy"),
    }
    if tracer is not None:
        result["layers"] = {
            layer: {"calls": calls, "self_s": self_s}
            for layer, (calls, self_s) in tracer.layer_totals().items()
        }
        result["errors"] = tracer.errors
        result["counters"] = tracer.counters
        result["missing_layers"] = tracer.missing
        result["span_records"] = tracer.write_spans(spans)
        result["span_file"] = str(spans.relative_to(ROOT))
    return result


def _version(metadata, dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


if __name__ == "__main__":
    sys.exit(main())
