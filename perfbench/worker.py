"""One fresh benchmark process: set up a workload, then time passes over it.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
a ``READY`` line once the inputs exist (the parent times set-up up to that
line), then, unless ``--mode setup``, one ``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # the separation CLI outputs are compared across two passes


def _import_workloads():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wallkit

    if Path(wallkit.__file__).resolve().parent != (src / "wallkit").resolve():
        raise SystemExit(f"wallkit imported from {wallkit.__file__}, not from {src}")
    import workloads

    return workloads


def _peak_rss_mib() -> float:
    """Peak resident set of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(parts, checks, seconds: float, traced: bool) -> dict:
    """Run passes over ``parts`` (``(run_pass, state)`` pairs) for about
    ``seconds``, and at least MIN_PASSES; no pass starts that would be
    expected to end past the deadline.  In a traced run, passes alternate
    untraced and traced, so both medians come from the same process."""
    import spans

    tracer = spans.Tracer() if traced else None
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    plain: list[float] = []
    with_trace: list[float] = []
    layers: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_PASSES or time.perf_counter() + statistics.median(plain + with_trace) < deadline:
        tracing = traced and i % 2 == 1
        if tracing:
            tracer.reset()
            tracer.install()
        gc.collect()  # the previous pass's garbage is not charged to this one
        t0 = time.perf_counter()
        for run_pass, state in parts:
            try:
                run_pass(state, checks)
            except Exception as exc:  # a raising operation is a counted failure
                traceback.print_exc()
                checks.raised(exc)
        elapsed = time.perf_counter() - t0
        if tracing:
            tracer.uninstall()
            with_trace.append(elapsed)
            layers.append(spans.layer_metrics(tracer, names))
        else:
            plain.append(elapsed)
        i += 1
    out = {
        "pass_s": plain,
        "traced_pass_s": with_trace,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "peak_rss_mb": _peak_rss_mib(),
    }
    if traced:
        metrics = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
        # the one per-layer metric that compares passes rather than spans
        metrics["trace.overhead_s"] = statistics.median(with_trace) - statistics.median(plain)
        out["layers"] = metrics
        out["untraced"] = tracer.missing
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    workloads = _import_workloads()
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        parts = []
        for name in workloads.WORKLOADS[args.workload]:
            setup, run_pass = workloads.PARTS[name]
            parts.append((run_pass, setup(args.seed, tmp)))
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        result = measure(parts, workloads.Checks(), args.seconds, args.mode == "trace")
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
