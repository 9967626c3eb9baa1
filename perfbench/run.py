"""wallkit benchmark: one seeded workload, timed, checked, one JSON line.

    python3 perfbench/run.py --workload {check-word,ball-separation} \\
        --seed N --seconds S --trace {0,1}

Run from a wallkit checkout (the directory holding ``src/wallkit``).  The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` (setup_s,
run_s, peak_rss_mb, ok_ratio); ``--trace 1`` reports its per-layer metrics.
Workloads and the layer predictions are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# workload and metric names, and the metrics' units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Set-up processes per untraced run, half before and half after the
# measuring one, whose own set-up makes one more; setup_s is their median.
SETUP_SAMPLES_EACH_SIDE = 8
TIME_LIMIT_S = 170.0  # whole run, below the 180 s a run may take


class BenchError(Exception):
    pass


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wallkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_worker(args, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Start one fresh worker; return (set-up seconds, its result or None)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        head = b""
        setup_s = None
        while setup_s is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                raise BenchError(f"{mode} worker did not finish set-up in time")
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise BenchError(f"{mode} worker exited during set-up (code {proc.wait()})")
            head += chunk
            if b"\nREADY\n" in b"\n" + head:
                setup_s = time.perf_counter() - t0
        tail, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker ran past the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    out = (head + tail).decode()
    results = [ln[len("RESULT "):] for ln in out.splitlines() if ln.startswith("RESULT ")]
    if mode != "setup" and not results:
        raise BenchError(f"{mode} worker printed no result")
    return setup_s, (json.loads(results[-1]) if results else None)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wallkit" / "__init__.py").is_file():
        print(f"perfbench: no src/wallkit under {ROOT}; run it from a wallkit checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    print(
        f"env: python={platform.python_version()} cpus={os.cpu_count()} commit={_commit()} "
        f"src_sha256={_source_digest()} workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    try:
        if args.trace:
            _, res = run_worker(args, "trace", deadline)
        else:
            setups = [run_worker(args, "setup", deadline)[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
            setup_s, res = run_worker(args, "measure", deadline)
            setups.append(setup_s)
            setups += [run_worker(args, "setup", deadline)[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench-tmp").rmdir()
        except OSError:
            pass

    for msg in res["messages"]:
        print(f"check failed: {msg}")
    print("pass_s: " + " ".join(f"{t:.4f}" for t in res["pass_s"]))
    if args.trace:
        print("traced_pass_s: " + " ".join(f"{t:.4f}" for t in res["traced_pass_s"]))
        if res["untraced"]:
            print("not traced (missing in this commit): " + ", ".join(res["untraced"]))
        print(
            "note: with --jobs > 1 the separation sweep runs in pool children; their work shows "
            "only as the parent's separation.verify_linear_separation span"
        )
        metrics = {m["name"]: _metric(res["layers"][m["name"]], m["unit"]) for m in SPEC["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        attempted = max(res["attempted"], 1)
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(res["pass_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": 1.0 - res["failed"] / attempted,
        }
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setups))
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": max(res["attempted"], 1),
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
