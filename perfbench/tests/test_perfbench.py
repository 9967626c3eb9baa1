"""Tests for the benchmark itself.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from wallkit import dehn  # noqa: E402
from wallkit.errors import BudgetExceeded  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def printed():
    """The result line of a short run of every workload, untraced and traced."""
    out = {}
    for workload in SPEC["workloads"]:
        for trace in ("0", "1"):
            proc = _run(ROOT, "--workload", workload["name"], "--seed", "5", "--seconds", "1", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            out[workload["name"], trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_printed_output_matches_benchmark_json(printed):
    for (_, trace), result in printed.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        section = "per_layer" if trace == "1" else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # every per-layer name is one the traced run can measure: a misspelt
    # name would read 0 on every workload.  No two cells of these balls
    # share an edge, so check_B6 runs but finds no cell pieces.
    for m in SPEC["per_layer"]:
        values = [printed[w["name"], "1"]["metrics"][m["name"]]["value"] for w in SPEC["workloads"]]
        assert any(values) != (m["name"] == "complexes.cell_pieces"), m["name"]


def test_wrong_expected_value_is_reported_as_failure(monkeypatch):
    state = workloads.setup_word(1, None)
    monkeypatch.setitem(workloads.EXPECTED, "sweep_trivial", 2)
    checks = workloads.Checks()
    workloads.run_word(state, checks)
    assert checks.failed == 1
    assert "short words trivial" in checks.messages[0]


def test_wrong_vertex_count_is_reported_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "BALL_RADIUS", 4)
    state = workloads.setup_ball(1, None)
    checks = workloads.Checks()
    workloads.run_ball(state, checks)
    # the radius-4 ball is sound, but it is not the expected radius-9 ball
    assert checks.failed == 2 and checks.attempted == 4
    assert "vertices, edges, cells" in checks.messages[0]


def test_raising_operation_counts_as_failure(monkeypatch):
    def over_budget(*args, **kwargs):
        raise BudgetExceeded("test budget")

    state = workloads.setup_word(1, None)
    monkeypatch.setattr(dehn, "is_trivial", over_budget)
    out = worker.measure([(workloads.run_word, state)], workloads.Checks(), 0, False)
    assert out["failed"] == out["attempted"] == worker.MIN_PASSES
    assert "BudgetExceeded" in out["messages"][0]


def test_seed_changes_inputs_not_invariants(tmp_path):
    a, b = workloads.setup_word(1, tmp_path), workloads.setup_word(2, tmp_path)
    for name in a["long"]:
        assert a["long"][name] != b["long"][name]
        assert a["nf"][name] != b["nf"][name]
        # same sizes, so the work per pass does not depend on the seed
        assert [len(w) for w in a["nf"][name]] == [len(w) for w in b["nf"][name]]
    for state in (a, b):
        checks = workloads.Checks()
        workloads.run_word(state, checks)
        assert checks.failed == 0 and checks.attempted > 0
    sa, sb = workloads.setup_separation(1, tmp_path), workloads.setup_separation(2, tmp_path)
    assert sa["pairs"] != sb["pairs"]
    for state in (sa, sb):
        checks = workloads.Checks()
        workloads.run_theta_half(state, checks)
        assert checks.failed == 0 and checks.attempted > 0


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.05), "inner")
    outer = tracer.wrap(lambda: (time.sleep(0.02), inner(), inner()), "outer")
    outer()
    agg = tracer.aggregate()
    assert agg["inner"]["calls"] == 2 and agg["outer"]["calls"] == 1
    assert agg["outer"]["total_s"] >= agg["inner"]["total_s"] + 0.02
    assert agg["outer"]["self_s"] == pytest.approx(agg["outer"]["total_s"] - agg["inner"]["total_s"])


def test_dehn_inside_ball_build_is_charged_to_dehn():
    from wallkit import complexes, presentation

    p = presentation.gen_example("tv", I={1, 2}, k=7)
    m = dehn.DehnMachine(p)
    tracer = spans.Tracer()
    tracer.install()
    try:
        complexes.build_cayley_ball(p, m, 4)
    finally:
        tracer.uninstall()
    assert not hasattr(complexes.dehn_reduce, "__wrapped__")  # uninstall restored it
    layer = spans.layer_metrics(tracer, ["dehn.dehn_reduce.calls", "complexes.vertices"])
    assert layer["dehn.dehn_reduce.calls"] > 0
    assert layer["complexes.vertices"] > 0
    agg = tracer.aggregate()
    ball = agg["complexes.build_cayley_ball"]
    assert ball["self_s"] < ball["total_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "check-word", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
