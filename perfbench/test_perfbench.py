"""Tests of the benchmark runner itself, at tiny sizes.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--verify-points", "5", "--sweep-points", "101", "--query-rate", "400"]
ROADMAP_NAMES = {
    "verify-grid": ("verify_s",),
    "sweep-dense": ("sweep_cells_per_s",),
    "point-queries": ("query_p50_ms", "query_p99_ms", "queries_per_s"),
}


def load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", *TINY, "--workload", workload,
               "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    if workload != "point-queries":
        assert result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    text = "\n".join(lines[:-1])
    if trace == 0:
        for name in ROADMAP_NAMES[workload] + ("setup_s", "error_rate", "peak_rss_mb"):
            assert f"\n{name} " in text
        assert "numpy=" in text and "commit=" in text and "CTXSD_TOL=unset" in text


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "verify-grid", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")


def tiny_args() -> argparse.Namespace:
    return argparse.Namespace(verify_points=5, sweep_points=101, query_rate=400)


def test_wrong_digest_is_a_failed_operation(tmp_path):
    run = load_runner()
    ctxsd = run.load_package()
    sweep = run.SweepDense(ctxsd, tiny_args(), tmp_path, None)
    assert not sweep.run(run.Clock()).failed
    sweep.digests["fig4.csv"] = "0" * 64
    op = sweep.run(run.Clock())
    assert op.failed
    assert any("fig4.csv" in problem for problem in op.problems)


def test_wrong_answer_is_a_failed_operation(tmp_path, monkeypatch):
    run = load_runner()
    ctxsd = run.load_package()
    rng = run.random.Random(3)
    queries = run.PointQueries(ctxsd, tiny_args(), tmp_path, rng)
    interior = [op for op in (queries.run(run.Clock()) for _ in range(8)) if not op.corner]
    assert interior and not any(op.failed for op in interior)

    original = ctxsd.mcm_optimal

    def off_by_a_little(theta, p, *args):
        povm, rate = original(theta, p, *args)
        return povm, rate + 1e-6

    monkeypatch.setattr(ctxsd, "mcm_optimal", off_by_a_little)
    ops = [queries.run(run.Clock()) for _ in range(8)]
    assert all(op.failed for op in ops)
    assert all(any("mcm P_0" in problem for problem in op.problems) for op in ops)


def test_untyped_error_is_a_failed_operation(tmp_path, monkeypatch):
    run = load_runner()
    ctxsd = run.load_package()
    queries = run.PointQueries(ctxsd, tiny_args(), tmp_path, run.random.Random(3))

    def broken(scenario):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(ctxsd, "oracle_max_pg", broken)
    op = queries.run(run.Clock())
    assert op.failed and "ZeroDivisionError" in op.problems[0]


def test_corner_points_do_not_depend_on_the_seed():
    run = load_runner()

    def stream(seed):
        points = run.query_points(run.random.Random(seed))
        return [next(points) for _ in range(40)]

    a, b = stream(1), stream(2)
    assert [p for p in a if p[0]] == [p for p in b if p[0]]
    assert [p for p in a if not p[0]] != [p for p in b if not p[0]]
    assert sum(p[0] for p in a) == 40 // run.CORNER_EVERY
