"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench
They launch the runner with one-second runs and take about two minutes.
"""
from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

from calibrator import Calibrator
from run import REFERENCE, Run, per_layer_names, unit_of
from tracer import Tracer
from workloads import LAYERS, SWEEP_CASES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER = os.path.join(HERE, "run.py")


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


def test_benchmark_json_matches_the_runner(runs):
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == per_layer_names()
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report, result = runs[(workload, trace)]
            assert report["workload"] == workload
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert set(result["metrics"]) == {m["name"] for m in bench[key]}
            for m in bench[key]:
                assert result["metrics"][m["name"]]["unit"] == m["unit"] == unit_of(m["name"])


def test_current_code_has_no_failed_operation(runs):
    for (workload, trace), (report, result) in runs.items():
        assert result["correct"] and result["failed"] == 0, (workload, trace)
        assert result["attempted"] >= 1 and report["error_rate"] == 0


def test_trace_reports_every_layer(runs):
    for module, functions in LAYERS.items():
        assert any(
            runs[(w, 1)][1]["metrics"][f"{module}.{f}.calls"]["value"] > 0
            for w in WORKLOADS for f in functions
        ), module
    metrics = runs[("verify-sweep", 1)][1]["metrics"]
    assert 0 < metrics["qchev.oracle.kept_ratio"]["value"] < 1
    assert metrics["trace.overhead"]["value"] > 0


def test_artifacts_cover_the_default_sweep():
    with open(REFERENCE, encoding="utf-8") as fh:
        verify_rows = json.load(fh)["verify"]
    assert sorted({row.split()[0] for row in verify_rows}) == sorted(SWEEP_CASES)


def _tamper(reference: dict, part: str) -> None:
    if part == "verify":
        reference["verify"][5] = reference["verify"][5].replace(" ok", " FAIL")
    elif part == "charpoly":
        reference["charpoly"]["E6/w1"][1][2] += 1
    else:
        key = next(k for k in reference["artifacts"] if k.endswith("qtable.json"))
        reference["artifacts"][key] = "0" * 64


@pytest.mark.parametrize("workload, part", [
    ("verify-sweep", "verify"),
    ("charpoly-artifacts", "charpoly"),
    ("charpoly-artifacts", "artifacts"),
])
def test_tampered_reference_makes_operations_fail(workload, part):
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    _tamper(reference, part)
    run = Run(workload, 3, 1, reference)
    run.sample("sample", run.payload)
    assert run.failed > 0


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "charpoly-artifacts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calibrator_measures_units_and_stops():
    with Calibrator() as gauge:
        mark = gauge.mark()
        time.sleep(0.3)
        assert 0 < gauge.unit_s(mark) < 0.3
    assert not gauge.proc.is_alive()


def test_tracer_patches_every_binding_and_keeps_cache_controls():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    @functools.lru_cache(maxsize=None)
    def leaf(x):
        return x + 1

    def outer(x):
        return b.leaf(x) + b.leaf(x + 1)

    a.leaf, a.outer = leaf, outer
    b.leaf = leaf  # bound by name, as `from .a import leaf` does
    modules = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    try:
        tracer = Tracer()
        tracer.install("fakepkg", {"a": ["leaf", "outer"]})
        assert b.leaf is a.leaf and b.leaf is not leaf
        assert a.outer(1) == 5
        b.leaf.cache_clear()
        assert b.leaf.cache_info().currsize == 0
        summary = tracer.summary()
        assert summary["calls"] == {"a.outer": 1, "a.leaf": 2}
        total = tracer.end[0] - tracer.start[0]
        assert summary["covered_s"] == pytest.approx(total)
        assert sum(summary["self_s"].values()) == pytest.approx(total)
        assert list(tracer.parent) == [-1, 0, 0]
        assert tracer.child_calls("a.outer", "a.leaf") == 2
        assert tracer.child_calls("a.leaf", "a.outer") == 0
    finally:
        for name in modules:
            del sys.modules[name]
