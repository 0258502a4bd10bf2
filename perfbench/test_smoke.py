"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload prints every metric by name with its unit, that
the traced run puts back every function it wrapped, that BENCHMARK.json
lists the metrics the command prints, and that the command fails without a
result when the evrelo sources are absent.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


def _invoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(["--workload", workload, "--seed", "0", "--seconds", "0",
                        "--trace", str(trace), "--tiny"])
    assert code == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_unit(workload, trace):
    lines = _invoke(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in expected
    }
    report = "\n".join(lines[:-1])
    for name, unit, _ in expected:
        assert any(name in line and unit in line.split() for line in lines[:-1]), name
    assert "solutions_sha256" in report


def test_trace_restores_every_wrapped_function():
    check = next(json.loads(line.split(" ", 1)[1]) for line in _invoke("compare_amat", 1)
                 if line.startswith("check "))
    assert check["restored"] is True and check["missing"] == []

    import tracing

    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    assert tracing.snapshot() != before
    tracer.uninstall()
    assert tracing.snapshot() == before


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    as_listed = [{"name": n, "unit": u, "better": b} for n, u, b in run.END_TO_END]
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in doc["end_to_end"]] \
        == as_listed
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in run.PER_LAYER]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rh_vamat", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
