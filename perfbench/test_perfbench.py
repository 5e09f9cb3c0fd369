"""Self-test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

It takes about a minute: every workload is traced twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SEED = 7
COUNT_METRICS = [name for name, unit in run.PER_LAYER.items() if unit in ("count", "B", "bits")]


@pytest.fixture(autouse=True)
def checkout_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))


def traced_counts(jobs, outcomes):
    tracer = spans.Tracer()
    with tracer:
        run.run_pass(jobs, outcomes, tracer)
    assert tracer.missing == []
    metrics = spans.layer_metrics(tracer)
    return {name: metrics.get(name, 0) for name in COUNT_METRICS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(workload):
    _, ybalg, jobs = run.set_up(workload, SEED)
    compose = ybalg.tensoralg.TensorMap.compose
    rref = ybalg.frt.rref
    outcomes = run.Outcomes(workload, SEED)
    first = traced_counts(jobs, outcomes)
    second = traced_counts(jobs, outcomes)
    assert first == second
    assert any(first.values())
    assert outcomes.failed == 0, outcomes.problems
    # uninstalling puts every original back
    assert ybalg.tensoralg.TensorMap.compose is compose
    assert ybalg.frt.rref is rref


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_metric_tables_agree():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    mapped = [name for entry in json.loads((HERE / "layer_map.json").read_text())["map"]
              for name in entry["per_layer"]]
    assert sorted(mapped) == sorted(run.PER_LAYER)


def test_speed_scale_follows_the_nearest_samples():
    probe = speed.SpeedProbe()
    probe.samples = [(0.0, 0.1), (1.0, 0.1), (2.0, 0.1), (10.0, 0.4), (11.0, 0.4), (12.0, 0.4)]
    assert probe.scale(at=1.0) == speed.REFERENCE_S / 0.1
    assert probe.scale(at=11.5) == speed.REFERENCE_S / 0.4
    assert probe.scale() == speed.REFERENCE_S / 0.25
