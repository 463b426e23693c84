"""The benchmark's own tests: backend parity, trace reconciliation and
the output contract.

Run from the repository root::

    PYTHONPATH=src python -m pytest layerbench/test_layerbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layer_trace  # noqa: E402
import run  # noqa: E402
import service_runs  # noqa: E402
import solver_runs  # noqa: E402


def _spec(workload: solver_runs.SolverWorkload, seed: int = 7):
    solve_seed, = solver_runs.solve_seeds("test", seed, 1)
    return solver_runs.make_spec(workload, 0, seed, solve_seed)


@pytest.mark.parametrize("workload", [solver_runs.DIVERSITY_M64,
                                      solver_runs.WORKLOADS["diversity-m32-d16"]],
                         ids=["m64", "m32"])
def test_backend_parity_diversity_d16(workload):
    """Process-backend digest and oracle ledger equal the serial ones."""
    w = workload
    spec = _spec(w)
    serial = solver_runs.solve_once(w, spec, backend="serial")
    process = solver_runs.solve_once(w, spec, backend="process")
    assert process.effective_workers == 2
    assert process.digest == serial.digest
    assert (process.evals, process.oracle_calls) == (serial.evals, serial.oracle_calls)
    assert (process.rounds, process.total_words) == (serial.rounds, serial.total_words)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_traced_solve_reconciles_and_matches_untraced(backend):
    w = replace(solver_runs.WORKLOADS["diversity-m32-d16"], n=1200, machines=16,
                backend=backend)
    spec = _spec(w, seed=3)
    plain = solver_runs.solve_once(w, spec)
    tracer = layer_trace.Tracer()
    traced = solver_runs.solve_once(w, spec, tracer)   # reconcile() raises on mismatch
    assert traced.digest == plain.digest
    assert traced.trace_error <= solver_runs.SELF_TIME_TOLERANCE
    assert tracer.calls["api.solve"] == 1
    assert tracer.counts["cluster.messages"] == tracer.calls["cluster.send"]
    if backend == "process":
        # the forked workers' spans came back with their results
        pids = {span[6] for span in tracer.spans}
        assert len(pids) > 1


def test_kcenter_trace_counts_threshold_work():
    w = replace(solver_runs.WORKLOADS["kcenter-d2-20k"], n=3000, machines=8)
    tracer = layer_trace.Tracer()
    solve = solver_runs.solve_once(w, _spec(w), tracer)
    count_within = tracer.counts["metric.count_within.evals"]
    assert 0 < count_within <= solve.evals
    assert tracer.counts["core.degree_estimate.evals"] <= solve.evals
    assert tracer.calls["core.probe"] >= 1


def test_self_times_add_up_to_the_root_span():
    tracer = layer_trace.Tracer()
    root = tracer.enter("api.solve")
    child = tracer.enter("core.probe")
    grandchild = tracer.enter("metric.count_within")
    time.sleep(0.002)
    tracer.exit(grandchild)
    tracer.exit(child)
    wall = tracer.exit(root)
    assert sum(tracer.ledger.values()) == pytest.approx(wall, rel=1e-9)
    assert tracer.self_s["metric.count_within"] >= 0.002
    parents = {span[0]: span[4] for span in tracer.spans}
    ids = {span[0]: span[3] for span in tracer.spans}
    assert parents["metric.count_within"] == ids["core.probe"]


def test_core_names():
    assert layer_trace.core_name("kcenter/probe") == "core.probe"
    assert layer_trace.core_name("div/coreset") == "core.coreset"
    assert layer_trace.core_name("mis/round") == "core.mis_round"
    assert layer_trace.core_name("degree/estimate") == "core.degree_estimate"
    assert layer_trace.core_name("supplier/radius-estimate") == "core.radius_estimate"


def test_traced_service_window_restores_the_program():
    executes = service_runs.service_jobs.execute_job
    builds = service_runs.service_runner.build_cluster
    summary, tracer = service_runs.run(seed=5, seconds=2.0, trace=True, log=print)
    assert summary["failed"] == 0, summary["errors"]
    assert summary["attempted"] > 0
    assert service_runs.service_jobs.execute_job is executes
    assert service_runs.service_runner.build_cluster is builds
    assert tracer.calls["runner.execute_job"] >= 1
    assert tracer.calls["http.submit"] >= 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", "kcenter-d2-20k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
