"""Layered benchmark of the repro solver stack.

Run from the repository root::

    python3 layerbench/run.py --workload kcenter-d2-20k --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same work untraced and traced, reports the
per-layer metrics of the traced part and the tracing overhead, and
writes the spans as a Chrome trace.  Every output is checked; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Artifacts (stamped JSON and
the Chrome trace) go to ``layerbench/out/``.  See ``layerbench/README.md``
for the metric catalogue and the layer → metric → workload map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("kcenter-d2-20k", "diversity-m32-d16", "service-mixed")

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"), ("solve_s", "s"), ("oracle_evals", "count"), ("rounds", "count"),
    ("max_machine_words", "words"), ("peak_known_points", "count"),
    ("approx_ratio", "ratio"), ("peak_rss_mb", "MB"), ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"), ("job_p95_s", "s"), ("ok_ratio", "ratio"),
)

#: (name, unit) of every per-layer metric.  Counts and seconds are per
#: request (one solve, or one service job); ``*_p50`` are medians of
#: single calls; ``trace.*`` describe the tracing itself.
PER_LAYER = (
    ("metric.count_within.calls", "count"), ("metric.count_within.evals", "count"),
    ("metric.count_within.s", "s"), ("metric.count_within.evals_per_s", "1/s"),
    ("metric.dist_to_set.calls", "count"), ("metric.dist_to_set.evals", "count"),
    ("metric.dist_to_set.s", "s"), ("metric.dist_to_set.evals_per_s", "1/s"),
    ("metric.pairwise.calls", "count"), ("metric.pairwise.evals", "count"),
    ("metric.pairwise.s", "s"), ("metric.other.evals", "count"),
    ("machine.require_known.calls", "count"), ("machine.require_known.s", "s"),
    ("machine.learn.calls", "count"), ("machine.learn.s", "s"), ("machine.self_s", "s"),
    ("cluster.send.calls", "count"), ("cluster.send.s", "s"),
    ("cluster.step.calls", "count"), ("cluster.step.s", "s"),
    ("cluster.messages", "count"), ("cluster.words", "words"), ("cluster.self_s", "s"),
    ("executor.map_machines.calls", "count"), ("executor.map_machines.s", "s"),
    ("executor.task_s", "s"), ("executor.dispatch_s", "s"),
    ("executor.effective_workers", "count"), ("executor.fallbacks", "count"),
    ("core.coreset.s", "s"), ("core.coreset.evals", "count"),
    ("core.degree_estimate.calls", "count"), ("core.degree_estimate.s", "s"),
    ("core.degree_estimate.evals", "count"), ("core.probe.calls", "count"),
    ("core.mis_round.calls", "count"), ("core.mis_prune.s", "s"), ("core.mis_luby.s", "s"),
    ("core.radius.s", "s"), ("core.driver_self_s", "s"),
    ("api.build_cluster.s", "s"),
    ("runner.execute_job.calls", "count"), ("runner.execute_job.s", "s"),
    ("jobs.queue_wait_s_p50", "s"), ("jobs.run_s_p50", "s"), ("jobs.retries", "count"),
    ("jobs.cache_hit_ratio", "ratio"), ("jobs.submitted", "count"),
    ("store.calls", "count"), ("store.s", "s"), ("datasets.register.s", "s"),
    ("http.requests", "count"), ("http.errors", "count"),
    ("http.submit.s_p50", "s"), ("http.get.s_p50", "s"),
    ("trace.base_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
    ("trace.self_time_error", "ratio"),
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_program():
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def stamp(workload: str, seed: int, seconds: float, trace: bool, effective: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "cpu_count": os.cpu_count(), "effective_workers": effective,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}


# -- per-layer metrics ------------------------------------------------------------


def per_layer(tracer, requests: int, extra: dict) -> dict:
    """Per-layer metrics from a tracer's aggregates over ``requests``."""
    per = 1.0 / max(requests, 1)
    calls, total, counts, ledger = tracer.calls, tracer.total_s, tracer.counts, tracer.ledger
    out = {}
    for op in ("count_within", "dist_to_set", "pairwise"):
        name = f"metric.{op}"
        out[f"{name}.calls"] = calls.get(name, 0) * per
        out[f"{name}.evals"] = counts.get(f"{name}.evals", 0) * per
        out[f"{name}.s"] = total.get(name, 0.0) * per
        if op != "pairwise":
            seconds = total.get(name, 0.0)
            evals = counts.get(f"{name}.evals", 0)
            out[f"{name}.evals_per_s"] = evals / seconds if seconds else 0.0
    out["metric.other.evals"] = counts.get("metric.other.evals", 0) * per
    for name in ("machine.require_known", "machine.learn", "cluster.send", "cluster.step",
                 "executor.map_machines", "runner.execute_job"):
        out[f"{name}.calls"] = calls.get(name, 0) * per
        out[f"{name}.s"] = total.get(name, 0.0) * per
    out["machine.self_s"] = ledger.get("machine", 0.0) * per
    out["cluster.messages"] = counts.get("cluster.messages", 0) * per
    out["cluster.words"] = counts.get("cluster.words", 0) * per
    out["cluster.self_s"] = ledger.get("cluster", 0.0) * per
    out["executor.task_s"] = total.get("executor.task", 0.0) * per
    out["executor.dispatch_s"] = counts.get("executor.dispatch_s", 0.0) * per
    out["executor.effective_workers"] = counts.get("executor.effective_workers", 0)
    out["executor.fallbacks"] = counts.get("executor.fallbacks", 0)
    out["core.coreset.s"] = total.get("core.coreset", 0.0) * per
    out["core.coreset.evals"] = counts.get("core.coreset.evals", 0) * per
    out["core.degree_estimate.calls"] = calls.get("core.degree_estimate", 0) * per
    out["core.degree_estimate.s"] = total.get("core.degree_estimate", 0.0) * per
    out["core.degree_estimate.evals"] = counts.get("core.degree_estimate.evals", 0) * per
    out["core.probe.calls"] = calls.get("core.probe", 0) * per
    out["core.mis_round.calls"] = calls.get("core.mis_round", 0) * per
    for phase in ("mis_prune", "mis_luby", "radius"):
        out[f"core.{phase}.s"] = total.get(f"core.{phase}", 0.0) * per
    out["core.driver_self_s"] = ledger.get("core", 0.0) * per
    builds = calls.get("api.build_cluster", 0)
    out["api.build_cluster.s"] = total.get("api.build_cluster", 0.0) / builds if builds else 0.0
    store = [n for n in calls if n.startswith("store.")]
    out["store.calls"] = sum(calls[n] for n in store) * per
    out["store.s"] = sum(tracer.self_s[n] for n in store) * per
    registers = calls.get("datasets.register", 0)
    out["datasets.register.s"] = (total.get("datasets.register", 0.0) / registers
                                  if registers else 0.0)
    http = [n for n in calls if n.startswith("http.")]
    out["http.requests"] = sum(calls[n] for n in http)
    out["http.errors"] = counts.get("http.errors", 0)
    for name in ("http.submit", "http.get"):
        samples = tracer.samples.get(name)
        out[f"{name}.s_p50"] = statistics.median(samples) if samples else 0.0
    out.update(extra)
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER}


# -- workloads ---------------------------------------------------------------------


def run_solver(workload: str, seed: int, seconds: float, trace: bool):
    import solver_runs

    summary, tracer = solver_runs.run(workload, seed, seconds, trace, log)
    effective = max((s.effective_workers for s in summary["plain"] + summary["traced"]),
                    default=1)
    if not trace:
        return summary, solver_runs.end_to_end(summary), tracer, effective
    plain = [s.wall_s for s in summary["plain"]]
    traced = [s.wall_s for s in summary["traced"]]
    base = statistics.median(plain) if plain else 0.0
    overhead = (statistics.median(traced) - base) if traced and plain else 0.0
    extra = {"trace.base_s": base, "trace.overhead_s": overhead,
             "trace.overhead_ratio": overhead / base if base else 0.0,
             "trace.self_time_error": max((s.trace_error for s in summary["traced"]),
                                          default=0.0)}
    return summary, per_layer(tracer, len(summary["traced"]), extra), tracer, effective


def run_service(seed: int, seconds: float, trace: bool):
    import service_runs

    summary, tracer = service_runs.run(seed, seconds, trace, log)
    if not trace:
        metrics = service_runs.end_to_end(summary)
        summary["samples_beyond_p95"] = metrics.pop("samples_beyond_p95")
        return summary, metrics, tracer, 1
    logs, plain_logs = summary["logs"], summary["plain_logs"]
    jobs = [x for lg in logs for x in lg.jobs]
    base_jobs = [x for lg in plain_logs for x in lg.jobs]
    base = statistics.median(base_jobs) if base_jobs else 0.0
    overhead = (statistics.median(jobs) - base) if jobs and base_jobs else 0.0
    cold = [e for lg in logs for e in lg.cold]
    hits = sum(lg.hits for lg in logs)
    extra = {
        "jobs.queue_wait_s_p50": (statistics.median(e["queue_wait_s"] for e in cold)
                                  if cold else 0.0),
        "jobs.run_s_p50": statistics.median(e["run_s"] for e in cold) if cold else 0.0,
        "jobs.retries": summary["retries"],
        "jobs.cache_hit_ratio": hits / summary["submitted"] if summary["submitted"] else 0.0,
        "jobs.submitted": summary["submitted"],
        "trace.base_s": base, "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / base if base else 0.0,
    }
    return summary, per_layer(tracer, len(jobs), extra), tracer, 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    trace = bool(args.trace)

    started = time.perf_counter()
    if args.workload == "service-mixed":
        summary, metrics, tracer, effective = run_service(args.seed, args.seconds, trace)
    else:
        summary, metrics, tracer, effective = run_solver(args.workload, args.seed,
                                                         args.seconds, trace)
    attempted, failed = summary["attempted"], summary["failed"]
    if summary.get("ratio_above_factor"):
        log(f"note: {summary['ratio_above_factor']} solve(s) above the approximation factor "
            "against the certified bound (not a proven violation; see README)")
    if not trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_ratio"] = (attempted - failed) / attempted if attempted else 0.0
        metrics = {name: float(metrics[name]) for name, _ in END_TO_END}
    units = dict(END_TO_END + PER_LAYER)

    info = stamp(args.workload, args.seed, args.seconds, trace, effective)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    base = out_dir / f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    artifact = {"stamp": info, "attempted": attempted, "failed": failed,
                "errors": summary["errors"], "setup_samples": summary["setup_samples"],
                "window_s": summary.get("window_s"), "run_s": time.perf_counter() - started,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    for key in ("specs", "samples_beyond_p95", "ratio_above_factor"):
        if key in summary:
            artifact[key] = summary[key]
    if "plain" in summary:
        artifact["solves"] = [vars(s) for s in summary["plain"] + summary["traced"]]
    if tracer is not None:
        tracer.write_chrome_trace(str(base) + ".trace.json", info)
        artifact["chrome_trace"] = base.name + ".trace.json"
    with open(str(base) + ".json", "w") as fh:
        json.dump(artifact, fh, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} trace={int(trace)} "
          f"cpu_count={info['cpu_count']} effective_workers={effective} "
          f"python={info['python']} numpy={info['numpy']} git={info['git_sha'][:12]}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>18.6g} {units[name]}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
