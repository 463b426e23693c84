"""The ``service-mixed`` workload: a closed loop against an in-process server.

Set-up starts a server with default :func:`repro.service.serve` settings
and registers the datasets the cold jobs use (set-up is repeated and
its median reported).  Two client threads then run a fixed cycle of
operations until the run's seconds are spent, each waiting for every
reply before the next request (a closed loop):

* writes — a dataset registration (fresh points) and cold jobs across
  ``kcenter``/``diversity``/``ksupplier`` (distinct seeds, so never
  cached);
* reads — a cache-hit resubmission of the client's last cold spec and a
  job-record read of its last cold job.

Every cold result is then re-computed through the facade (after the
server has stopped, on the program's fork executor, which reaps every
worker it forks) and must match the service's record, MPC accounting
and oracle ledger byte for byte.
The guarantee is checked as in :mod:`solver_runs`.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.service.jobs as service_jobs
import repro.service.runner as service_runner
from repro.analysis.lower_bounds import (
    diversity_upper_bound,
    kcenter_lower_bound,
    ksupplier_lower_bound,
)
from repro.analysis.validation import (
    verify_diversity_solution,
    verify_kcenter_solution,
    verify_ksupplier_solution,
)
from repro.api import SOLVERS, build_cluster, make_executor
from repro.constants import TheoryConstants
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.executor import ProcessExecutor
from repro.obs.tracing import TraceContext, use_trace
from repro.service import ServiceClient, ServiceError, serve
from repro.service.http import run_in_thread
from repro.workloads.registry import fingerprint_metric
from repro.workloads.suppliers import supplier_instance
from repro.workloads.synthetic import gaussian_mixture

from layer_trace import Tracer, instrument, percentile, stopwatch, traced_build_args
from solver_runs import DATA_SEED, feasible_value, guarantee_violated

CLIENTS = 2
K = 6
EPS = 0.2
#: one client's repeating operation cycle.  Cache hits are two orders of
#: magnitude faster than cold jobs; 6 cold jobs to 4 hits keeps the
#: job-latency median (and p95) inside the cold mode.
CYCLE = ("register", "cold", "hit", "cold", "read", "cold", "hit",
         "cold", "cold", "hit", "cold", "read", "hit")
ALGORITHMS = ("kcenter", "diversity", "ksupplier")
#: cold jobs per client whose MPC counts form the exact metrics (a
#: multiple of 3, so every algorithm weighs the same in the means)
EXACT_PREFIX = 21
#: the loop runs past its seconds until this many jobs completed, so
#: that at least ten latency samples lie beyond the p95
MIN_JOBS = 240
SETUP_REPEATS = 3
#: datasets per kind; cold jobs cycle through them
DATASETS = 6
#: forked workers that re-compute the cold jobs
VERIFY_WORKERS = 2
FACTOR = {"kcenter": 2.0 * (1 + EPS), "diversity": 2.0 * (1 + EPS),
          "ksupplier": 3.0 * (1 + EPS)}


@dataclass
class Dataset:
    id: str
    algorithm: str        # "plain" (k-center and diversity) or "ksupplier"
    points: np.ndarray
    customers: Optional[List[int]] = None
    suppliers: Optional[List[int]] = None
    #: certified bound and feasible GMM objective per algorithm (set-up)
    bounds: Dict[str, float] = field(default_factory=dict)
    feasible: Dict[str, float] = field(default_factory=dict)


@dataclass
class ClientLog:
    ops: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    jobs: List[float] = field(default_factory=list)       # client-observed job latency
    cold: List[dict] = field(default_factory=list)        # spec + result + record times
    hits: int = 0


def make_datasets(rng: np.random.Generator) -> List[Dataset]:
    """Six plain mixtures (k-center, diversity) and six k-supplier
    instances, 1100 points each."""
    out = []
    for _ in range(DATASETS):
        pts, _ = gaussian_mixture(1100, dim=2, components=8, rng=rng)
        out.append(Dataset("", "plain", pts))
    for _ in range(DATASETS):
        inst = supplier_instance(900, 200, rng=rng)
        out.append(Dataset("", "ksupplier", inst.points,
                           inst.customers.tolist(), inst.suppliers.tolist()))
    return out


def certify(ds: Dataset) -> None:
    """Fill in the dataset's certified bounds and feasible objectives."""
    metric = EuclideanMetric(ds.points)
    if ds.algorithm == "ksupplier":
        ds.bounds = {"ksupplier": ksupplier_lower_bound(metric, ds.customers,
                                                        ds.suppliers, K)}
        ds.feasible = {"ksupplier": feasible_value("ksupplier", metric, K,
                                                   ds.customers, ds.suppliers)}
        return
    ds.bounds = {"kcenter": kcenter_lower_bound(metric, K),
                 "diversity": diversity_upper_bound(metric, K)}
    ds.feasible = {alg: feasible_value(alg, metric, K) for alg in ("kcenter", "diversity")}


class ServiceRun:
    """One server plus its datasets; :meth:`drive` runs the client loop."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # fixed reference datasets; the seed picks the job seeds and the
        # registered points (see solver_runs.DATA_SEED)
        self.datasets = make_datasets(np.random.default_rng([DATA_SEED, 0x5E7]))
        for ds in self.datasets:
            certify(ds)
        self.server = serve(port=0)
        self.thread = run_in_thread(self.server)
        client = ServiceClient(self.server.url, retries=0)
        for ds in self.datasets:
            ds.id = client.register_points(ds.points)["id"]

    def close(self) -> None:
        self.server.shutdown_service()
        self.thread.join(timeout=30)

    # -- the closed loop ----------------------------------------------------

    def cold_spec(self, client: int, j: int) -> tuple:
        alg = ALGORITHMS[j % 3]
        pool = [d for d in self.datasets
                if (d.algorithm == "ksupplier") == (alg == "ksupplier")]
        ds = pool[(j // 3) % len(pool)]
        spec = {"algorithm": alg, "dataset": ds.id, "k": K, "eps": EPS,
                "seed": self.seed % 100_000 * 1000 + client * 100_000_000 + j}
        if alg == "ksupplier":
            spec["customers"] = ds.customers
            spec["suppliers"] = ds.suppliers
        return spec, ds

    def drive(self, seconds: float, tracer: Optional[Tracer] = None,
              min_jobs: int = 0) -> List[ClientLog]:
        deadline = time.perf_counter() + seconds
        logs = [ClientLog() for _ in range(CLIENTS)]

        def running() -> bool:
            # list lengths are read without a lock: a stale count only
            # delays the stop by one operation
            return (time.perf_counter() < deadline
                    or sum(len(lg.jobs) for lg in logs) < min_jobs)

        threads = [threading.Thread(target=self._client, args=(c, running, logs[c], tracer),
                                    name=f"bench-client-{c}")
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 120)
        for c, t in enumerate(threads):
            if t.is_alive():
                logs[c].failed += 1
                logs[c].errors.append("client thread did not finish")
        return logs

    def _client(self, c: int, running: Callable[[], bool], log: ClientLog,
                tracer: Optional[Tracer]) -> None:
        client = ServiceClient(self.server.url, retries=0)
        if tracer is not None:
            trace_client(client, tracer)
        rng = np.random.default_rng([self.seed, c, 0xC11E])
        last: Optional[dict] = None
        j = step = 0
        while running():
            op = CYCLE[step % len(CYCLE)]
            step += 1
            if op in ("hit", "read") and last is None:
                continue
            log.ops += 1
            try:
                with use_trace(TraceContext.from_seed([self.seed, c, step], name=op)):
                    if op == "register":
                        self._register(client, rng)
                    elif op == "cold":
                        j += 1   # a failed cold job still uses up its seed
                        last = self._cold(client, c, j - 1, log)
                    elif op == "hit":
                        self._hit(client, last, log)
                    else:
                        self._read(client, last)
            except Exception as exc:  # every failure is counted and reported
                log.failed += 1
                log.errors.append(f"client {c} {op}: {type(exc).__name__}: {exc}")

    def _register(self, client: ServiceClient, rng) -> None:
        pts, _ = gaussian_mixture(1000, dim=2, components=8, rng=rng)
        got = client.register_points(pts)
        want = fingerprint_metric(EuclideanMetric(pts))
        if got["fingerprint"] != want or got["n"] != len(pts):
            raise AssertionError(f"registration fingerprint {got['fingerprint']} != {want}")

    def _cold(self, client: ServiceClient, c: int, j: int, log: ClientLog) -> dict:
        spec, ds = self.cold_spec(c, j)
        watch = stopwatch()
        job = client.submit(**spec)
        if job.get("cached"):
            raise AssertionError(f"cold job {spec['seed']} was served from cache")
        done = client.wait(job["id"], timeout=120, poll_s=0.01, max_poll_s=0.02)
        latency = watch()
        if done["state"] != "done":
            raise AssertionError(f"job {job['id']} ended {done['state']}: {done.get('error')}")
        log.jobs.append(latency)
        entry = {"spec": spec, "dataset": ds, "job": job["id"], "client": c, "index": j,
                 "result": done["result"],
                 "queue_wait_s": done["started_at"] - done["created_at"],
                 "run_s": done["finished_at"] - done["started_at"]}
        log.cold.append(entry)
        return entry

    def _hit(self, client: ServiceClient, last: dict, log: ClientLog) -> None:
        watch = stopwatch()
        job = client.submit(**last["spec"])
        latency = watch()
        if not (job.get("cached") and job["state"] == "done"):
            raise AssertionError(f"resubmission of {last['job']} was not a cache hit")
        if canonical(job["result"]) != canonical(last["result"]):
            raise AssertionError(f"cache hit for {last['job']} returned a different result")
        log.jobs.append(latency)
        log.hits += 1

    def _read(self, client: ServiceClient, last: dict) -> None:
        rec = client.job(last["job"])
        if rec["state"] != "done" or canonical(rec["result"]) != canonical(last["result"]):
            raise AssertionError(f"job record {last['job']} does not match its result")


def canonical(result: dict) -> str:
    """The byte-compared part of a job result: record, MPC accounting, oracle."""
    return json.dumps({key: result[key] for key in ("record", "mpc_stats", "oracle")},
                      sort_keys=True)


def facade_result(spec: dict, points: np.ndarray) -> str:
    """The canonical result of the direct facade call a cold job must reproduce."""
    counting = CountingOracle(EuclideanMetric(points))
    cluster = build_cluster(metric=counting, seed=spec["seed"])
    kwargs = dict(k=spec["k"], eps=spec["eps"], constants=TheoryConstants.practical(),
                  trim_mode="random", cluster=cluster)
    if spec["algorithm"] == "ksupplier":
        kwargs.update(customers=spec["customers"], suppliers=spec["suppliers"])
    try:
        result = SOLVERS[spec["algorithm"]](**kwargs)
    finally:
        cluster.executor.shutdown()
    payload = {"record": result.to_dict(), "mpc_stats": cluster.stats.summary(),
               "oracle": {"calls": int(counting.calls),
                          "evaluations": int(counting.evaluations)}}
    return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)


def facade_results(entries: List[dict]) -> Dict[str, str]:
    """:func:`facade_result` of every distinct cold spec, keyed by its JSON,
    computed by :data:`VERIFY_WORKERS` forked workers."""
    todo = {}
    for entry in entries:
        todo.setdefault(json.dumps(entry["spec"], sort_keys=True),
                        (entry["spec"], entry["dataset"].points))
    keys = list(todo)
    results = ProcessExecutor(VERIFY_WORKERS).map_indexed(
        lambda i: facade_result(*todo[keys[i]]), len(keys))
    return dict(zip(keys, results))


def verify_cold(entry: dict, direct: str) -> float:
    """Check one cold job against its direct facade result ``direct``;
    returns its approximation ratio against the certified bound."""
    spec, ds, result = entry["spec"], entry["dataset"], entry["result"]
    if canonical(result) != direct:
        raise AssertionError(f"job {entry['job']} differs from the direct facade call")
    record = result["record"]
    metric = EuclideanMetric(ds.points)
    alg = spec["algorithm"]
    if alg == "kcenter":
        verify_kcenter_solution(metric, record["centers"], K, record["radius"])
        objective = record["radius"]
    elif alg == "diversity":
        verify_diversity_solution(metric, record["ids"], K, record["diversity"])
        objective = record["diversity"]
    else:
        verify_ksupplier_solution(metric, spec["customers"], spec["suppliers"],
                                  record["suppliers"], K, record["radius"])
        objective = record["radius"]
    if guarantee_violated(alg, objective, ds.feasible[alg], FACTOR[alg]):
        raise AssertionError(f"job {entry['job']} ({alg}, seed {spec['seed']}): objective "
                             f"{objective!r} breaks the {FACTOR[alg]:g} guarantee against "
                             f"a feasible {ds.feasible[alg]!r}")
    bound = ds.bounds[alg]
    return bound / objective if alg == "diversity" else objective / bound


# -- tracing the service layers from outside ----------------------------------------


def trace_client(client: ServiceClient, tracer: Tracer) -> None:
    """Client-side ``http.*`` spans; errors counted in ``http.errors``."""
    for method, name in (("submit", "http.submit"), ("job", "http.get"),
                         ("register_points", "http.register")):
        fn = tracer.wrap(name, getattr(client, method))

        def counted(*args, _fn=fn, **kwargs):
            try:
                return _fn(*args, **kwargs)
            except ServiceError:
                tracer.count("http.errors")
                raise

        setattr(client, method, counted)


STORE_METHODS = {
    "jobs": ("next_job_id", "create", "get", "save", "list", "count_by_state", "claim",
             "heartbeat", "finish", "prune_terminal"),
    "queue": ("push", "depth"),
    "datasets": ("put", "get", "load_points", "find_fingerprint"),
    "results": ("get", "put", "stats"),
}


class ServiceTracing:
    """Install server-side wrappers for one traced phase; :meth:`remove`
    restores the two module attributes it replaces."""

    def __init__(self, run: ServiceRun, tracer: Tracer) -> None:
        manager = run.server.manager
        stores = {"jobs": manager.stores.jobs, "queue": manager.stores.work_queue,
                  "datasets": manager.datasets.store, "results": manager.cache}
        for kind, methods in STORE_METHODS.items():
            for method in methods:
                setattr(stores[kind], method,
                        tracer.wrap(f"store.{kind}.{method}", getattr(stores[kind], method)))
        manager.datasets.register_points = tracer.wrap(
            "datasets.register", manager.datasets.register_points)
        self._saved = (service_jobs.execute_job, service_runner.build_cluster)
        service_jobs.execute_job = tracer.wrap("runner.execute_job", service_jobs.execute_job)
        service_runner.build_cluster = _traced_build(tracer)

    def remove(self) -> None:
        service_jobs.execute_job, service_runner.build_cluster = self._saved


def _traced_build(tracer: Tracer):
    def build(*, metric, backend="serial", workers=None, **kwargs):
        frame = tracer.enter("api.build_cluster")
        try:
            executor = make_executor(backend, workers=workers)
            cluster = build_cluster(**kwargs, **traced_build_args(metric, executor, tracer))
            instrument(cluster, metric, tracer)
        finally:
            tracer.exit(frame)
        return cluster

    return build


# -- one run ------------------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, log: Callable[[str], None]):
    """Run ``service-mixed``; returns ``(summary, tracer)``."""
    summary = {"attempted": 0, "failed": 0, "errors": [], "setup_samples": []}
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        watch = stopwatch()
        service = ServiceRun(seed)
        summary["setup_samples"].append(watch())
    tracer = None
    try:
        if trace:
            # first half untraced (the overhead base), second half traced,
            # each on a fresh server over the same operation sequence
            summary["plain_logs"] = service.drive(seconds / 2)
            service.close()
            service = ServiceRun(seed)
            tracer = Tracer()
            tracing = ServiceTracing(service, tracer)
            try:
                window = stopwatch()
                logs = service.drive(seconds / 2, tracer)
                summary["window_s"] = window()
            finally:
                tracing.remove()
            stats = service.server.manager.stats()
            summary["retries"] = stats["retry"]["retries_total"]
            summary["submitted"] = stats["jobs_submitted_total"]
        else:
            window = stopwatch()
            logs = service.drive(seconds, min_jobs=MIN_JOBS)
            summary["window_s"] = window()
    finally:
        service.close()
    summary["logs"] = logs
    for lg in logs + summary.get("plain_logs", []):
        summary["attempted"] += lg.ops
        summary["failed"] += lg.failed
        summary["errors"] += lg.errors
    ratios = {}
    cold = [entry for lg in logs + summary.get("plain_logs", []) for entry in lg.cold]
    try:
        direct = facade_results(cold)
    except Exception as exc:  # every cold job below then fails its check
        direct = {}
        summary["errors"].append(f"facade calls: {type(exc).__name__}: {exc}")
    for entry in cold:
        summary["attempted"] += 1
        try:
            key = json.dumps(entry["spec"], sort_keys=True)
            if key not in direct:
                raise AssertionError(f"no facade result for job {entry['job']}")
            ratios[(entry["client"], entry["index"])] = verify_cold(entry, direct[key])
        except Exception as exc:  # every failed check is counted and reported
            summary["failed"] += 1
            summary["errors"].append(f"verify {entry['job']}: {type(exc).__name__}: {exc}")
    summary["ratios"] = ratios
    summary["ratio_above_factor"] = sum(
        1 for (c, j), r in ratios.items() if not r <= FACTOR[ALGORITHMS[j % 3]])
    for err in summary["errors"][:10]:
        log(f"FAILED {err}")
    return summary, tracer


def end_to_end(summary: dict) -> dict:
    logs: List[ClientLog] = summary["logs"]
    jobs = [x for lg in logs for x in lg.jobs]
    prefix = [e for lg in logs for e in lg.cold if e["index"] < EXACT_PREFIX]
    if len(prefix) < CLIENTS * EXACT_PREFIX:
        raise AssertionError(f"only {len(prefix)} cold jobs in the exact-count prefix")
    stats = [e["result"]["mpc_stats"] for e in prefix]
    ratios = [summary["ratios"][(e["client"], e["index"])] for e in prefix
              if (e["client"], e["index"]) in summary["ratios"]]
    mean = statistics.fmean
    return {
        "setup_s": statistics.median(summary["setup_samples"]),
        "solve_s": statistics.median(e["run_s"] for lg in logs for e in lg.cold),
        "oracle_evals": mean(e["result"]["oracle"]["evaluations"] for e in prefix),
        "rounds": mean(s["rounds"] for s in stats),
        "max_machine_words": mean(s["max_machine_words_per_round"] for s in stats),
        "peak_known_points": mean(s["peak_known_points"] for s in stats),
        "approx_ratio": mean(ratios) if ratios else float("nan"),
        "jobs_per_s": len(jobs) / summary["window_s"],
        "job_p50_s": percentile(jobs, 50),
        "job_p95_s": percentile(jobs, 95),
        "samples_beyond_p95": sum(1 for x in jobs if x > percentile(jobs, 95)),
    }
