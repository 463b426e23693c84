"""The two solver workloads: repeated facade solves over seeded inputs.

Each workload solves one fixed reference instance (a Gaussian mixture
drawn with :data:`DATA_SEED`); each run derives its list of solve seeds
from the workload seed.  A fixed instance keeps the work comparable
from seed to seed: with a fresh mixture per spec, the cost of a run
moved with the data as much as with the solve seeds.  Set-up builds
every spec's input, metric, certified bound and a first cluster.  The timed loop then cycles through the list until the
run's seconds are spent, every spec has run once and at least one spec
has run twice (its digest must repeat).  Exact counts are means over
the specs' first solves; wall times are medians over all solves.

The guarantee check.  ``approx_ratio`` compares the objective with the
certified bound of :mod:`repro.analysis.lower_bounds`, which may be up
to 2× looser than the optimum, so a correct solve can exceed 2(1+ε)
against it.  A run therefore fails only on a *proven* violation: the
objective is worse than the factor times the value of a feasible GMM
solution, which is itself no better than the optimum.  Ratios above the
factor against the certified bound are counted and reported.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from repro.analysis.lower_bounds import diversity_upper_bound, kcenter_lower_bound
from repro.core.gmm import gmm
from repro.analysis.validation import verify_diversity_solution, verify_kcenter_solution
from repro.api import build_cluster, make_executor, solve_diversity, solve_kcenter
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.workloads.synthetic import gaussian_mixture

from layer_trace import Tracer, instrument, percentile, stopwatch, traced_build_args


@dataclass(frozen=True)
class SolverWorkload:
    problem: str          # "kcenter" or "diversity"
    n: int
    dim: int
    k: int
    machines: int
    eps: float
    backend: str
    workers: int
    specs: int            # solve specs per run
    trace_specs: int      # specs solved untraced + traced in a traced run

    @property
    def factor(self) -> float:
        """The paper's guarantee: 2(1+ε) for k-center and diversity."""
        return 2.0 * (1.0 + self.eps)


WORKLOADS = {
    "kcenter-d2-20k": SolverWorkload("kcenter", 20_000, 2, 8, 16, 0.2, "serial", 1,
                                     specs=14, trace_specs=6),
    "diversity-m32-d16": SolverWorkload("diversity", 4_000, 16, 8, 32, 0.2, "process", 2,
                                        specs=24, trace_specs=10),
}

#: the diversity shape at m=64: too few of its ~4 s solves fit a run for
#: steady medians, so only the parity test uses it
DIVERSITY_M64 = replace(WORKLOADS["diversity-m32-d16"], machines=64)


@dataclass
class Spec:
    index: int
    data_seed: int
    solve_seed: int
    metric: EuclideanMetric
    bound: float          # certified: k-center lower bound / diversity upper bound
    feasible: float       # a feasible GMM solution's objective


class CheckFailed(Exception):
    """An output check failed."""


#: seed of every reference instance
DATA_SEED = 0


def solve_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` distinct solve seeds derived from the run seed."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    rng = np.random.default_rng([seed, tag])
    return [int(x) for x in rng.choice(2**31 - 1, size=count, replace=False)]


def feasible_value(problem: str, metric, k: int, customers=None, suppliers=None) -> float:
    """Objective of a feasible GMM solution: no better than the optimum, so
    an upper bound on the optimal radius (k-center, k-supplier) and a
    lower bound on the optimal diversity."""
    ids = np.arange(metric.n, dtype=np.int64)
    if problem == "kcenter":
        return float(metric.dist_to_set(ids, gmm(metric, ids, k)).max())
    if problem == "diversity":
        return float(metric.diversity(gmm(metric, ids, k)))
    customers = np.asarray(customers, dtype=np.int64)
    suppliers = np.asarray(suppliers, dtype=np.int64)
    pivots = gmm(metric, customers, k)
    opened = suppliers[np.argmin(metric.pairwise(pivots, suppliers), axis=1)]
    return float(metric.dist_to_set(customers, opened).max())


def guarantee_violated(problem: str, objective: float, feasible: float, factor: float) -> bool:
    """True only when the objective proves the approximation guarantee broken."""
    if problem == "diversity":
        return objective * factor < feasible
    return objective > factor * feasible


def make_spec(w: SolverWorkload, index: int, data_seed: int, solve_seed: int) -> Spec:
    points, _ = gaussian_mixture(w.n, dim=w.dim, components=8,
                                 rng=np.random.default_rng(data_seed))
    metric = EuclideanMetric(points)
    if w.problem == "kcenter":
        bound = kcenter_lower_bound(metric, w.k)
    else:
        bound = diversity_upper_bound(metric, w.k)
    return Spec(index, data_seed, solve_seed, metric, bound,
                feasible_value(w.problem, metric, w.k))


@dataclass
class Solve:
    spec: int
    wall_s: float
    build_s: float
    digest: str
    evals: int
    oracle_calls: int
    rounds: int
    total_words: int
    max_machine_words: int
    peak_known_points: int
    ratio: float
    effective_workers: int
    #: approx_ratio above the factor (not a violation, see module doc)
    above_factor: bool = False
    #: |summed layer self times - wall| / wall, for traced solves
    trace_error: float = 0.0


def digest_of(ids, objective: float, rounds: int, words: int, evals: int) -> str:
    blob = json.dumps({"ids": [int(i) for i in ids], "objective": float(objective).hex(),
                       "rounds": rounds, "words": words, "evals": evals})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def solve_once(w: SolverWorkload, spec: Spec, tracer: Optional[Tracer] = None,
               backend: Optional[str] = None) -> Solve:
    """One facade solve of ``spec``, checked; traced when ``tracer`` is given.

    ``backend`` overrides the workload's backend (the parity test).
    """
    counting = CountingOracle(spec.metric)
    executor = make_executor(backend or w.backend, max_workers=w.workers)
    if tracer is None:
        assembly = {"metric": counting, "backend": executor}
    else:
        assembly = traced_build_args(counting, executor, tracer)
        tracer.request_id = f"spec{spec.index}"
    build = stopwatch()
    frame = tracer.enter("api.build_cluster") if tracer else None
    cluster = build_cluster(machines=w.machines, seed=spec.solve_seed, **assembly)
    if tracer:
        tracer.exit(frame)
        instrument(cluster, counting, tracer)
    build_s = build()
    solver = solve_kcenter if w.problem == "kcenter" else solve_diversity
    try:
        mark = tracer.mark() if tracer else None
        wall = stopwatch()
        frame = tracer.enter("api.solve") if tracer else None
        try:
            result = solver(k=w.k, eps=w.eps, cluster=cluster)
        finally:
            if tracer:
                tracer.exit(frame)
            wall_s = wall()
        effective = executor.effective_workers(w.machines)
    finally:
        cluster.executor.shutdown()
    stats = cluster.stats
    if w.problem == "kcenter":
        ids, objective = result.centers, result.radius
        verify_kcenter_solution(spec.metric, ids, w.k, objective)
        ratio = objective / spec.bound
    else:
        ids, objective = result.ids, result.diversity
        verify_diversity_solution(spec.metric, ids, w.k, objective)
        ratio = spec.bound / objective
    if guarantee_violated(w.problem, objective, spec.feasible, w.factor):
        raise CheckFailed(f"spec {spec.index}: objective {objective!r} breaks the "
                          f"{w.factor:g} guarantee against a feasible {spec.feasible!r}")
    solve = Solve(spec.index, wall_s, build_s,
                  digest_of(ids, objective, stats.rounds, stats.total_words,
                            counting.evaluations),
                  counting.evaluations, counting.calls, stats.rounds, stats.total_words,
                  stats.max_machine_words, stats.peak_known_points, ratio, effective,
                  above_factor=not ratio <= w.factor)
    if tracer:
        solve.trace_error = reconcile(tracer.delta_since(mark, spans=False), solve)
    return solve


#: largest allowed gap between the summed layer self times and the
#: externally measured solve wall time, as a share of the wall time
SELF_TIME_TOLERANCE = 0.02


def reconcile(delta: dict, solve: Solve) -> float:
    """The traced view of one solve must agree with the program's counters;
    returns the relative self-time error."""
    counts = delta["counts"]
    evals = sum(v for k, v in counts.items()
                if k.startswith("metric.") and k.endswith(".evals"))
    problems = []
    if evals != solve.evals:
        problems.append(f"metric evals {evals} != oracle evaluations {solve.evals}")
    steps = delta["calls"].get("cluster.step", 0)
    if steps != solve.rounds:
        problems.append(f"cluster.step calls {steps} != rounds {solve.rounds}")
    words = counts.get("cluster.words", 0)
    if words != solve.total_words:
        problems.append(f"cluster.words {words} != total_words {solve.total_words}")
    error = abs(sum(delta["ledger"].values()) - solve.wall_s) / solve.wall_s
    if error > SELF_TIME_TOLERANCE:
        problems.append(f"layer self times off the wall time by {error:.2%}")
    if problems:
        raise CheckFailed(f"spec {solve.spec} trace reconciliation: " + "; ".join(problems))
    return error


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def run(name: str, seed: int, seconds: float, trace: bool, log: Callable[[str], None]):
    """Run one solver workload; returns ``(summary, tracer)``."""
    w = WORKLOADS[name]
    summary = {"attempted": 0, "failed": 0, "errors": [], "setup_samples": []}
    specs: List[Spec] = []
    for index, solve_seed in enumerate(solve_seeds(name, seed, w.specs)):
        setup = stopwatch()
        spec = make_spec(w, index, DATA_SEED, solve_seed)
        cluster = build_cluster(metric=CountingOracle(spec.metric), machines=w.machines,
                                seed=solve_seed, backend=w.backend, max_workers=w.workers)
        cluster.executor.shutdown()
        summary["setup_samples"].append(setup())
        specs.append(spec)
    summary["specs"] = [{"index": s.index, "data_seed": s.data_seed,
                         "solve_seed": s.solve_seed} for s in specs]

    tracer = Tracer() if trace else None
    plain: List[Solve] = []
    traced: List[Solve] = []
    first_digest = {}
    window = stopwatch()
    i = 0
    while True:
        spec = specs[i % len(specs)]
        for tr in ([None, tracer] if trace else [None]):
            summary["attempted"] += 1
            try:
                solve = solve_once(w, spec, tr)
                expected = first_digest.setdefault(spec.index, solve.digest)
                if solve.digest != expected:
                    raise CheckFailed(f"spec {spec.index}: digest {solve.digest} != "
                                      f"first digest {expected}")
            except Exception as exc:  # every failure is counted and reported
                summary["failed"] += 1
                summary["errors"].append(f"{type(exc).__name__}: {exc}")
                log(f"FAILED spec {spec.index}: {type(exc).__name__}: {exc}")
                continue
            (traced if tr else plain).append(solve)
        i += 1
        elapsed = window()
        done = (i >= w.trace_specs) if trace else (i > len(specs))
        if done and elapsed >= seconds:
            break
        if elapsed > 150.0:  # hard stop well inside the 180 s budget
            summary["failed"] += 1
            summary["errors"].append(f"window overran: {i} solves in {elapsed:.1f}s")
            break
    summary["window_s"] = elapsed
    summary["plain"] = plain
    summary["traced"] = traced
    summary["ratio_above_factor"] = sum(1 for s in plain + traced if s.above_factor)
    return summary, tracer


def end_to_end(summary: dict) -> dict:
    """The end-to-end metrics of an untraced solver run."""
    plain: List[Solve] = summary["plain"]
    firsts = {}
    for s in plain:
        firsts.setdefault(s.spec, s)
    firsts = list(firsts.values())
    walls = [s.wall_s for s in plain]
    return {
        "setup_s": median(summary["setup_samples"]),
        "solve_s": median(walls),
        "oracle_evals": mean(s.evals for s in firsts),
        "rounds": mean(s.rounds for s in firsts),
        "max_machine_words": mean(s.max_machine_words for s in firsts),
        "peak_known_points": mean(s.peak_known_points for s in firsts),
        "approx_ratio": mean(s.ratio for s in firsts),
        # solves per second of build + solve time: the benchmark's own
        # checks between solves are not the program's work
        "jobs_per_s": len(plain) / sum(s.build_s + s.wall_s for s in plain),
        "job_p50_s": median(walls),
        "job_p95_s": percentile(walls, 95),
    }
