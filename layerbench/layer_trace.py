"""In-memory span tracer and the wrappers that time each layer from outside.

Nothing here edits the program under test.  The benchmark hands the
solver stack wrapper objects and instance-level method wrappers:

* :class:`TracedMetric` — a :class:`~repro.metric.base.Metric` around the
  run's :class:`~repro.metric.oracle.CountingOracle`; every public
  oracle helper becomes a ``metric.<op>`` span whose evaluations are the
  oracle counter's delta across the call;
* :func:`trace_cluster` — instance attributes
  that shadow ``Machine`` and ``MPCCluster`` methods (``machine.*``,
  ``cluster.send``, ``cluster.step``);
* :class:`TracedExecutor` — an execution backend around the real one
  (``executor.map_machines``); it ships the spans recorded inside forked
  workers back to the driver;
* :class:`PhaseObserver` — turns the solver's own ``cluster.obs`` phase
  spans into ``core.<phase>`` spans.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of one request add up to its root span.  Work
done in forked workers overlaps; only the busiest worker of each
``map_machines`` call enters the self-time ledger (the other workers'
calls, evaluations and busy seconds are still counted).
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

from repro.metric.base import Metric
from repro.obs import Observer
from repro.obs.tracing import current_trace

_clock = time.perf_counter


def layer_of(name: str) -> str:
    """Layer a span name belongs to (its first dotted component)."""
    return name.split(".", 1)[0]


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "start", "child")

    def __init__(self, name: str, span_id: int, parent_id: int, start: float) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.child = 0.0


class Tracer:
    """Span recorder with per-name aggregates and a self-time ledger.

    Aggregates: ``calls[name]``, ``total_s[name]`` (summed durations),
    ``self_s[name]`` and ``counts[key]`` (free-form counters such as
    ``metric.count_within.evals``).  ``ledger[layer]`` is the critical
    path self time per layer.  ``samples[name]`` keeps single durations
    of the :data:`SAMPLED` names (for percentiles).  Spans are kept as
    tuples, up to :data:`MAX_SPANS`; later ones are only aggregated and
    counted in :attr:`dropped`.
    """

    MAX_SPANS = 250_000
    SAMPLED = frozenset({"http.submit", "http.get"})
    #: per-message and per-id calls, never kept as spans: there are
    #: hundreds of thousands per solve, and shipping them back from
    #: forked workers would dominate the tracing overhead
    AGGREGATE_ONLY = frozenset({"machine.require_known", "machine.learn", "cluster.send"})

    def __init__(self) -> None:
        self.request_id = "-"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.ledger: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: (name, start, end, span_id, parent_id, request_id, pid, tid)
        self.spans: List[tuple] = []
        self.dropped = 0

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request(self) -> str:
        ctx = current_trace()
        return ctx.trace_id if ctx is not None else self.request_id

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, span_id, stack[-1].span_id if stack else 0, _clock())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (and any child left open); returns its duration."""
        end = _clock()
        stack = self._stack()
        while stack and stack[-1] is not frame:
            self.exit(stack[-1])
        if stack:
            stack.pop()
        dur = end - frame.start
        own = dur - frame.child
        if stack:
            stack[-1].child += dur
        name = frame.name
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += own
            self.ledger[layer_of(name)] += own
            if name in self.SAMPLED:
                self.samples[name].append(dur)
            if name in self.AGGREGATE_ONLY:
                pass
            elif len(self.spans) < self.MAX_SPANS:
                self.spans.append((name, frame.start, end, frame.span_id,
                                   frame.parent_id, self._request(),
                                   os.getpid(), threading.get_ident()))
            else:
                self.dropped += 1
        return dur

    def add_child_time(self, seconds: float) -> None:
        """Charge ``seconds`` of child time to the innermost open span."""
        stack = self._stack()
        if stack:
            stack[-1].child += seconds

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name``."""
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return traced

    # -- fork support --------------------------------------------------------

    def mark(self) -> tuple:
        """Snapshot of the aggregates, for :meth:`delta_since` in a worker."""
        with self._lock:
            return (dict(self.calls), dict(self.total_s), dict(self.self_s),
                    dict(self.ledger), dict(self.counts), len(self.spans))

    def delta_since(self, mark: tuple, spans: bool = True) -> dict:
        calls, total_s, self_s, ledger, counts, n_spans = mark

        def diff(now, before):
            return {k: v - before.get(k, 0) for k, v in now.items()
                    if v != before.get(k, 0)}

        with self._lock:
            return {
                "calls": diff(self.calls, calls),
                "total_s": diff(self.total_s, total_s),
                "self_s": diff(self.self_s, self_s),
                "ledger": diff(self.ledger, ledger),
                "counts": diff(self.counts, counts),
                "spans": self.spans[n_spans:] if spans else [],
            }

    def merge(self, delta: dict, ledger: bool) -> None:
        """Fold a worker's delta in; its ledger only when ``ledger``."""
        with self._lock:
            for key, value in delta["calls"].items():
                self.calls[key] += value
            for key, value in delta["total_s"].items():
                self.total_s[key] += value
            for key, value in delta["self_s"].items():
                self.self_s[key] += value
            for key, value in delta["counts"].items():
                self.counts[key] += value
            if ledger:
                for key, value in delta["ledger"].items():
                    self.ledger[key] += value
            room = self.MAX_SPANS - len(self.spans)
            self.spans.extend(delta["spans"][:max(0, room)])
            self.dropped += max(0, len(delta["spans"]) - max(0, room))

    # -- export --------------------------------------------------------------

    def write_chrome_trace(self, path: str, meta: dict) -> None:
        """Write the kept spans as a Chrome trace-event JSON file."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = []
        for name, start, end, span_id, parent_id, request, pid, tid in self.spans:
            events.append({
                "name": name, "cat": layer_of(name), "ph": "X",
                "ts": (start - t0) * 1e6, "dur": max((end - start) * 1e6, 0.001),
                "pid": pid, "tid": tid % 100_000,
                "args": {"span_id": span_id, "parent_span_id": parent_id,
                         "request_id": request},
            })
        meta = dict(meta, spans_kept=len(self.spans), spans_dropped=self.dropped)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "otherData": meta}, fh)


# -- metric layer -----------------------------------------------------------


class TracedMetric(Metric):
    """Times every public oracle helper of ``counting`` (a CountingOracle):
    ``count_within``, ``dist_to_set`` and ``pairwise`` under their own
    names, the rest as ``metric.other``.

    ``calls`` and ``evaluations`` mirror the inner oracle, so phase
    spans snapshot the same counters as without the wrapper.  Writes to
    them are ignored: the process executor replays worker counter deltas
    onto every wrapper layer, and the inner oracle receives its own.
    """

    def __init__(self, counting, tracer: Tracer) -> None:
        self.inner = counting
        self.n = counting.n
        self.chunk_budget = counting.chunk_budget
        self._tracer = tracer

    def __getattr__(self, name):
        if name == "inner" or name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.inner, name)

    calls = property(lambda self: self.inner.calls, lambda self, value: None)
    evaluations = property(lambda self: self.inner.evaluations, lambda self, value: None)

    def point_words(self) -> int:
        return self.inner.point_words()

    def _timed(self, op: str, fn, *args):
        before = self.inner.evaluations
        frame = self._tracer.enter(f"metric.{op}")
        try:
            return fn(*args)
        finally:
            self._tracer.exit(frame)
            self._tracer.count(f"metric.{op}.evals", self.inner.evaluations - before)

    def _pairwise_kernel(self, I, J):
        return self._timed("other", self.inner._pairwise_kernel, I, J)

    def distance(self, i, j):
        return self._timed("other", self.inner.distance, i, j)

    def pairwise(self, I, J):
        return self._timed("pairwise", self.inner.pairwise, I, J)

    def dist_to_set(self, I, T):
        return self._timed("dist_to_set", self.inner.dist_to_set, I, T)

    def radius(self, X, Y):
        return self._timed("other", self.inner.radius, X, Y)

    def diversity(self, S):
        return self._timed("other", self.inner.diversity, S)

    def within(self, I, J, tau):
        return self._timed("other", self.inner.within, I, J, tau)

    def count_within(self, I, J, tau):
        return self._timed("count_within", self.inner.count_within, I, J, tau)

    def argmax_dist_to_set(self, I, T):
        return self._timed("other", self.inner.argmax_dist_to_set, I, T)


# -- machine and cluster layers ------------------------------------------------

MACHINE_METHODS = ("require_known", "learn", "pairwise", "dist_to_set", "radius",
                   "diversity", "count_within", "within")


def trace_cluster(cluster, tracer: Tracer) -> None:
    """Shadow each machine's methods with ``machine.<method>`` spans and the
    cluster's ``send``/``step`` with ``cluster.*`` spans; count messages and
    words per delivered round from the round's own accounting record."""
    for mach in cluster.machines:
        for method in MACHINE_METHODS:
            setattr(mach, method, tracer.wrap(f"machine.{method}", getattr(mach, method)))
    cluster.send = tracer.wrap("cluster.send", cluster.send)
    step = cluster.step

    def traced_step():
        frame = tracer.enter("cluster.step")
        try:
            return step()
        finally:
            tracer.exit(frame)
            last = cluster.stats.rounds_log[-1]
            tracer.count("cluster.messages", last.messages)
            tracer.count("cluster.words", last.total)

    cluster.step = traced_step


# -- executor layer --------------------------------------------------------------


class TracedExecutor:
    """Execution backend that times dispatch around a real backend.

    Each task runs inside an ``executor.task`` span.  A task that ran in
    a forked worker returns its tracer delta with its value; the driver
    merges every worker's counts, and the busiest worker's self-time
    ledger, charging that worker's in-task time as the map span's child
    time.  ``executor.dispatch`` accumulates map wall time minus that
    busiest in-task time.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        # bind, shutdown, effective_workers, ... pass straight through
        if name == "inner" or name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.inner, name)

    def map_indexed(self, fn, count):
        return self._dispatch(lambda task: self.inner.map_indexed(task, count), fn, count)

    def map_machines(self, fn, machines, metric=None):
        mapper = getattr(self.inner, "map_machines", None)
        if mapper is None:
            return self._dispatch(
                lambda task: self.inner.map_indexed(lambda i: task(machines[i]),
                                                    len(machines)),
                fn, len(machines))
        return self._dispatch(lambda task: mapper(task, machines, metric=metric),
                              fn, len(machines))

    def _dispatch(self, run, fn, count):
        tracer = self._tracer
        driver = os.getpid()
        fallbacks_before = getattr(self.inner, "serial_fallbacks", 0)

        def task(arg):
            mark = tracer.mark() if os.getpid() != driver else None
            frame = tracer.enter("executor.task")
            try:
                value = fn(arg)
            finally:
                busy = tracer.exit(frame)
            delta = tracer.delta_since(mark) if mark is not None else None
            return value, os.getpid(), busy, delta

        frame = tracer.enter("executor.map_machines")
        try:
            packed = run(task)
            busy_by_pid: Dict[int, float] = defaultdict(float)
            for _, pid, busy, _ in packed:
                busy_by_pid[pid] += busy
            forked = {pid: s for pid, s in busy_by_pid.items() if pid != driver}
            busiest = max(forked, key=forked.get) if forked else None
            for _, pid, _, delta in packed:
                if delta is not None:
                    tracer.merge(delta, ledger=pid == busiest)
            if busiest is not None:
                tracer.add_child_time(forked[busiest])
            critical = max(busy_by_pid.values(), default=0.0)
        finally:
            wall = tracer.exit(frame)
        tracer.count("executor.dispatch_s", wall - critical)
        tracer.count("executor.fallbacks",
                     getattr(self.inner, "serial_fallbacks", 0) - fallbacks_before)
        with tracer._lock:
            tracer.counts["executor.effective_workers"] = max(
                tracer.counts.get("executor.effective_workers", 0),
                self.effective_workers(count))
        return [value for value, _, _, _ in packed]


# -- core layer (the solver's own phase spans) ---------------------------------------

_SOLVER_PREFIXES = ("kcenter", "div", "supplier", "domset")


def core_name(phase: str) -> str:
    """``kcenter/probe`` → ``core.probe``; ``mis/round`` → ``core.mis_round``."""
    prefix, _, rest = phase.partition("/")
    part = rest if prefix in _SOLVER_PREFIXES and rest else phase.replace("/", "_")
    return "core." + part.replace("-", "_")


class PhaseObserver(Observer):
    """Mirrors ``cluster.obs`` phase spans as ``core.*`` tracer spans,
    with oracle evaluations read from the run's CountingOracle."""

    wants_messages = False

    def __init__(self, tracer: Tracer, counting) -> None:
        self._tracer = tracer
        self._counting = counting
        self._open: Dict[int, tuple] = {}

    def on_span_start(self, span) -> None:
        self._open[span.uid] = (self._tracer.enter(core_name(span.name)),
                                self._counting.evaluations)

    def on_span_end(self, span) -> None:
        opened = self._open.pop(span.uid, None)
        if opened is None:
            return
        frame, evals = opened
        self._tracer.exit(frame)
        self._tracer.count(f"{frame.name}.evals", self._counting.evaluations - evals)


def instrument(cluster, counting, tracer: Tracer) -> PhaseObserver:
    """Wrap a freshly built cluster's machine, cluster and phase layers.

    The metric and executor wrappers are handed to ``build_cluster``
    instead (see :func:`traced_build_args`).
    """
    trace_cluster(cluster, tracer)
    return cluster.obs.add(PhaseObserver(tracer, counting))


def traced_build_args(counting, executor, tracer: Tracer) -> dict:
    """``build_cluster`` keywords that route metric and executor calls
    through the tracer."""
    return {"metric": TracedMetric(counting, tracer),
            "backend": TracedExecutor(executor, tracer)}


def stopwatch() -> Callable[[], float]:
    t0 = _clock()
    return lambda: _clock() - t0


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, interpolated between samples (never
    extrapolated past the largest, as the exclusive method would be on
    a short list)."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])

