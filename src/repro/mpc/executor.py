"""Execution backends for per-machine local computation.

Within an MPC round, machines compute independently — the simulator can
therefore fan the per-machine work out to an execution backend.  Three
are provided, all implementing the :class:`ExecutionBackend` protocol
(the third, the multi-host :class:`~repro.mpc.remote.RemoteExecutor`,
lives in :mod:`repro.mpc.remote`):

* :class:`SerialExecutor` — one task after another (the default);
* :class:`ProcessExecutor` — real OS processes, forked per batch, for
  metrics whose kernels hold the GIL (edit distance, graph search,
  python callables) or very large instances.  The point matrix is
  migrated into :mod:`multiprocessing.shared_memory` (see
  :mod:`repro.mpc.shm`) so workers read it without pickling a byte of
  point data; only the small per-machine results travel back.

The two parallel backends differ only in transport.  Everything else is
defined once, here: the strided-chunk retry ladder
(:meth:`_ChunkedExecutor._run_ladder`), the per-machine packer
(:func:`pack_machine`) and the driver-side replay
(:func:`replay_packed`).

Determinism is preserved by construction on every backend: each machine
draws only from its *own* RNG stream inside its own task, so the
schedule cannot change any stream's sequence.  A parallel worker
additionally returns the machine's post-task RNG state and the
distance-oracle counter deltas, which the driver replays — serial,
process and remote runs are bit-identical, including the
:class:`~repro.metric.oracle.CountingOracle` ledger
(``tests/test_mpc_executor.py`` asserts it).

The parallel task contract is the MPC local-computation contract
sharpened one notch: a task may read anything, but the only *writes*
that survive are its return value and its machine's RNG stream.  All
callbacks in :mod:`repro.core` obey this (they communicate results via
``cluster.send``, never via driver-side mutation).
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback
import weakref
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, TypeVar, runtime_checkable

from repro.mpc.shm import SharedArray, _unwrap, share_metric_points
from repro.obs.events import ExecSpanRecord, FaultEvent
from repro.obs.logging import get_logger

T = TypeVar("T")

_log = get_logger("repro.mpc.executor")


@runtime_checkable
class ExecutionBackend(Protocol):
    """What :class:`~repro.mpc.cluster.MPCCluster` requires of a backend.

    ``map_indexed(fn, count)`` evaluates ``fn(i)`` for ``i in
    range(count)`` and returns the results in index order; exceptions
    propagate to the caller.  ``shutdown()`` releases pools and shared
    resources and must be idempotent.  Backends may optionally provide
    ``bind(cluster)`` (called once from the cluster constructor) and
    ``map_machines(fn, machines, metric=None)`` for machine-aware
    dispatch with state synchronisation.
    """

    def map_indexed(self, fn: Callable[[int], T], count: int) -> List[T]: ...

    def shutdown(self) -> None: ...


#: environment variable consulted when a worker count is not given explicitly
WORKERS_ENV_VAR = "REPRO_WORKERS"


def workers_from_env() -> Optional[int]:
    """Worker count from :data:`WORKERS_ENV_VAR`, or ``None`` if unset.

    An unset or empty variable means "use the default"; anything else
    must be a positive integer (misconfiguration fails loudly rather
    than silently running at the wrong parallelism).
    """
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV_VAR}={raw!r} is not an integer worker count"
        ) from None
    if value < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
    return value


class SerialExecutor:
    """Run per-machine tasks one after another (the default)."""

    def map_indexed(self, fn: Callable[[int], T], count: int) -> List[T]:
        """Evaluate ``fn(i)`` for ``i in range(count)``, in order."""
        return [fn(i) for i in range(count)]

    def effective_workers(self, count: int | None = None) -> int:
        """Degree of parallelism actually used (always 1)."""
        return 1

    def shutdown(self) -> None:  # pragma: no cover - nothing to release
        pass


class _WorkerFailure(Exception):
    """A parallel backend cannot finish a batch: a task raised a real
    exception, the transport ran out of workers, or lost chunks outlived
    the retry budget.  The message aggregates *every* failed chunk's
    reason; :attr:`lost` counts the chunks still lost when the budget
    ran out."""

    def __init__(self, reason: str, lost: int = 0) -> None:
        super().__init__(reason)
        self.lost = lost


def _counting_layers(metric) -> list:
    """Every CountingOracle in the metric's wrapper chain (outermost first)."""
    return [m for m in _unwrap(metric) if hasattr(m, "evaluations") and hasattr(m, "calls")]


def pack_machine(fn, mach, counting: Sequence) -> tuple:
    """Run ``fn(mach)`` in a worker and return ``(value, rng_state,
    oracle_deltas)``: everything :func:`replay_packed` needs to make the
    driver's state match a serial run."""
    before = [(c.calls, c.evaluations) for c in counting]
    value = fn(mach)
    deltas = [
        (c.calls - b_calls, c.evaluations - b_evals)
        for c, (b_calls, b_evals) in zip(counting, before)
    ]
    return value, mach.rng.bit_generator.state, deltas


def replay_packed(packed: Sequence, machines: Sequence, counting: Sequence) -> list:
    """Apply the workers' :func:`pack_machine` results in the driver:
    set each machine's RNG state, add the oracle counter deltas, and
    return the bare values in machine order."""
    values = []
    for mach, (value, rng_state, deltas) in zip(machines, packed):
        mach.rng.bit_generator.state = rng_state
        for layer, (d_calls, d_evals) in zip(counting, deltas):
            layer.calls += d_calls
            layer.evaluations += d_evals
        values.append(value)
    return values


def _chunk_span(name: str, worker: int, batch: int, attempt: int, chunk: Sequence,
                t_start: float, ctx, parent_span_id) -> dict:
    """The timed span record a worker ships back with a chunk's values
    (fields of :class:`~repro.obs.events.ExecSpanRecord`)."""
    span = {
        "name": name, "worker": int(worker), "batch": int(batch),
        "attempt": int(attempt), "chunk_size": len(chunk),
        "first_index": int(chunk[0]) if len(chunk) else -1,
        "os_pid": os.getpid(), "start_time": t_start,
        "end_time": time.perf_counter(),
    }
    if ctx is not None:
        span.update(trace_id=ctx.trace_id, span_id=ctx.span_id,
                    parent_span_id=parent_span_id)
    return span


#: FaultEvent kind of each fault-plan action a backend can enact
_INJECTED_KINDS = {"kill": "worker_kill", "corrupt": "payload_corrupt",
                   "delay": "worker_delay", "drop": "connection_drop"}


class _ChunkedExecutor:
    """What the parallel backends share: the recovery counters, fault
    reporting, and the strided-chunk retry ladder.

    A subclass supplies only its transport, ``_run_wave``; what it
    records when lost chunks run again, ``_note_retry``; and its extra
    ``recovery_stats()`` keys, ``_pool_stats``.  See
    ``docs/fault_tolerance.md`` for the ladder as a whole.
    """

    #: ``FaultEvent.layer`` of this backend's injections and recoveries
    fault_layer = "executor"

    def __init__(self, faults, chunk_retries: int) -> None:
        if chunk_retries < 0:
            raise ValueError(f"chunk_retries must be >= 0, got {chunk_retries}")
        self.faults = faults
        self.chunk_retries = int(chunk_retries)
        #: per-batch degradation reasons (fallbacks taken and why)
        self.degradations: List[str] = []
        # recovery / injection counters (see recovery_stats())
        self.faults_injected = 0
        self.chunk_retries_used = 0
        self.serial_fallbacks = 0
        self._batch_no = 0
        self._cluster_ref: Optional[weakref.ref] = None

    def set_fault_plan(self, faults) -> None:
        """Install (or clear, with ``None``) the fault plan."""
        self.faults = faults

    def _cluster(self):
        return self._cluster_ref() if self._cluster_ref is not None else None

    def recovery_stats(self) -> dict:
        """Injection/recovery counters, for bench artifacts and the
        service's job payloads."""
        return {
            "faults_injected": self.faults_injected,
            "chunk_retries": self.chunk_retries_used,
            "serial_fallbacks": self.serial_fallbacks,
            "degradations": list(self.degradations),
            **self._pool_stats(),
        }

    def _emit_fault(self, kind: str, injected: bool, target: str = "",
                    attempt: int = 0, detail: str = "") -> None:
        """Report a fault/recovery to the bound cluster's observers."""
        cluster = self._cluster()
        # bind() runs from the cluster constructor, before the hub
        # exists — events emitted that early are log-only
        obs = getattr(cluster, "obs", None)
        if obs is None:
            return
        obs.emit_fault(
            FaultEvent(
                layer=self.fault_layer, kind=kind, injected=injected,
                round_no=getattr(cluster, "round_no", -1), target=target,
                attempt=attempt, detail=detail,
            )
        )

    def _note_injection(self, action: str, target: str, worker,
                        batch_no: int, attempt: int) -> None:
        """Record a fault the plan injects into one chunk's dispatch."""
        self.faults_injected += 1
        kind = _INJECTED_KINDS[action]
        self._emit_fault(kind, injected=True, target=target,
                         attempt=attempt, detail=f"batch {batch_no}")
        _log.info(
            f"{self.fault_layer} fault injected",
            extra={"kind": kind, "worker": worker,
                   "batch": batch_no, "attempt": attempt},
        )

    def _run_ladder(self, job, count: int, workers: int) -> list:
        """Run ``count`` tasks as ``workers`` strided chunks, in waves.

        Each wave hands the pending ``(chunk_no, indices)`` pairs and
        the opaque ``job`` to ``_run_wave``, which returns one
        ``(status, payload)`` per chunk: ``("ok", values)``, ``("fatal",
        reason)`` for a task that raised, or ``("lost", reason)`` for a
        chunk whose worker died, went silent or shipped garbage — or
        ``None`` when no worker is left to run on.  Lost chunks run
        again alone — healthy chunks' results are kept — up to
        :attr:`chunk_retries` times.  A real exception aborts at once:
        it is deterministic, and the caller's fallback re-run will
        reproduce it with a full traceback.  :class:`_WorkerFailure`
        messages carry *every* failed chunk's reason, not just the
        first.
        """
        self._batch_no += 1
        batch_no = self._batch_no
        chunks = [list(range(w, count, workers)) for w in range(workers)]
        pending = [(w, chunk) for w, chunk in enumerate(chunks) if chunk]
        results: list = [None] * count
        earlier_reasons: List[str] = []
        attempt = 0
        while True:
            outcomes = self._run_wave(job, pending, batch_no, attempt)
            if outcomes is None:
                raise _WorkerFailure("; ".join(earlier_reasons))
            fatal: List[str] = []
            retryable: List[Tuple[int, List[int]]] = []
            reasons: List[str] = []
            for (chunk_no, chunk), (status, payload) in zip(pending, outcomes):
                if status == "ok":
                    for i, value in zip(chunk, payload):
                        results[i] = value
                elif status == "fatal":
                    fatal.append(str(payload))
                else:  # "lost"
                    reasons.append(str(payload))
                    retryable.append((chunk_no, chunk))
            if fatal:
                raise _WorkerFailure("; ".join(fatal + reasons))
            if not retryable:
                return results
            if attempt >= self.chunk_retries:
                raise _WorkerFailure(
                    "; ".join(earlier_reasons + reasons)
                    + f" (chunk retry budget {self.chunk_retries} exhausted)",
                    lost=len(retryable),
                )
            earlier_reasons.extend(reasons)
            self.chunk_retries_used += len(retryable)
            attempt += 1
            self._note_retry(retryable, reasons, batch_no, attempt)
            pending = retryable


class ProcessExecutor(_ChunkedExecutor):
    """Fork real OS processes for per-machine local work.

    Workers are forked per batch: each inherits a consistent snapshot of
    the driver (machines, RNG streams, the round's driver-side arrays)
    at zero marshalling cost, computes its strided share of the tasks,
    and ships only the results back through a pipe.  The point matrix is
    migrated into shared memory at :meth:`bind` time so even many rounds
    of copy-on-write churn never duplicate it.

    Fault tolerance is layered (see ``docs/fault_tolerance.md``):

    1. a chunk whose worker dies without reporting, or ships an
       undecodable payload, is **re-executed alone** — healthy chunks'
       results are kept — up to :attr:`chunk_retries` times;
    2. beyond that (or when a task raises a real exception, which is
       deterministic and not worth retrying) the whole batch **falls
       back to a serial re-run in the driver**, with the reason
       appended to :attr:`degradations`.

    Both rungs preserve bit-identity: workers never mutate driver
    state, so re-executing a chunk (in a fresh fork or in the driver)
    reproduces exactly what the lost worker would have returned, and
    ``map_machines``'s RNG-state/oracle-delta replay then applies the
    same synchronisation it always does.  :attr:`fallback_reason` keeps
    its original meaning — a *permanent* platform degradation (no
    ``fork()``), distinct from the per-batch entries in
    :attr:`degradations`.

    Parameters
    ----------
    max_workers:
        Number of forked workers per batch; defaults to the
        :data:`WORKERS_ENV_VAR` (``REPRO_WORKERS``) environment
        variable when set, else the CPU count.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; its executor layer
        (worker kill / payload corrupt / delay) is injected into forked
        workers.  Usually wired through
        :class:`~repro.mpc.cluster.MPCCluster`'s ``faults`` argument.
    chunk_retries:
        Times a dead/undecodable chunk is re-executed before the batch
        degrades to a serial re-run.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        faults=None,
        chunk_retries: int = 2,
    ) -> None:
        # attributes first: __del__ must survive a failed env lookup below
        self.max_workers = max_workers
        self.fallback_reason: Optional[str] = None
        self._shared: List[SharedArray] = []
        super().__init__(faults, chunk_retries)
        #: worker slots that died permanently (outlived the chunk retry
        #: budget) — subtracted from the parallelism this executor
        #: *reports*, so bench artifacts record the surviving pool
        self.workers_lost = 0
        if not hasattr(os, "fork") or sys.platform in ("win32", "emscripten"):
            self.fallback_reason = f"fork() unavailable on {sys.platform}"
        if max_workers is None:
            self.max_workers = workers_from_env()

    # -- lifecycle ----------------------------------------------------------

    def bind(self, cluster) -> None:
        """Adopt a cluster: move its point matrix into shared memory and
        keep a (weak) back-reference for fault/recovery observability."""
        self._cluster_ref = weakref.ref(cluster)
        if self.fallback_reason is not None:
            return
        handle = share_metric_points(cluster.metric)
        if handle is not None:
            self._shared.append(handle)

    def _pool_stats(self) -> dict:
        return {
            "workers_lost": self.workers_lost,
            "effective_workers": self.effective_workers(),
        }

    def shutdown(self) -> None:
        """Unlink shared segments (mappings stay valid; idempotent)."""
        for handle in self._shared:
            handle.release()
        self._shared = []

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.shutdown()

    # -- task execution -----------------------------------------------------

    def _workers_for(self, count: int) -> int:
        return max(1, min(self.max_workers or (os.cpu_count() or 1), count))

    def _forks(self, count: int) -> bool:
        """Whether a ``count``-task batch goes to forked workers."""
        return count > 1 and self.fallback_reason is None and self._workers_for(count) > 1

    def effective_workers(self, count: int | None = None) -> int:
        """Workers a ``count``-task batch can actually be trusted to.

        Accounts for the configured cap, the CPU count, the batch size,
        the serial fallback, *and* worker slots lost permanently
        mid-run (chunks that outlived the retry budget) — this is the
        surviving pool a bench artifact should record, not the
        configured one.
        """
        if self.fallback_reason is not None:
            return 1
        base = max(1, (self.max_workers or (os.cpu_count() or 1)) - self.workers_lost)
        if count is None:
            return base
        return max(1, min(base, count))

    def map_indexed(self, fn: Callable[[int], T], count: int) -> List[T]:
        """Evaluate ``fn(i)`` for ``i in range(count)`` across forked
        workers, in index order; falls back to serial when parallelism
        cannot help or cannot be trusted."""
        if self._forks(count):
            try:
                return self._fork_map(fn, count)
            except _WorkerFailure as exc:
                # Workers never mutate driver state, so a clean re-run in
                # the driver reproduces the exact result — or the real
                # exception, with a real traceback.
                self._record_serial_fallback(str(exc))
        return [fn(i) for i in range(count)]

    def map_machines(self, fn, machines: Sequence, metric=None) -> list:
        """Machine-aware dispatch with state synchronisation.

        Each worker returns :func:`pack_machine` results for its
        machines; :func:`replay_packed` applies them in the driver, so a
        process run is bit-identical to a serial one — both the
        algorithmic results and the CountingOracle ledger.
        """
        if self._forks(len(machines)):
            counting = _counting_layers(metric)
            try:
                packed = self._fork_map(
                    lambda i: pack_machine(fn, machines[i], counting), len(machines)
                )
                return replay_packed(packed, machines, counting)
            except _WorkerFailure as exc:
                self._record_serial_fallback(str(exc))
        return [fn(mach) for mach in machines]

    def _record_serial_fallback(self, reason: str) -> None:
        """A batch degraded to a serial driver re-run; remember why."""
        self.serial_fallbacks += 1
        self.degradations.append(reason)
        self._emit_fault("serial_fallback", injected=False, detail=reason)
        _log.warning(
            "executor batch degraded to serial re-run",
            extra={"reason": reason, "serial_fallbacks": self.serial_fallbacks},
        )

    def _fork_map(self, task: Callable[[int], T], count: int) -> List[T]:
        """Run the retry ladder with one forked worker per chunk."""
        try:
            return self._run_ladder(task, count, self._workers_for(count))
        except _WorkerFailure as exc:
            # these worker slots died permanently: report the surviving
            # pool from here on (see effective_workers)
            self.workers_lost = max(self.workers_lost, exc.lost)
            raise

    def _note_retry(self, retryable, reasons, batch_no: int, attempt: int) -> None:
        for (widx, chunk), reason in zip(retryable, reasons):
            self._emit_fault(
                "chunk_retry", injected=False,
                target=f"worker {widx} chunk {chunk[:3]}",
                attempt=attempt, detail=reason,
            )
            _log.warning(
                "executor chunk lost; re-forking",
                extra={"worker": widx, "batch": batch_no,
                       "attempt": attempt, "reason": reason},
            )

    def _run_wave(
        self,
        task: Callable[[int], T],
        pending: Sequence[Tuple[int, List[int]]],
        batch_no: int,
        attempt: int,
    ) -> List[Tuple[str, object]]:
        """Fork one worker per pending ``(worker_index, chunk)``; gather.

        Returns one ``(status, payload)`` per chunk, in order:
        ``("ok", values)``, ``("fatal", traceback_text)`` for a task
        exception, or ``("lost", reason)`` for a worker that died
        without reporting or shipped an undecodable payload.  When a
        fault plan is installed, its executor-layer faults are injected
        here — decided in the driver (so observers see them) but enacted
        inside the forked child.

        Each chunk's trace context is derived in the driver *before*
        forking (so the id tree is deterministic), shipped into the
        child by fork inheritance, and the child returns a timed span
        record alongside its values — the driver merges it into the
        bound cluster's observers as an
        :class:`~repro.obs.events.ExecSpanRecord`.
        """
        plan = self.faults
        cluster = self._cluster()
        parent_ctx = cluster.obs.trace_parent() if cluster is not None else None
        procs: list[tuple[int, int, list[int]]] = []
        for widx, chunk in pending:
            chunk_ctx = (
                parent_ctx.child("exec/chunk") if parent_ctx is not None else None
            )
            action = plan.worker_fault(batch_no, widx, attempt) if plan else None
            if action is not None:
                self._note_injection(action, f"worker {widx} chunk {chunk[:3]}",
                                     widx, batch_no, attempt)
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # worker
                os.close(read_fd)
                if action == "kill":
                    # injected crash: exit before reporting a byte, like
                    # an OOM-killed or segfaulted worker
                    os._exit(1)
                if action == "delay":
                    time.sleep(plan.worker_delay_s)
                status = 0
                try:
                    t_start = time.perf_counter()
                    values = [task(i) for i in chunk]
                    span = _chunk_span(
                        "exec/chunk", widx, batch_no, attempt, chunk, t_start,
                        chunk_ctx, chunk_ctx.parent_id if chunk_ctx else None,
                    )
                    payload = pickle.dumps(
                        (values, span), protocol=pickle.HIGHEST_PROTOCOL
                    )
                except BaseException:
                    payload = pickle.dumps(traceback.format_exc())
                    status = 1
                if action == "corrupt":
                    # injected bit-rot: ship bytes that cannot unpickle
                    payload = b"\xde\xad\xbe\xef" + payload[:8]
                try:
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(bytes([status]))
                        pipe.write(payload)
                finally:
                    # hard exit: never run driver atexit/teardown in a worker
                    os._exit(0)
            os.close(write_fd)
            procs.append((pid, read_fd, chunk))

        outcomes: List[Tuple[str, object]] = []
        for pid, read_fd, chunk in procs:
            with os.fdopen(read_fd, "rb") as pipe:
                blob = pipe.read()
            os.waitpid(pid, 0)
            if not blob:
                outcomes.append(
                    ("lost", f"worker {pid} died without reporting (chunk {chunk[:3]}…)")
                )
                continue
            try:
                data = pickle.loads(blob[1:])
            except Exception:
                outcomes.append(
                    ("lost",
                     f"worker {pid} returned an undecodable payload (chunk {chunk[:3]}…)")
                )
                continue
            if blob[0] != 0:
                outcomes.append(("fatal", str(data)))
            else:
                values, span = data
                if cluster is not None:
                    cluster.obs.emit_exec_span(ExecSpanRecord(**span))
                outcomes.append(("ok", values))
        return outcomes


#: canonical backend names accepted by the CLI and the solver facade
BACKENDS = ("serial", "process", "remote")

_ALIASES = {
    "serial": "serial",
    "process": "process",
    "processes": "process",
    "fork": "process",
    "remote": "remote",
    "sockets": "remote",
}


def get_executor(
    backend: str = "serial",
    max_workers: int | None = None,
    workers=None,
):
    """Build an execution backend from its name.

    ``backend`` is one of ``'serial'``, ``'process'`` (aliases
    ``'processes'``, ``'fork'``), or ``'remote'`` (alias
    ``'sockets'``); an :class:`ExecutionBackend` instance passes
    through unchanged.  ``workers`` carries remote worker addresses
    (``'host:port,host:port'`` or a list) for the remote backend —
    when omitted the :data:`~repro.mpc.remote.REMOTE_WORKERS_ENV_VAR`
    environment variable is consulted; it is ignored by the local
    backends.
    """
    if not isinstance(backend, str):
        if isinstance(backend, ExecutionBackend):
            return backend
        raise TypeError(f"not an execution backend: {backend!r}")
    name = _ALIASES.get(backend.lower())
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(max_workers=max_workers)
    if name == "remote":
        from repro.mpc.remote import RemoteExecutor  # avoid an import cycle

        return RemoteExecutor(workers, max_workers=max_workers)
    aliases = sorted(set(_ALIASES) - set(BACKENDS))
    raise ValueError(
        f"unknown backend {backend!r}; valid backends: "
        f"{', '.join(repr(b) for b in BACKENDS)} "
        f"(aliases: {', '.join(repr(a) for a in aliases)})"
    )
