"""Execution backends for per-machine local computation.

Within an MPC round, machines compute independently — the simulator can
therefore fan the per-machine work out to an execution backend.  Three
are provided, all implementing the :class:`ExecutionBackend` protocol
(the third, the multi-host :class:`~repro.mpc.remote.RemoteExecutor`,
lives in :mod:`repro.mpc.remote`):

* :class:`SerialExecutor` — one task after another (the default);
* :class:`ProcessExecutor` — persistent local worker agents (real OS
  processes) for metrics whose kernels hold the GIL (edit distance,
  graph search, python callables) or very large instances.

The two parallel backends differ only in where their
:class:`~repro.mpc.remote.WorkerAgent` processes come from.  Everything
else is defined once, here: the strided-chunk retry ladder
(:meth:`_ChunkedExecutor._run_ladder`), the socket dispatch of a wave
(:meth:`_ChunkedExecutor._run_wave`, over :mod:`repro.mpc.wire`), the
per-machine packer (:func:`pack_machine`) and the driver-side replay
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
import secrets
import signal
import socket
import sys
import threading
import time
import traceback
import weakref
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, TypeVar, runtime_checkable

import numpy as np

from repro.mpc.wire import (
    ProtocolError,
    _unwrap,
    dataset_fingerprint,
    dumps_task,
    find_points_array,
    recv_msg,
    send_msg,
)
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

    def map_machines(self, fn, machines: Sequence, metric=None) -> list:
        """Evaluate ``fn(mach)`` for every machine, in order."""
        return [fn(mach) for mach in machines]

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


class _AgentState:
    """Driver-side record of one worker agent.  A local agent carries its
    pid and is labelled by its slot, not by its (ephemeral) port."""

    __slots__ = ("addr", "label", "pid", "token", "alive", "reason", "datasets",
                 "dispatched", "lost")

    def __init__(self, addr: Tuple[str, int], label: str = "", pid: int = 0,
                 token: bytes = b"") -> None:
        self.addr = addr
        self.label = label or f"{addr[0]}:{addr[1]}"
        self.pid = pid
        #: shared secret a local agent reads before it unpickles anything
        self.token = token
        self.alive = True
        self.reason = ""
        self.datasets: set = set()
        self.dispatched = 0
        self.lost = 0

    def connect(self, timeout: Optional[float]) -> socket.socket:
        """Open a request connection; the token, if any, goes first."""
        sock = socket.create_connection(self.addr, timeout=timeout)
        try:
            sock.sendall(self.token)
        except OSError:
            sock.close()
            raise
        return sock

    def mark_dead(self, reason: str) -> None:
        """Record the agent as dead; a local agent is killed and reaped."""
        self.alive = False
        self.reason = reason
        pid, self.pid = self.pid, 0
        if pid:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass

    def status(self) -> dict:
        return {
            "alive": self.alive,
            "reason": self.reason,
            "dispatched": self.dispatched,
            "lost": self.lost,
        }


class _ChunkedExecutor:
    """What the parallel backends share: the recovery counters, fault
    reporting, the strided-chunk retry ladder and the socket dispatch.

    A subclass supplies a wave's agents, ``_wave_workers``; the fault
    its plan injects, ``_planned_fault``; what it records when lost
    chunks run again, ``_note_retry``; where a batch goes when the
    agents cannot run it, ``_try_agents``/``_fallback``; and its extra
    ``recovery_stats()`` keys, ``_pool_stats``.  See
    ``docs/fault_tolerance.md`` for the ladder as a whole.
    """

    #: ``FaultEvent.layer`` of this backend's injections and recoveries
    fault_layer = "executor"
    #: name of the chunk spans the agents stamp
    span_name = "exec/chunk"

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
        # dispatch counters (reported by the remote backend)
        self.local_fallbacks = 0
        self.dispatched_chunks = 0
        self.duplicate_results = 0
        self.datasets_shipped = 0
        self._batch_no = 0
        self._cluster_ref: Optional[weakref.ref] = None
        self._workers: List[_AgentState] = []
        #: ``(fingerprint, array)`` of the bound cluster's point matrix,
        #: located on the first wave after each bind
        self._dataset: Optional[Tuple[str, object]] = None
        self._dataset_located = False
        self._lock = threading.Lock()

    def bind(self, cluster) -> None:
        """Adopt a cluster: keep a weak back-reference for
        fault/recovery observability and the point matrix."""
        self._cluster_ref = weakref.ref(cluster)
        self._dataset_located = False

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

    # -- the ExecutionBackend surface -----------------------------------------

    def map_indexed(self, fn: Callable[[int], T], count: int) -> List[T]:
        """Evaluate ``fn(i)`` for ``i in range(count)`` on the agents, in
        index order; a batch they cannot run or finish goes to the
        backend's fallback, which reproduces it exactly."""
        values = self._try_agents("indexed", fn, range(count))
        return self._fallback().map_indexed(fn, count) if values is None else values

    def map_machines(self, fn, machines: Sequence, metric=None) -> list:
        """Machine-aware dispatch with state synchronisation: the agents
        return :func:`pack_machine` results and :func:`replay_packed`
        applies them in the driver, so a parallel run is bit-identical
        to a serial one, CountingOracle ledger included."""
        packed = self._try_agents("machines", fn, machines)
        if packed is None:
            return self._fallback().map_machines(fn, machines, metric=metric)
        return replay_packed(packed, machines, _counting_layers(metric))

    def _record_fallback(self, kind: str, reason: str) -> None:
        """A batch left the agents for the backend's fallback
        (``"serial_fallback"`` or ``"local_fallback"``); remember why."""
        self.degradations.append(reason)
        if kind == "serial_fallback":
            self.serial_fallbacks += 1
        else:
            self.local_fallbacks += 1
        self._emit_fault(kind, injected=False, detail=reason)
        _log.warning(f"{self.fault_layer} batch degraded to {kind.split('_')[0]} execution",
                     extra={"reason": reason})

    # -- socket dispatch ------------------------------------------------------

    def _mark_dead(self, worker: _AgentState, reason: str) -> None:
        worker.mark_dead(reason)

    def _connection_lost(self, worker: _AgentState, exc: Exception) -> str:
        """Loss reason for a chunk whose connection broke; the agent may
        well still be healthy."""
        return f"worker {worker.label} connection lost: {exc}"

    def _bound_dataset(self) -> Optional[Tuple[str, object]]:
        if not self._dataset_located:
            self._dataset_located = True
            cluster = self._cluster()
            array = find_points_array(cluster.metric) if cluster is not None else None
            self._dataset = None if array is None else (self._fingerprint(array), array)
        return self._dataset

    def _fingerprint(self, array) -> str:
        return dataset_fingerprint(array)

    def _ship_dataset(self, worker: _AgentState, dataset: Tuple[str, object]) -> None:
        """Ship the point matrix to one agent (once per fingerprint)."""
        fingerprint, array = dataset
        with worker.connect(self.connect_timeout_s) as conn:
            conn.settimeout(self.chunk_timeout_s)
            send_msg(conn, {
                "op": "put_dataset",
                "fingerprint": fingerprint,
                "shape": tuple(array.shape),
                "dtype": str(array.dtype),
                "blob": np.ascontiguousarray(array).tobytes(),
            })
            reply = recv_msg(conn)
        if not reply.get("ok"):  # pragma: no cover - protocol guard
            raise ProtocolError(f"put_dataset refused: {reply!r}")
        worker.datasets.add(fingerprint)
        self.datasets_shipped += 1

    def _store_result(self, results: dict, chunk_no: int, values, lock) -> bool:
        """First-writer-wins slot fill; duplicates are counted, not
        applied (a re-dispatched chunk's late original result)."""
        with lock:
            if chunk_no in results:
                self.duplicate_results += 1
                self._emit_fault(
                    "duplicate_result", injected=False,
                    target=f"chunk {chunk_no}",
                    detail="late result after lease forfeit; first writer kept",
                )
                return False
            results[chunk_no] = values
            return True

    def _dispatch_chunk(
        self,
        worker: _AgentState,
        request: dict,
        results: dict,
        chunk_no: int,
        lock,
    ) -> Tuple[str, object]:
        """Send one chunk to one agent under a heartbeated lease.

        Returns ``("ok", span_dict_or_None)``, ``("fatal", tb_text)``,
        or ``("lost", reason)``.  Connect failures and lease expiry mark
        the agent dead; a broken connection means what
        :meth:`_connection_lost` says; a corrupt payload only loses the
        chunk.
        """
        label = worker.label
        chunk_head = request["chunk"][:3]
        try:
            sock = worker.connect(self.connect_timeout_s)
        except OSError as exc:
            self._mark_dead(worker, f"connect failed: {exc}")
            return ("lost", f"worker {label} unreachable: {exc} (chunk {chunk_head}…)")
        worker.dispatched += 1
        self.dispatched_chunks += 1
        deadline = (None if self.chunk_timeout_s is None
                    else time.monotonic() + self.chunk_timeout_s)
        try:
            sock.settimeout(self.lease_s)
            send_msg(sock, request)
            while True:
                if deadline is not None and time.monotonic() > deadline:
                    worker.lost += 1
                    self._mark_dead(worker, "chunk deadline exceeded")
                    self._abandon(sock, results, chunk_no, label)
                    return ("lost",
                            f"worker {label} exceeded the {self.chunk_timeout_s}s "
                            f"chunk deadline (chunk {chunk_head}…)")
                try:
                    reply = recv_msg(sock)
                except socket.timeout:
                    worker.lost += 1
                    self._mark_dead(worker, f"lease expired ({self.lease_s}s without a heartbeat)")
                    self._abandon(sock, results, chunk_no, label)
                    return ("lost",
                            f"worker {label} lease expired after {self.lease_s}s "
                            f"(chunk {chunk_head}…)")
                if "hb" in reply:
                    continue  # lease renewed
                break
        except (OSError, ProtocolError) as exc:
            worker.lost += 1
            sock.close()
            return ("lost", f"{self._connection_lost(worker, exc)} (chunk {chunk_head}…)")
        sock.close()
        if reply.get("ok"):
            try:
                values, span = pickle.loads(reply["blob"])
            except Exception:
                worker.lost += 1
                return ("lost",
                        f"worker {label} returned an undecodable payload "
                        f"(chunk {chunk_head}…)")
            stored = self._store_result(results, chunk_no, values, lock)
            return ("ok", span if stored else None)
        if "need_dataset" in reply:
            return ("need_dataset", reply["need_dataset"])
        return ("fatal", str(reply.get("fatal", "worker reported an unknown error")))

    def _abandon(self, sock: socket.socket, results: dict, chunk_no: int, label: str) -> None:
        """Keep listening on a forfeited chunk's socket in the
        background: if the slow worker eventually answers, the late
        result hits the first-writer-wins gate instead of a closed
        port (and is counted as a duplicate)."""
        lock = self._lock

        def reap() -> None:
            try:
                sock.settimeout(self.chunk_timeout_s)
                while True:
                    reply = recv_msg(sock)
                    if "hb" in reply:
                        continue
                    if reply.get("ok"):
                        values, _span = pickle.loads(reply["blob"])
                        self._store_result(results, chunk_no, values, lock)
                    return
            except Exception:
                return
            finally:
                sock.close()

        threading.Thread(target=reap, daemon=True).start()

    def _run_wave(self, job, pending, batch_no: int, attempt: int):
        """Dispatch one wave of chunks concurrently, each under its own
        lease, so the wave lasts as long as its slowest chunk.  Returns
        ``None`` once no agent is alive.  Fault injections and each
        chunk's trace context are decided here, in the driver, so
        observers see them and the id tree is deterministic."""
        mode, fn, items, results = job
        workers = self._wave_workers(pending, attempt)
        if workers is None:
            return None
        dataset = self._bound_dataset()
        plan = self.faults
        cluster = self._cluster()
        parent_ctx = cluster.obs.trace_parent() if cluster is not None else None
        lock = self._lock
        wave: List[Tuple[int, List[int], _AgentState, dict]] = []
        for (widx, chunk), worker in zip(pending, workers):
            try:
                # indexed batches pass items=range(count), so this ships
                # the task indices themselves
                blob = dumps_task((fn, [items[i] for i in chunk]), dataset=dataset)
            except Exception as exc:
                raise _WorkerFailure(
                    f"task cannot be shipped to worker agents: {exc!r}"
                ) from None
            action, delay_s = self._planned_fault(batch_no, widx, attempt) if plan else (None, 0.0)
            if action is not None:
                self._note_injection(action, f"worker {worker.label} chunk {chunk[:3]}",
                                     worker.label, batch_no, attempt)
            ctx = parent_ctx.child(self.span_name) if parent_ctx is not None else None
            request = {
                "op": "run",
                "mode": mode,
                "blob": blob,
                "batch": batch_no,
                "worker": widx,
                "attempt": attempt,
                "chunk": list(chunk),
                "traceparent": ctx.to_traceparent() if ctx is not None else None,
                "parent_span": ctx.parent_id if ctx is not None else None,
                "span": self.span_name,
                "inject": action,
                "delay_s": delay_s,
                "heartbeat_s": self.heartbeat_s,
            }
            if dataset is not None and dataset[0] not in worker.datasets:
                try:
                    self._ship_dataset(worker, dataset)
                except (OSError, ProtocolError) as exc:
                    self._mark_dead(worker, f"dataset ship failed: {exc}")
            wave.append((widx, chunk, worker, request))

        outcomes: List[Optional[Tuple[str, object]]] = [None] * len(wave)

        def fire(i: int, widx: int, chunk: List[int],
                 worker: _AgentState, request: dict) -> None:
            if not worker.alive:
                outcomes[i] = ("lost", f"worker {worker.label} already dead: "
                                       f"{worker.reason} (chunk {chunk[:3]}…)")
                return
            outcome = self._dispatch_chunk(worker, request, results, widx, lock)
            if outcome[0] == "need_dataset":
                # freshly restarted worker: its cache is cold — ship
                # and re-send once, transparently
                self._emit_fault(
                    "dataset_reship", injected=False, target=worker.label,
                    detail=f"cache miss for {outcome[1]}",
                )
                try:
                    self._ship_dataset(worker, dataset)
                except (OSError, ProtocolError) as exc:
                    self._mark_dead(worker, f"dataset ship failed: {exc}")
                    outcomes[i] = ("lost",
                                   f"worker {worker.label} lost its dataset and "
                                   f"could not be re-shipped: {exc}")
                    return
                outcome = self._dispatch_chunk(worker, request, results, widx, lock)
            if outcome[0] == "lost" and request.get("inject") == "kill":
                # the plan killed this agent; don't burn a retry
                # probing its corpse next wave
                self._mark_dead(worker, "injected worker kill")
            outcomes[i] = outcome

        threads = [
            threading.Thread(target=fire, args=(i,) + entry, daemon=True)
            for i, entry in enumerate(wave)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for i, (widx, _chunk, _worker, _request) in enumerate(wave):
            status, payload = outcomes[i]
            if status == "ok" and payload is not None and cluster is not None:
                cluster.obs.emit_exec_span(ExecSpanRecord(**payload))
            # the first writer's values; a lost chunk whose late result
            # a reaper salvaged meanwhile counts as done
            if status != "fatal" and widx in results:
                outcomes[i] = ("ok", results[widx])
        return outcomes


def _reap_agents(agents: List[_AgentState], owner: int) -> None:
    """Kill and reap every live local agent; a no-op in any process but
    ``owner``, the one that forked them."""
    if os.getpid() == owner:
        for agent in agents:
            agent.mark_dead("shut down by driver")


class ProcessExecutor(_ChunkedExecutor):
    """Run per-machine local work on persistent local worker agents.

    The first batch that goes parallel forks ``max_workers``
    :class:`~repro.mpc.remote.WorkerAgent` processes with one task slot
    each (one agent with several slots would run its chunks on threads,
    under one GIL); construction and :meth:`bind` fork nothing.  Chunk
    ``w`` runs on the agent of slot ``w``, on an ephemeral 127.0.0.1
    port.  An agent that died is noticed at once (EOF, or ``waitpid``)
    and replaced before the next wave.  :meth:`shutdown`, garbage
    collection and interpreter exit reap the agents; an agent whose
    driver is gone exits by itself.

    A lost chunk (dead agent, undecodable payload) is re-executed alone,
    up to :attr:`chunk_retries` times; beyond that, or when a task
    raises or cannot be pickled, the batch re-runs serially in the
    driver with the reason appended to :attr:`degradations` (see
    ``docs/fault_tolerance.md``).  :attr:`fallback_reason` marks a
    *permanent* platform degradation (no ``fork()``).

    Parameters
    ----------
    max_workers:
        Number of local agents; defaults to the
        :data:`WORKERS_ENV_VAR` (``REPRO_WORKERS``) environment
        variable when set, else the CPU count.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; its executor layer
        (worker kill / payload corrupt / delay) is decided in the driver
        and enacted by the agents.  Usually wired through
        :class:`~repro.mpc.cluster.MPCCluster`'s ``faults`` argument.
    chunk_retries:
        Times a dead/undecodable chunk is re-executed before the batch
        degrades to a serial re-run.
    """

    #: no lease and no deadline: a local agent's death closes the
    #: chunk's connection at once, and a slow chunk is only slow
    lease_s = None
    chunk_timeout_s = None
    connect_timeout_s = 2.0
    heartbeat_s = 0.2

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        faults=None,
        chunk_retries: int = 2,
    ) -> None:
        super().__init__(faults, chunk_retries)
        self.max_workers = workers_from_env() if max_workers is None else max_workers
        self.fallback_reason: Optional[str] = None
        if not hasattr(os, "fork") or sys.platform in ("win32", "emscripten"):
            self.fallback_reason = f"fork() unavailable on {sys.platform}"
        #: worker slots that died permanently (outlived the chunk retry
        #: budget) — subtracted from the parallelism this executor
        #: *reports*, so bench artifacts record the surviving pool
        self.workers_lost = 0
        self._owner = os.getpid()
        #: what a connection to one of this driver's agents must send
        #: before the agent unpickles anything: the listening ports are
        #: open to every local user
        self._token = secrets.token_bytes(32)
        self._datasets_located = 0
        weakref.finalize(self, _reap_agents, self._workers, self._owner)

    def _pool_stats(self) -> dict:
        return {
            "workers_lost": self.workers_lost,
            "effective_workers": self.effective_workers(),
        }

    def shutdown(self) -> None:
        """Kill and reap the local agents (idempotent); a later parallel
        batch forks new ones."""
        _reap_agents(self._workers, self._owner)

    # -- the local agents ---------------------------------------------------

    def _agent(self, slot: int) -> _AgentState:
        """The live agent of ``slot``, forked now if it has none or its
        process has exited."""
        agent = self._workers[slot] if slot < len(self._workers) else None
        if agent is not None and agent.alive:
            try:
                exited = os.waitpid(agent.pid, os.WNOHANG)[0] != 0
            except ChildProcessError:
                exited = True
            if not exited:
                return agent
            agent.pid = 0  # reaped just now
        from repro.mpc.remote import run_local_agent  # remote imports this module

        # the agent inherits the point matrix: seeded, it shares the
        # driver's copy-on-write pages instead of being shipped a copy
        dataset = self._bound_dataset()
        driver = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError as exc:
            os.close(read_fd)
            os.close(write_fd)
            raise _WorkerFailure(f"cannot fork a local worker agent: {exc}") from None
        if pid == 0:  # the agent leaves only through os._exit
            code = 1
            try:
                os.close(read_fd)
                run_local_agent(write_fd, driver, self._token, dataset)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        try:
            port = os.read(read_fd, 16)
        finally:
            os.close(read_fd)
        agent = _AgentState(("127.0.0.1", int(port or 0)), label=str(slot), pid=pid,
                            token=self._token)
        if dataset is not None:
            agent.datasets.add(dataset[0])
        self._workers[slot:slot + 1] = [agent]
        if not port:
            agent.mark_dead("exited before listening")
            raise _WorkerFailure(f"local worker agent {slot} exited before listening")
        return agent

    def _wave_workers(self, pending, attempt: int) -> List[_AgentState]:
        return [self._agent(widx) for widx, _chunk in pending]

    def _fingerprint(self, array) -> str:
        # an agent is forked holding the array (or is shipped it), so a
        # name unique within this driver will do: no hash pass over it
        if self._dataset is None or self._dataset[1] is not array:
            self._datasets_located += 1
        return f"local-{self._datasets_located}"

    def _connection_lost(self, worker: _AgentState, exc: Exception) -> str:
        # a local agent drops a chunk's connection only by dying
        self._mark_dead(worker, f"connection lost: {exc}")
        return f"worker {worker.label} died without reporting"

    def _planned_fault(self, batch_no: int, widx: int, attempt: int):
        plan = self.faults
        return plan.worker_fault(batch_no, widx, attempt), plan.worker_delay_s

    # -- task execution -----------------------------------------------------

    def _workers_for(self, count: int) -> int:
        return max(1, min(self.max_workers or (os.cpu_count() or 1), count))

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

    def _try_agents(self, mode: str, fn, items: Sequence) -> Optional[list]:
        if self.fallback_reason is not None or self._workers_for(len(items)) < 2:
            return None
        try:
            return self._agent_map(mode, fn, items)
        except _WorkerFailure as exc:
            # Agents never mutate driver state, so a clean re-run in the
            # driver reproduces the exact result — or the real
            # exception, with a real traceback.
            self._record_fallback("serial_fallback", str(exc))
            return None

    def _fallback(self):
        return SerialExecutor()

    def _agent_map(self, mode: str, fn, items: Sequence) -> list:
        """Run the retry ladder over the agents, one chunk per slot."""
        try:
            return self._run_ladder((mode, fn, items, {}), len(items),
                                    self._workers_for(len(items)))
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
                "executor chunk lost; running it again",
                extra={"worker": widx, "batch": batch_no,
                       "attempt": attempt, "reason": reason},
            )


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
