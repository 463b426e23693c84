"""Remote multi-host execution: worker agents + a lease-based executor.

:class:`RemoteExecutor` is the third :class:`~repro.mpc.executor.ExecutionBackend`:
it ships per-machine work over TCP to worker agents
(:class:`WorkerAgent`, started with ``repro worker --listen HOST:PORT``)
on any host.  The transport — the framed protocol of
:mod:`repro.mpc.wire` and the socket dispatch of
:class:`~repro.mpc.executor._ChunkedExecutor` — is the one
:class:`~repro.mpc.executor.ProcessExecutor` uses for its local agents.
Robustness is the design center:

* **Framed protocol.**  A truncated frame, a closed socket, or an
  oversized header is a :class:`~repro.mpc.wire.ProtocolError`, never a
  hang or a partial read.
* **Dataset cache.**  The point matrix is shipped **once per dataset
  fingerprint** per worker; chunk payloads reference it by fingerprint
  through pickle persistent ids.  A freshly restarted worker answers
  ``need_dataset`` and the driver re-ships transparently.
* **Leases and heartbeats.**  A dispatched chunk holds a lease of
  :attr:`RemoteExecutor.lease_s`; the executing worker heartbeats while
  it computes, each beat renewing the lease up to a hard per-chunk
  deadline.  A worker that stops beating forfeits the chunk.
* **Re-dispatch to survivors.**  Chunks from dead, unresponsive, or
  corrupt-responding workers are re-dispatched to surviving workers
  with exponential backoff and deterministic jitter, bounded by
  ``chunk_retries`` — the same retry ladder
  :class:`~repro.mpc.executor.ProcessExecutor` runs (one definition,
  in :mod:`repro.mpc.executor`), so reasons aggregate in
  ``degradations`` / ``recovery_stats()`` the same way.  A result that
  arrives *after* its lease was forfeited is counted, not applied:
  first-writer-wins.
* **Graceful degradation.**  When the whole pool is lost mid-run the
  batch falls to the process backend's local agents, and from there to
  a serial driver re-run — the same ladder, one rung higher.
* **Bit-identity.**  Workers replay nothing into the driver; they
  return ``(value, rng_state, oracle_deltas)`` per machine
  (:func:`~repro.mpc.executor.pack_machine`) and the driver replays RNG
  states and CountingOracle deltas with the process backend's
  :func:`~repro.mpc.executor.replay_packed`, so a remote run — faulted
  or not — is bit-identical to a serial one, ledger included.

Closures are shipped by value (code object + cells + referenced
globals), so both ends must run the same Python ``major.minor`` —
verified at ping time, mismatched workers are refused with a clear
reason rather than a marshal crash mid-run.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import os
import pickle
import signal
import socket
import sys
import threading
import time
import traceback
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mpc.executor import (
    ProcessExecutor,
    _AgentState,
    _ChunkedExecutor,
    _chunk_span,
    _counting_layers,
    _WorkerFailure,
    pack_machine,
    workers_from_env,
)
from repro.mpc.wire import (
    ProtocolError,
    _DatasetMiss,
    _recv_exact,
    loads_task,
    recv_msg,
    send_msg,
)
from repro.obs.logging import get_logger
from repro.obs.tracing import TraceContext

_log = get_logger("repro.mpc.remote")

#: environment variable listing default remote worker addresses
REMOTE_WORKERS_ENV_VAR = "REPRO_REMOTE_WORKERS"

#: how long a local agent waits for a connection's token
_AUTH_TIMEOUT_S = 5.0


def parse_worker_addresses(spec, *, allow_zero_port: bool = False) -> List[Tuple[str, int]]:
    """``'host:port,host:port'`` (or a list of such / ``(host, port)``
    pairs) → a list of ``(host, port)`` tuples, order preserved.

    ``allow_zero_port`` admits port 0 — meaningful only for a *listen*
    address (the OS picks an ephemeral port), never for dialing out.
    """
    if spec is None:
        return []
    items: list = []
    if isinstance(spec, str):
        items = [part for part in spec.split(",") if part.strip()]
    else:
        items = list(spec)
    out: List[Tuple[str, int]] = []
    for item in items:
        if isinstance(item, tuple):
            host, port = item
        else:
            text = str(item).strip()
            host, sep, port = text.rpartition(":")
            if not sep or not host:
                raise ValueError(f"bad worker address {item!r}; expected HOST:PORT")
        try:
            port = int(port)
        except ValueError:
            raise ValueError(f"bad worker port in {item!r}") from None
        if not (0 if allow_zero_port else 1) <= port < 65536:
            raise ValueError(f"worker port out of range in {item!r}")
        out.append((str(host), port))
    return out


def workers_from_remote_env() -> List[Tuple[str, int]]:
    """Addresses from :data:`REMOTE_WORKERS_ENV_VAR` (empty when unset)."""
    return parse_worker_addresses(os.environ.get(REMOTE_WORKERS_ENV_VAR, ""))


# -- the worker agent ---------------------------------------------------------


class WorkerAgent:
    """One worker agent: accepts framed requests, executes chunks.

    Usable in-process (tests, the docs quickstart) via :meth:`start` /
    :meth:`stop`, as a dedicated process via ``repro worker --listen
    HOST:PORT`` (:meth:`serve_forever`), or as a local agent forked by
    :class:`~repro.mpc.executor.ProcessExecutor`
    (:func:`run_local_agent`).  The local slot count defaults
    to ``REPRO_WORKERS`` (see
    :func:`~repro.mpc.executor.workers_from_env`), else the CPU count;
    slots bound how many chunks execute concurrently on this agent.

    Request vocabulary (one request per connection)::

        {"op": "ping"}                          -> {"ok", "pid", "slots", "python", "datasets"}
        {"op": "put_dataset", fingerprint,
         shape, dtype, blob}                    -> {"ok", "cached"}
        {"op": "run", mode, blob, batch,
         worker, attempt, chunk, traceparent,
         parent_span, span, inject, delay_s,
         heartbeat_s}                           -> {"hb": n}* then
                                                   {"ok": True, "blob"} |
                                                   {"ok": False, "fatal"} |
                                                   {"ok": False, "need_dataset"}
        {"op": "shutdown"}                      -> {"ok": True}

    On a local agent each connection first sends the driver's secret as
    raw bytes; a connection that does not is closed unread.
    While a chunk runs, the handler emits ``{"hb": n}`` frames every
    ``heartbeat_s`` seconds; each one renews the driver's lease.
    Injected faults (decided by the driver's seeded
    :class:`~repro.faults.FaultPlan`, enacted here) arrive as
    ``inject``: ``"drop"`` closes the connection without a reply,
    ``"kill"`` terminates the agent (``os._exit`` for a dedicated
    process, a permanent stop for an in-process agent), ``"corrupt"``
    replies with an undecodable blob, and ``"delay"`` sleeps
    ``delay_s`` before computing (heartbeats keep the lease alive).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        slots: Optional[int] = None,
        allow_exit: bool = False,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.slots = int(slots or workers_from_env() or (os.cpu_count() or 1))
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        #: ``True`` for dedicated-process agents: an injected kill may
        #: ``os._exit``.  In-process agents simulate death by refusing
        #: all further connections instead.
        self.allow_exit = allow_exit
        #: set on a local agent: every connection must open with it
        self._token = b""
        self._datasets: dict[str, np.ndarray] = {}
        self._slots_sem = threading.BoundedSemaphore(self.slots)
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> str:
        """``host:port`` once started."""
        return f"{self.host}:{self.port}"

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and accept in a background thread; returns the
        bound ``(host, port)`` (the OS picks the port when 0)."""
        if self._sock is not None:
            return (self.host, self.port)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(16)
        self.host, self.port = sock.getsockname()[:2]
        self._sock = sock
        self._stopped.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"repro-worker-{self.port}", daemon=True
        )
        self._accept_thread.start()
        _log.info(
            "worker agent listening",
            extra={"address": self.address, "slots": self.slots, "pid": os.getpid()},
        )
        return (self.host, self.port)

    def serve_forever(self) -> None:
        """Start and block until :meth:`stop` (the CLI entry point)."""
        self.start()
        self._stopped.wait()

    def stop(self) -> None:
        """Stop accepting and release the listening socket (idempotent).
        The dataset cache is dropped — a restarted agent must be
        re-shipped its datasets, which is exactly the cache-miss path
        the driver recovers from."""
        self._stopped.set()
        sock, self._sock = self._sock, None
        thread, self._accept_thread = self._accept_thread, None
        if sock is not None:
            # shutdown() wakes a thread blocked in accept(); close()
            # alone leaves it holding a kernel reference to the listen
            # socket, so the port would stay bound and a restarted agent
            # on the same address could never come up
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        self._datasets.clear()

    def _die(self) -> None:
        """Enact an injected kill: the whole agent goes away."""
        if self.allow_exit:  # pragma: no cover - exercised in CI agents
            os._exit(1)
        self.stop()

    # -- serving --------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            sock = self._sock
            if sock is None:
                return
            try:
                conn, _addr = sock.accept()
            except OSError:
                return  # listening socket closed by stop()
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                if self._token and not self._authenticated(conn):
                    return
                try:
                    request = recv_msg(conn)
                except ProtocolError as exc:
                    # truncated/garbage frame: drop the connection; the
                    # driver sees a closed socket and treats the chunk
                    # as lost
                    _log.warning(
                        "worker dropped a malformed request",
                        extra={"address": self.address, "reason": str(exc)},
                    )
                    return
                self._handle(conn, request)
        except (OSError, ProtocolError):  # peer went away mid-reply
            pass

    def _authenticated(self, conn: socket.socket) -> bool:
        """Read the connection's first bytes as raw bytes, not as a
        frame, and compare them with the token before anything is
        unpickled."""
        conn.settimeout(_AUTH_TIMEOUT_S)
        try:
            ok = hmac.compare_digest(_recv_exact(conn, len(self._token)), self._token)
        except (OSError, ProtocolError):
            ok = False
        conn.settimeout(None)
        if not ok:
            _log.warning("worker refused a connection without its token",
                         extra={"address": self.address})
        return ok

    def _handle(self, conn: socket.socket, request: dict) -> None:
        op = request.get("op")
        if op == "ping":
            send_msg(conn, {
                "ok": True,
                "pid": os.getpid(),
                "slots": self.slots,
                "python": tuple(sys.version_info[:2]),
                "datasets": sorted(self._datasets),
            })
        elif op == "put_dataset":
            fingerprint = str(request["fingerprint"])
            cached = fingerprint in self._datasets
            if not cached:
                array = np.frombuffer(
                    request["blob"], dtype=np.dtype(request["dtype"])
                ).reshape(tuple(request["shape"]))
                array.setflags(write=False)
                self._datasets[fingerprint] = array
                _log.info(
                    "dataset cached",
                    extra={"address": self.address, "fingerprint": fingerprint,
                           "nbytes": int(array.nbytes)},
                )
            send_msg(conn, {"ok": True, "cached": cached})
        elif op == "run":
            self._handle_run(conn, request)
        elif op == "shutdown":
            # stop accepting first: once the driver reads the reply, a
            # new connection to this address must already fail
            self.stop()
            send_msg(conn, {"ok": True})
        else:
            send_msg(conn, {"ok": False, "fatal": f"unknown op {op!r}"})

    def _handle_run(self, conn: socket.socket, request: dict) -> None:
        inject = request.get("inject")
        if inject == "drop":
            return  # close without a reply: the driver's read fails
        if inject == "kill":
            self._die()
            return

        heartbeat_s = float(request.get("heartbeat_s", 0.2))
        reply: dict = {}
        done = threading.Event()

        def work() -> None:
            try:
                if inject == "delay":
                    time.sleep(float(request.get("delay_s", 0.0)))
                reply.update(self._run_chunk(request))
            finally:
                done.set()

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        beats = 0
        while not done.wait(heartbeat_s):
            beats += 1
            send_msg(conn, {"hb": beats})  # OSError → peer gone → unwind
        if inject == "corrupt":
            send_msg(conn, {"ok": True, "blob": b"\xde\xad\xbe\xef"})
            return
        send_msg(conn, reply)

    def _run_chunk(self, request: dict) -> dict:
        with self._slots_sem:
            try:
                payload = loads_task(request["blob"], self._datasets)
            except _DatasetMiss as miss:
                return {"ok": False, "need_dataset": miss.fingerprint}
            except Exception:
                return {"ok": False, "fatal": traceback.format_exc()}
            t_start = time.perf_counter()
            try:
                if request["mode"] == "machines":
                    fn, machines = payload
                    metric = getattr(machines[0], "metric", None) if machines else None
                    counting = _counting_layers(metric)
                    values = [pack_machine(fn, mach, counting) for mach in machines]
                else:
                    fn, indices = payload
                    values = [fn(i) for i in indices]
                span = _chunk_span(
                    request.get("span", "remote/chunk"), request["worker"],
                    request["batch"], request["attempt"], request["chunk"], t_start,
                    TraceContext.from_traceparent(request.get("traceparent")),
                    request.get("parent_span"),
                )
                blob = pickle.dumps((values, span), protocol=pickle.HIGHEST_PROTOCOL)
            except BaseException:
                return {"ok": False, "fatal": traceback.format_exc()}
            return {"ok": True, "blob": blob}


def _detach_inherited_fds(keep: int) -> None:
    """Point every descriptor a fork inherited (above stderr, except
    ``keep``) at /dev/null: a driver socket left open in an agent would
    keep its port bound and its peer from seeing EOF.  The numbers stay
    taken, so an inherited object closing its descriptor later cannot
    hit one the agent opened."""
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - no procfs
        return
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        if fd > 2 and fd not in (keep, null):
            os.dup2(null, fd)
    os.close(null)


def run_local_agent(report_fd: int, driver: int, token: bytes, dataset) -> None:
    """Body of a local agent forked by
    :class:`~repro.mpc.executor.ProcessExecutor`: serve one task slot on
    an ephemeral 127.0.0.1 port to connections that open with ``token``,
    with ``dataset`` (``(fingerprint, array)`` or ``None``) already
    cached; report the port on ``report_fd``, and return once shut down
    or once ``driver`` is no longer the parent."""
    _detach_inherited_fds(keep=report_fd)
    # the inherited heap stays shared: the collector never touches it
    gc.freeze()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the driver's
    agent = WorkerAgent(slots=1, allow_exit=True)
    agent._token = token
    if dataset is not None:
        agent._datasets[dataset[0]] = dataset[1]
    _host, port = agent.start()
    os.write(report_fd, str(port).encode())
    os.close(report_fd)
    while os.getppid() == driver and not agent._stopped.wait(0.5):
        pass


# -- the driver side ----------------------------------------------------------


class RemoteExecutor(_ChunkedExecutor):
    """Dispatch per-machine work to remote :class:`WorkerAgent`\\ s.

    Parameters
    ----------
    workers:
        Worker addresses — a ``'host:port,host:port'`` string or a list
        of ``'host:port'`` / ``(host, port)`` items.  Defaults to
        :data:`REMOTE_WORKERS_ENV_VAR` (``REPRO_REMOTE_WORKERS``).
    max_workers:
        Optional cap on how many of the addresses are used.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; its remote layer
        (connection drop / worker kill / response corruption / slow
        worker) is decided in the driver — so observers see every
        injection — and enacted by the agents.
    chunk_retries:
        Times a lost chunk is re-dispatched (to a surviving worker)
        before the batch degrades to the local ladder.
    lease_s:
        Lease renewed by each worker heartbeat; a silent worker
        forfeits its chunk after this long.
    chunk_timeout_s:
        Hard per-chunk deadline — heartbeats cannot extend a chunk
        beyond this.
    connect_timeout_s:
        TCP connect timeout; a refused/unreachable worker is marked
        dead immediately.
    backoff_s / max_backoff_s:
        Exponential backoff between re-dispatch waves, with
        deterministic ±25% jitter (seeded by the batch coordinates, so
        chaos runs replay byte-identically).

    The degradation ladder (each rung records its reason in
    :attr:`degradations` and emits a recovery
    :class:`~repro.obs.events.FaultEvent`):

    1. lost chunks re-dispatch to surviving workers (bounded);
    2. a batch the pool cannot finish falls to a local
       :class:`~repro.mpc.executor.ProcessExecutor`;
    3. when fork itself is unavailable, the batch re-runs serially in
       the driver.

    Once every worker is dead the pool loss is permanent:
    :attr:`fallback_reason` is set and later batches go straight to the
    local ladder without re-probing sockets.
    """

    fault_layer = "remote"
    span_name = "remote/chunk"

    def __init__(
        self,
        workers=None,
        *,
        max_workers: Optional[int] = None,
        faults=None,
        chunk_retries: int = 2,
        lease_s: float = 2.0,
        chunk_timeout_s: float = 120.0,
        connect_timeout_s: float = 2.0,
        heartbeat_s: float = 0.2,
        backoff_s: float = 0.02,
        max_backoff_s: float = 0.5,
    ) -> None:
        super().__init__(faults, chunk_retries)
        addrs = parse_worker_addresses(workers) if workers is not None else workers_from_remote_env()
        if max_workers is not None:
            addrs = addrs[: max(1, int(max_workers))]
        self._workers.extend(_AgentState(a) for a in addrs)
        self.lease_s = float(lease_s)
        self.chunk_timeout_s = float(chunk_timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.heartbeat_s = float(heartbeat_s)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        #: permanent degradation off the remote pool (no addresses, or
        #: every worker died); per-batch reasons live in degradations
        self.fallback_reason: Optional[str] = None
        if not self._workers:
            self.fallback_reason = (
                f"no remote workers configured (set {REMOTE_WORKERS_ENV_VAR} "
                "or pass --workers HOST:PORT,...)"
            )
        # remote-specific counters (superset of the ProcessExecutor set)
        self.redispatched_chunks = 0
        self._pinged = False
        self._local: Optional[ProcessExecutor] = None

    # -- lifecycle ------------------------------------------------------------

    def bind(self, cluster) -> None:
        """Adopt a cluster (see :meth:`_ChunkedExecutor.bind`) and probe
        the pool once."""
        super().bind(cluster)
        self._ping_pool()

    def shutdown(self) -> None:
        """Release the local fallback executor (idempotent).  Worker
        agents outlive their drivers by design; use
        :meth:`shutdown_agents` to stop them too."""
        if self._local is not None:
            self._local.shutdown()

    def shutdown_agents(self) -> None:
        """Ask every still-alive agent to exit (best effort)."""
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                with worker.connect(self.connect_timeout_s) as sock:
                    send_msg(sock, {"op": "shutdown"})
                    sock.settimeout(self.connect_timeout_s)
                    recv_msg(sock)
            except (OSError, ProtocolError):
                pass
            worker.mark_dead("shut down by driver")

    # -- observability --------------------------------------------------------

    def _alive(self) -> List[_AgentState]:
        return [w for w in self._workers if w.alive]

    def effective_workers(self, count: int | None = None) -> int:
        """Workers a ``count``-task batch would actually run on: the
        *surviving* pool size, not the configured one — and the local
        ladder's parallelism once the pool is gone."""
        alive = len(self._alive())
        if self.fallback_reason is not None or alive == 0:
            return self._fallback().effective_workers(count)
        return alive if count is None else max(1, min(alive, count))

    def pool_status(self) -> dict:
        """Per-worker liveness for health surfaces (``/healthz``)."""
        return {
            "backend": "remote",
            "configured": len(self._workers),
            "alive": len(self._alive()),
            "fallback_reason": self.fallback_reason,
            "workers": {w.label: w.status() for w in self._workers},
        }

    def _pool_stats(self) -> dict:
        """The remote pool's dispatch/recovery/liveness extras to
        ``recovery_stats()``."""
        return {
            "dispatched_chunks": self.dispatched_chunks,
            "redispatched_chunks": self.redispatched_chunks,
            "duplicate_results": self.duplicate_results,
            "datasets_shipped": self.datasets_shipped,
            "local_fallbacks": self.local_fallbacks,
            "workers_lost": sum(1 for w in self._workers if not w.alive),
            "effective_workers": self.effective_workers(),
            "workers": {w.label: w.status() for w in self._workers},
        }

    def _mark_dead(self, worker: _AgentState, reason: str) -> None:
        if not worker.alive:
            return
        worker.mark_dead(reason)
        self._emit_fault("worker_lost", injected=False,
                         target=worker.label, detail=reason)
        _log.warning(
            "remote worker lost",
            extra={"worker": worker.label, "reason": reason,
                   "alive": len(self._alive())},
        )
        if not self._alive() and self.fallback_reason is None:
            reasons = "; ".join(
                f"{w.label}: {w.reason}" for w in self._workers
            )
            self.fallback_reason = f"remote pool lost ({reasons})"
            self._emit_fault("pool_lost", injected=False, detail=self.fallback_reason)

    # -- local degradation ladder ---------------------------------------------

    def _fallback(self) -> ProcessExecutor:
        if self._local is None:
            self._local = ProcessExecutor(
                faults=self.faults, chunk_retries=self.chunk_retries
            )
            cluster = self._cluster()
            if cluster is not None:
                self._local.bind(cluster)
        return self._local

    # -- dispatch -------------------------------------------------------------

    def _ping_pool(self) -> None:
        """Probe every worker once: liveness + Python version match
        (closures travel as marshalled code, which is version-bound)."""
        if self._pinged:
            return
        self._pinged = True
        expected = tuple(sys.version_info[:2])
        for worker in self._workers:
            try:
                with worker.connect(self.connect_timeout_s) as sock:
                    sock.settimeout(self.lease_s)
                    send_msg(sock, {"op": "ping"})
                    reply = recv_msg(sock)
                remote_py = tuple(reply.get("python", ()))
                if remote_py != expected:
                    self._mark_dead(
                        worker,
                        f"python {'.'.join(map(str, remote_py))} != "
                        f"driver {'.'.join(map(str, expected))}",
                    )
            except (OSError, ProtocolError) as exc:
                self._mark_dead(worker, f"unreachable: {exc}")

    def _retry_delay(self, attempt: int, key) -> float:
        """Exponential backoff with deterministic ±25% jitter."""
        base = min(self.backoff_s * (2 ** attempt), self.max_backoff_s)
        digest = hashlib.blake2b(
            repr((key, attempt)).encode(), digest_size=8
        ).digest()
        jitter = 0.75 + 0.5 * (int.from_bytes(digest, "big") / 2**64)
        return min(base * jitter, self.max_backoff_s)

    def _try_agents(self, mode: str, fn, items: Sequence) -> Optional[list]:
        """Run the retry ladder over the surviving pool, one chunk per
        worker; each wave's dispatches run concurrently.  Returns
        ``None`` when the batch must run on the local ladder instead
        (a failed batch records why)."""
        count = len(items)
        if count <= 1 or self.fallback_reason is not None or not self._alive():
            return None
        self._ping_pool()
        alive = self._alive()
        # per-batch result slots, shared with this batch's reapers
        results: dict = {}
        try:
            if not alive:
                raise _WorkerFailure(self.fallback_reason or "no live remote workers")
            return self._run_ladder((mode, fn, items, results), count, min(len(alive), count))
        except _WorkerFailure as exc:
            usable = self._fallback().fallback_reason is None
            self._record_fallback("local_fallback" if usable else "serial_fallback", str(exc))
            return None

    def _wave_workers(self, pending, attempt: int) -> Optional[List[_AgentState]]:
        # a retried chunk moves to the next survivor
        alive = self._alive()
        if not alive:
            return None
        return [alive[(widx + attempt) % len(alive)] for widx, _chunk in pending]

    def _planned_fault(self, batch_no: int, widx: int, attempt: int):
        plan = self.faults
        return plan.remote_fault(batch_no, widx, attempt), plan.remote_delay_s

    def _note_retry(self, retryable, reasons, batch_no: int, attempt: int) -> None:
        self.redispatched_chunks += len(retryable)
        for (widx, chunk), reason in zip(retryable, reasons):
            self._emit_fault(
                "chunk_redispatch", injected=False,
                target=f"chunk {widx} {chunk[:3]}",
                attempt=attempt, detail=reason,
            )
            _log.warning(
                "remote chunk lost; re-dispatching to survivors",
                extra={"chunk": widx, "batch": batch_no,
                       "attempt": attempt, "reason": reason},
            )
        time.sleep(self._retry_delay(attempt, (batch_no, "redispatch")))
