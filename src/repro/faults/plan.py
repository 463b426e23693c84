"""Deterministic, seeded fault plans.

A :class:`FaultPlan` decides — as a *pure function* of its seed and the
fault coordinates — which faults fire where.  Purity is the load-bearing
property: the same plan object (or a reconstruction from its
:meth:`to_dict`) gives the same answers in the driver, in a worker
agent, and in a re-run, so

* the driver can emit an observability event for a fault that will
  actually be injected inside a worker process it never hears from
  again;
* a retry can ask "does the fault persist on attempt 2?" and get an
  answer that does not depend on wall clock, PID, or scheduling;
* a chaos test can assert the exact set of injected faults for a seed.

Rolls are computed by hashing ``(seed, layer, *coordinates)`` with
BLAKE2b and mapping the digest to ``[0, 1)`` — stable across processes
and interpreter runs (unlike ``hash()``, which is salted).

Four layers of fault coordinates:

executor
    ``(batch_no, worker_index)`` — one local agent's chunk.  Actions:
    ``kill`` (``os._exit`` before reporting), ``corrupt`` (garbage
    payload), ``delay`` (sleep, then proceed normally).  A fault keeps
    firing for the first :attr:`worker_fault_attempts` executions of
    its chunk, then clears — so the executor's bounded chunk retry
    recovers unless the plan is configured to out-persist it.
remote
    ``(batch_no, chunk_slot)`` — one chunk dispatched to a remote
    worker agent (see :mod:`repro.mpc.remote`).  Actions: ``drop``
    (the connection closes with no reply), ``kill`` (the agent dies —
    permanently, like a SIGKILL), ``corrupt`` (undecodable response
    payload), ``delay`` (the agent sleeps :attr:`remote_delay_s`
    before computing; heartbeats keep its lease alive).  Faults are
    decided in the driver (observers see every injection) and enacted
    by the agent; like the executor layer, a fault persists for the
    first :attr:`remote_fault_attempts` executions of its chunk.
machine
    ``(round_no, dispatch_no, machine_id)`` — one per-machine task in
    a ``map_machines`` dispatch.  The fault is a transient
    :class:`~repro.exceptions.MachineFault` raised *at task entry*,
    before the machine touches its RNG stream or the distance oracle —
    which is what makes retried runs bit-identical to undisturbed ones.
machine_fault_attempts
    consecutive attempts the machine fault persists for; set it above
    :data:`MACHINE_FAULT_RETRIES` to simulate a machine that never
    comes back.
service
    ``(request_no)`` — one HTTP request.  Actions: a synthetic ``429``
    or ``503`` response (with ``Retry-After``) or a dropped connection.
    :attr:`error_burst` additionally fails the first N requests
    unconditionally — the "429 storm" used by the chaos CI job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Optional, Tuple, Union

#: how many times the cluster retries a task hit by a MachineFault
#: before letting the fault propagate (see MPCCluster.map_machines)
MACHINE_FAULT_RETRIES = 3


def _validate_rate(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
    return value


@dataclass
class FaultPlan:
    """Seeded description of which faults to inject, where.

    All rates are probabilities in ``[0, 1]``; a layer with every rate
    at 0 injects nothing and costs nothing.  Plans serialize to JSON
    (:meth:`to_dict` / :meth:`from_dict`) so bench and chaos artifacts
    can record exactly what was injected, and parse from compact
    ``key=value,key=value`` CLI specs (:meth:`from_spec`).
    """

    seed: int = 0

    # -- executor layer (the process backend's local agents) --
    #: probability a chunk worker is killed before reporting
    worker_kill: float = 0.0
    #: probability a chunk worker ships an undecodable payload
    worker_corrupt: float = 0.0
    #: probability a chunk worker is delayed (straggler) before working
    worker_delay: float = 0.0
    #: straggler sleep, seconds
    worker_delay_s: float = 0.02
    #: executions of a chunk the fault persists for (1 = first try only)
    worker_fault_attempts: int = 1

    # -- remote layer (chunks dispatched to remote worker agents) --
    #: probability a dispatched chunk's connection is dropped, no reply
    remote_drop: float = 0.0
    #: probability the receiving agent dies (permanently, like SIGKILL)
    remote_kill: float = 0.0
    #: probability the agent replies with an undecodable payload
    remote_corrupt: float = 0.0
    #: probability the agent stalls before computing (slow worker)
    remote_delay: float = 0.0
    #: slow-worker stall, seconds (heartbeats keep the lease alive)
    remote_delay_s: float = 0.02
    #: executions of a chunk the remote fault persists for
    remote_fault_attempts: int = 1

    # -- machine layer (map_machines tasks) --
    #: probability a (dispatch, machine) task raises a MachineFault
    machine_fault: float = 0.0
    #: consecutive attempts the machine fault persists for
    machine_fault_attempts: int = 1

    # -- service layer (HTTP requests) --
    #: probability a request gets a synthetic 429/503 response
    service_error: float = 0.0
    #: probability a request's connection is dropped with no response
    service_drop: float = 0.0
    #: unconditionally fail the first N requests with 429 (the "storm")
    error_burst: int = 0
    #: Retry-After value attached to synthetic 429/503 responses
    retry_after_s: float = 0.05

    def __post_init__(self) -> None:
        self.seed = int(self.seed)
        for name in ("worker_kill", "worker_corrupt", "worker_delay",
                     "remote_drop", "remote_kill", "remote_corrupt", "remote_delay",
                     "machine_fault", "service_error", "service_drop"):
            setattr(self, name, _validate_rate(name, getattr(self, name)))
        if self.worker_kill + self.worker_corrupt + self.worker_delay > 1.0:
            raise ValueError("worker_kill + worker_corrupt + worker_delay must be <= 1")
        if self.remote_drop + self.remote_kill + self.remote_corrupt + self.remote_delay > 1.0:
            raise ValueError(
                "remote_drop + remote_kill + remote_corrupt + remote_delay must be <= 1"
            )
        if self.service_error + self.service_drop > 1.0:
            raise ValueError("service_error + service_drop must be <= 1")
        self.worker_delay_s = float(self.worker_delay_s)
        self.remote_delay_s = float(self.remote_delay_s)
        self.retry_after_s = float(self.retry_after_s)
        if self.worker_delay_s < 0 or self.remote_delay_s < 0 or self.retry_after_s < 0:
            raise ValueError("delay/retry-after durations must be >= 0")
        self.worker_fault_attempts = int(self.worker_fault_attempts)
        self.remote_fault_attempts = int(self.remote_fault_attempts)
        self.machine_fault_attempts = int(self.machine_fault_attempts)
        if (self.worker_fault_attempts < 1 or self.remote_fault_attempts < 1
                or self.machine_fault_attempts < 1):
            raise ValueError("fault_attempts values must be >= 1")
        self.error_burst = int(self.error_burst)
        if self.error_burst < 0:
            raise ValueError(f"error_burst must be >= 0, got {self.error_burst}")

    # -- activity flags ------------------------------------------------------

    @property
    def worker_active(self) -> bool:
        """True when the executor layer can inject anything."""
        return (self.worker_kill + self.worker_corrupt + self.worker_delay) > 0

    @property
    def remote_active(self) -> bool:
        """True when remote chunk dispatches can be faulted."""
        return (self.remote_drop + self.remote_kill
                + self.remote_corrupt + self.remote_delay) > 0

    @property
    def machine_active(self) -> bool:
        """True when map_machines tasks can be faulted."""
        return self.machine_fault > 0

    @property
    def service_active(self) -> bool:
        """True when HTTP requests can be faulted."""
        return (self.service_error + self.service_drop) > 0 or self.error_burst > 0

    # -- the deterministic roll ---------------------------------------------

    def _roll(self, *key) -> float:
        """Uniform [0, 1) draw, a pure function of ``(seed, *key)``."""
        digest = hashlib.blake2b(
            repr((self.seed,) + key).encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    # -- layer predicates ----------------------------------------------------

    def worker_fault(
        self, batch_no: int, worker_index: int, attempt: int = 0
    ) -> Optional[str]:
        """Fault for one chunk-worker execution, or ``None``.

        Returns ``'kill'``, ``'corrupt'``, or ``'delay'``.  The roll is
        keyed by ``(batch, worker)`` — not the attempt — so a faulted
        chunk keeps drawing the *same* fault until ``attempt`` reaches
        :attr:`worker_fault_attempts`, at which point it clears and the
        retry succeeds.
        """
        if attempt >= self.worker_fault_attempts or not self.worker_active:
            return None
        r = self._roll("worker", int(batch_no), int(worker_index))
        if r < self.worker_kill:
            return "kill"
        if r < self.worker_kill + self.worker_corrupt:
            return "corrupt"
        if r < self.worker_kill + self.worker_corrupt + self.worker_delay:
            return "delay"
        return None

    def remote_fault(
        self, batch_no: int, chunk_slot: int, attempt: int = 0
    ) -> Optional[str]:
        """Fault for one remote chunk dispatch, or ``None``.

        Returns ``'drop'``, ``'kill'``, ``'corrupt'``, or ``'delay'``.
        Like :meth:`worker_fault`, the roll is keyed by ``(batch,
        chunk_slot)`` — not the attempt — so a faulted chunk keeps
        drawing the *same* fault until ``attempt`` reaches
        :attr:`remote_fault_attempts`, at which point it clears and the
        re-dispatch succeeds (on a surviving worker, if the fault was a
        kill).
        """
        if attempt >= self.remote_fault_attempts or not self.remote_active:
            return None
        r = self._roll("remote", int(batch_no), int(chunk_slot))
        if r < self.remote_drop:
            return "drop"
        if r < self.remote_drop + self.remote_kill:
            return "kill"
        if r < self.remote_drop + self.remote_kill + self.remote_corrupt:
            return "corrupt"
        if (r < self.remote_drop + self.remote_kill
                + self.remote_corrupt + self.remote_delay):
            return "delay"
        return None

    def machine_faults(
        self, round_no: int, dispatch_no: int, machine_id: int
    ) -> int:
        """Consecutive faulted attempts for one map_machines task.

        Returns 0 (no fault) or :attr:`machine_fault_attempts`: one
        roll per ``(round, dispatch, machine)`` decides whether the
        task is faulty, and the attempts knob decides how long the
        fault persists under retry.
        """
        if not self.machine_active:
            return 0
        r = self._roll("machine", int(round_no), int(dispatch_no), int(machine_id))
        return self.machine_fault_attempts if r < self.machine_fault else 0

    def service_fault(self, request_no: int) -> Optional[Tuple[str, int]]:
        """Fault for one HTTP request, or ``None``.

        Returns ``('error', status)`` for a synthetic ``429``/``503``
        (alternating, so both client paths get exercised) or
        ``('drop', 0)`` for a dropped connection.  The first
        :attr:`error_burst` requests always get ``('error', 429)``.
        """
        request_no = int(request_no)
        if request_no < self.error_burst:
            return ("error", 429)
        if not (self.service_error + self.service_drop) > 0:
            return None
        r = self._roll("service", request_no)
        if r < self.service_error:
            status = 429 if self._roll("service-status", request_no) < 0.5 else 503
            return ("error", status)
        if r < self.service_error + self.service_drop:
            return ("drop", 0)
        return None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form; round-trips through :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Build from :meth:`to_dict` output, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown fault plan field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_spec(cls, spec: Union[str, dict, "FaultPlan", None]) -> Optional["FaultPlan"]:
        """Coerce a CLI/config spec into a plan (``None`` passes through).

        Accepts a plan instance, a dict, a JSON object string, or the
        compact ``key=value,key=value`` form::

            seed=7,worker_kill=1.0,machine_fault=0.2,error_burst=8
        """
        if spec is None or isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        text = str(spec).strip()
        if not text:
            return None
        if text.startswith("{"):
            return cls.from_dict(json.loads(text))
        payload = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"bad fault spec item {item!r}; expected key=value "
                    "(e.g. 'seed=7,worker_kill=1.0')"
                )
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                parsed = int(value)
            except ValueError:
                try:
                    parsed = float(value)
                except ValueError:
                    raise ValueError(
                        f"fault spec value for {key!r} must be numeric, got {value!r}"
                    ) from None
            payload[key] = parsed
        return cls.from_dict(payload)

    def describe(self) -> str:
        """One-line human summary of the active layers."""
        parts = [f"seed={self.seed}"]
        if self.worker_active:
            parts.append(
                f"worker(kill={self.worker_kill}, corrupt={self.worker_corrupt}, "
                f"delay={self.worker_delay}, attempts={self.worker_fault_attempts})"
            )
        if self.remote_active:
            parts.append(
                f"remote(drop={self.remote_drop}, kill={self.remote_kill}, "
                f"corrupt={self.remote_corrupt}, delay={self.remote_delay}, "
                f"attempts={self.remote_fault_attempts})"
            )
        if self.machine_active:
            parts.append(
                f"machine(rate={self.machine_fault}, "
                f"attempts={self.machine_fault_attempts})"
            )
        if self.service_active:
            parts.append(
                f"service(error={self.service_error}, drop={self.service_drop}, "
                f"burst={self.error_burst})"
            )
        if len(parts) == 1:
            parts.append("no active layers")
        return "FaultPlan(" + ", ".join(parts) + ")"
