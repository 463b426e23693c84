"""Structured event records emitted by the instrumentation layer.

Four record types cover the granularities the paper's theorems (and a
production deployment's failure modes) speak about:

* :class:`MessageEvent` — one delivered message (*where the words go*);
* :class:`RoundRecord` — one ``step()`` barrier (*where the rounds go*);
* :class:`SpanRecord` — one named algorithm phase, with counter
  snapshots taken at entry and exit so every round, word, message,
  wall-clock second, and distance-oracle call is attributable to a
  paper-level phase;
* :class:`FaultEvent` — one injected fault or one recovery action
  (*what went wrong and what fixed it*; see :mod:`repro.faults`);
* :class:`ExecSpanRecord` — one executor chunk executed on a local or
  remote worker agent, timed inside the worker
  and shipped back with its results (*where the worker-level
  parallelism goes*).

All records are plain dataclasses with a ``to_dict`` for serialization;
they carry no references back into the simulator, so a recorded run log
stays valid after the cluster is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class MessageEvent:
    """One delivered message (recorded at the round barrier)."""

    round_no: int
    src: int
    dst: int
    tag: str
    words: int

    def to_dict(self) -> dict:
        return {
            "round_no": self.round_no,
            "src": self.src,
            "dst": self.dst,
            "tag": self.tag,
            "words": self.words,
        }


@dataclass
class RoundRecord:
    """One completed ``step()``: totals plus the wall-clock interval."""

    round_no: int
    start_time: float
    end_time: float
    #: total words delivered this round (counted once, at senders)
    words: int
    messages: int
    #: worst sent+received load on any single machine this round
    max_load: int

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time

    def to_dict(self) -> dict:
        return {
            "round_no": self.round_no,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "words": self.words,
            "messages": self.messages,
            "max_load": self.max_load,
        }


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, or one recovery action taken for a fault.

    ``injected=True`` records a fault going in (a worker kill, a
    transient machine fault, a synthetic 429); ``injected=False``
    records the system reacting (a chunk retry, a serial fallback, a
    machine-task retry succeeding, a job retry).  A healthy chaos run
    pairs every injection with a recovery; an exhausted one ends with
    an unpaired injection and a propagated error.
    """

    #: which layer: "executor", "machine", "remote", or "service"
    layer: str
    #: e.g. "worker_kill", "payload_corrupt", "machine_fault",
    #: "chunk_retry", "serial_fallback", "machine_retry", "job_retry"
    kind: str
    #: True = fault injection, False = recovery action
    injected: bool
    #: MPC round the fault belongs to (-1 when not round-scoped)
    round_no: int = -1
    #: what was hit / recovered: "machine 3", "chunk [1, 5]", a job id…
    target: str = ""
    #: retry attempt number, where meaningful
    attempt: int = 0
    #: free-form context (failure reason, backoff delay, …)
    detail: str = ""
    #: wall-clock stamp (``time.perf_counter`` domain, matching spans)
    time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "kind": self.kind,
            "injected": self.injected,
            "round_no": self.round_no,
            "target": self.target,
            "attempt": self.attempt,
            "detail": self.detail,
            "time": self.time,
        }


@dataclass
class SpanRecord:
    """One named algorithm phase with entry/exit counter snapshots.

    ``start_*``/``end_*`` pairs are cumulative cluster counters captured
    when the span opens and closes; the deltas (exposed as properties)
    are the phase's own inclusive cost — nested child spans are counted
    inside their parents, as in any tracing system.
    """

    name: str
    uid: int
    parent_uid: Optional[int]
    depth: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    #: distributed-trace identity (W3C shape; see :mod:`repro.obs.tracing`)
    #: — ``None`` when the run had no trace context installed
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    start_time: float = 0.0
    end_time: float = 0.0
    start_round: int = 0
    end_round: int = 0
    start_words: int = 0
    end_words: int = 0
    start_messages: int = 0
    end_messages: int = 0
    start_oracle_calls: int = 0
    end_oracle_calls: int = 0
    start_oracle_evaluations: int = 0
    end_oracle_evaluations: int = 0

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time

    @property
    def rounds(self) -> int:
        """MPC rounds executed while the span was open."""
        return self.end_round - self.start_round

    @property
    def words(self) -> int:
        """Words delivered while the span was open."""
        return self.end_words - self.start_words

    @property
    def messages(self) -> int:
        return self.end_messages - self.start_messages

    @property
    def oracle_calls(self) -> int:
        """Distance-oracle kernel calls (0 unless the cluster's metric
        is a :class:`~repro.metric.oracle.CountingOracle`)."""
        return self.end_oracle_calls - self.start_oracle_calls

    @property
    def oracle_evaluations(self) -> int:
        return self.end_oracle_evaluations - self.start_oracle_evaluations

    def covers_round(self, round_no: int) -> bool:
        """True iff round ``round_no`` completed while this span was open."""
        return self.start_round < round_no <= self.end_round

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "uid": self.uid,
            "parent_uid": self.parent_uid,
            "depth": self.depth,
            "attrs": dict(self.attrs),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "start_round": self.start_round,
            "end_round": self.end_round,
            "start_words": self.start_words,
            "end_words": self.end_words,
            "start_messages": self.start_messages,
            "end_messages": self.end_messages,
            "start_oracle_calls": self.start_oracle_calls,
            "end_oracle_calls": self.end_oracle_calls,
            "start_oracle_evaluations": self.start_oracle_evaluations,
            "end_oracle_evaluations": self.end_oracle_evaluations,
            "rounds": self.rounds,
            "words": self.words,
            "messages": self.messages,
            "oracle_calls": self.oracle_calls,
            "oracle_evaluations": self.oracle_evaluations,
            "duration_s": self.duration_s,
        }


@dataclass
class ExecSpanRecord:
    """One executor chunk, timed inside the worker that computed it.

    The driver derives the chunk's trace context *before* dispatching
    and sends it as a ``traceparent`` header in the request frame; the
    worker agent — forked by the process backend, or remote (then
    ``name`` is ``"remote/chunk"``) — stamps ``start_time``/``end_time``
    and ships the record back with its results.  Merged into
    :attr:`~repro.obs.record.RunLog.exec_spans`, these are the
    "child spans under distinct pids" of the Chrome export — kept apart
    from the algorithm-phase :class:`SpanRecord` list so serial,
    process, and remote runs produce identical *phase* span sets.
    Local agents share the driver's ``time.perf_counter`` domain;
    remote agents do not, so their stamps order events only within one
    agent.
    """

    #: span name, e.g. ``"exec/chunk"`` or ``"remote/chunk"``
    name: str
    #: worker slot within the batch (also the synthetic Chrome pid - 1)
    worker: int
    #: executor batch number (monotonic per executor)
    batch: int
    #: chunk-retry attempt this execution belonged to (0 = first try)
    attempt: int
    #: number of tasks in the chunk
    chunk_size: int
    #: first task index of the strided chunk (-1 when unknown)
    first_index: int = -1
    #: the agent's OS pid (diagnostic only — not deterministic)
    os_pid: int = 0
    start_time: float = 0.0
    end_time: float = 0.0
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "worker": self.worker,
            "batch": self.batch,
            "attempt": self.attempt,
            "chunk_size": self.chunk_size,
            "first_index": self.first_index,
            "os_pid": self.os_pid,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "duration_s": self.duration_s,
        }
