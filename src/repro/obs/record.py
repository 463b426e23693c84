"""The built-in collecting observer and its run log.

:class:`Recorder` subscribes to every hook and accumulates a
:class:`RunLog` — the in-memory trace a run leaves behind.  The log is
what the exporters (:mod:`repro.obs.export`) consume and what the
per-phase report aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.events import (
    ExecSpanRecord,
    FaultEvent,
    MessageEvent,
    RoundRecord,
    SpanRecord,
)
from repro.obs.observer import Observer


@dataclass
class RunLog:
    """Everything one recorded execution emitted."""

    meta: Dict = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    rounds: List[RoundRecord] = field(default_factory=list)
    messages: List[MessageEvent] = field(default_factory=list)
    faults: List[FaultEvent] = field(default_factory=list)
    #: chunk spans merged back from executor worker agents — kept
    #: separate from :attr:`spans` so the algorithm-phase span set is
    #: identical across serial and process backends
    exec_spans: List[ExecSpanRecord] = field(default_factory=list)

    # -- aggregation -------------------------------------------------------------

    def phase_summary(self) -> List[dict]:
        """Inclusive per-phase totals, one row per span name.

        Rows are ordered by first occurrence.  Totals are *inclusive* —
        a parent span's row counts everything its children did, exactly
        like the flame views of any tracing UI.
        """
        order: List[str] = []
        acc: Dict[str, dict] = {}
        for s in sorted(self.spans, key=lambda s: (s.start_time, s.uid)):
            row = acc.get(s.name)
            if row is None:
                order.append(s.name)
                row = acc[s.name] = {
                    "phase": s.name,
                    "count": 0,
                    "rounds": 0,
                    "words": 0,
                    "messages": 0,
                    "oracle_calls": 0,
                    "oracle_evaluations": 0,
                    "wall_s": 0.0,
                    "depth": s.depth,
                }
            row["count"] += 1
            row["rounds"] += s.rounds
            row["words"] += s.words
            row["messages"] += s.messages
            row["oracle_calls"] += s.oracle_calls
            row["oracle_evaluations"] += s.oracle_evaluations
            row["wall_s"] += s.duration_s
            row["depth"] = min(row["depth"], s.depth)
        return [acc[name] for name in order]

    def root_totals(self) -> dict:
        """Summed deltas over depth-0 spans only.

        Because depth-0 spans are disjoint in time, these totals
        reconcile exactly with the cluster's own
        :meth:`~repro.mpc.accounting.ClusterStats.summary` for a run
        whose every round happened inside some root span.
        """
        roots = [s for s in self.spans if s.depth == 0]
        return {
            "rounds": sum(s.rounds for s in roots),
            "words": sum(s.words for s in roots),
            "messages": sum(s.messages for s in roots),
            "oracle_calls": sum(s.oracle_calls for s in roots),
            "oracle_evaluations": sum(s.oracle_evaluations for s in roots),
            "wall_s": sum(s.duration_s for s in roots),
        }

    def round_coverage(self) -> float:
        """Fraction of observed rounds covered by at least one span.

        The acceptance bar for the instrumentation layer: a fully
        instrumented algorithm keeps this at 1.0.  Returns 1.0 for a
        log with no rounds.
        """
        if not self.rounds:
            return 1.0
        covered = 0
        for r in self.rounds:
            if any(s.covers_round(r.round_no) for s in self.spans):
                covered += 1
        return covered / len(self.rounds)

    def fault_summary(self) -> dict:
        """Injected-vs-recovered counts, grouped by ``layer/kind``.

        The chaos suite's acceptance view: a run that survived its
        fault plan shows every injection kind matched by recovery
        actions, and ``{"injected": 0, "recovered": 0}`` means the run
        was undisturbed.
        """
        by_kind: Dict[str, int] = {}
        injected = recovered = 0
        for ev in self.faults:
            by_kind[f"{ev.layer}/{ev.kind}"] = by_kind.get(f"{ev.layer}/{ev.kind}", 0) + 1
            if ev.injected:
                injected += 1
            else:
                recovered += 1
        return {"injected": injected, "recovered": recovered, "by_kind": by_kind}

    def span_tree(self) -> List[tuple]:
        """``(depth, span)`` pairs in start order, for indented rendering."""
        return [
            (s.depth, s)
            for s in sorted(self.spans, key=lambda s: (s.start_time, s.uid))
        ]


class Recorder(Observer):
    """Observer that collects every event into a :class:`RunLog`.

    Usage::

        rec = Recorder.attach(cluster)     # or cluster.obs.add(Recorder())
        mpc_kcenter(cluster, k=8)
        rec.log.phase_summary()
    """

    def __init__(self, capture_messages: bool = True) -> None:
        self.log = RunLog()
        self.capture_messages = capture_messages
        # keep the hub's per-message fast path active when this
        # recorder would drop the events anyway
        self.wants_messages = capture_messages

    @classmethod
    def attach(cls, cluster, capture_messages: bool = True) -> "Recorder":
        """Create a recorder, register it on ``cluster.obs``, and stamp
        the log's metadata with the cluster's shape."""
        rec = cls(capture_messages=capture_messages)
        rec.log.meta = {
            "n": cluster.n,
            "machines": cluster.m,
            "seed": cluster.seed,
            "metric": type(cluster.metric).__name__,
        }
        ctx = cluster.obs.trace
        if ctx is not None:
            rec.log.meta["trace_id"] = ctx.trace_id
        cluster.obs.add(rec)
        return rec

    # -- hooks -------------------------------------------------------------------

    def on_message(self, event: MessageEvent) -> None:
        if self.capture_messages:
            self.log.messages.append(event)

    def on_round_end(self, record: RoundRecord) -> None:
        self.log.rounds.append(record)

    def on_span_end(self, span: SpanRecord) -> None:
        self.log.spans.append(span)

    def on_fault(self, event: FaultEvent) -> None:
        self.log.faults.append(event)

    def on_exec_span(self, record: ExecSpanRecord) -> None:
        self.log.exec_spans.append(record)
