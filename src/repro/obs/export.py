"""Trace exporters: JSONL, Chrome trace-event JSON, ASCII phase report.

Three sinks for a recorded :class:`~repro.obs.record.RunLog`:

* :func:`write_jsonl` / :func:`read_jsonl` — one JSON object per line
  (``meta``, then every span/round/message tagged with a ``type``
  field); machine-readable, append-friendly, and round-trippable;
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (JSON Array Format with ``traceEvents``), loadable
  in ``chrome://tracing`` and https://ui.perfetto.dev: spans render as
  nested "X" slices on one track, rounds as slices on a second track,
  and per-round word counts as a counter series;
* :func:`phase_report` — the per-phase ASCII table the CLI prints for
  ``--report phases``.

Timestamps in the Chrome export are microseconds relative to the first
recorded event, as the format expects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.events import (
    ExecSpanRecord,
    FaultEvent,
    MessageEvent,
    RoundRecord,
    SpanRecord,
)
from repro.obs.record import RunLog

PathLike = Union[str, Path]


# -- JSONL -----------------------------------------------------------------------

def write_jsonl(log: RunLog, path: PathLike) -> Path:
    """Write the run log as JSON Lines; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"type": "meta", **log.meta}) + "\n")
        for s in log.spans:
            fh.write(json.dumps({"type": "span", **s.to_dict()}) + "\n")
        for r in log.rounds:
            fh.write(json.dumps({"type": "round", **r.to_dict()}) + "\n")
        for m in log.messages:
            fh.write(json.dumps({"type": "message", **m.to_dict()}) + "\n")
        for f in log.faults:
            fh.write(json.dumps({"type": "fault", **f.to_dict()}) + "\n")
        for e in log.exec_spans:
            fh.write(json.dumps({"type": "exec_span", **e.to_dict()}) + "\n")
    return path


def read_jsonl(path: PathLike) -> RunLog:
    """Parse a file written by :func:`write_jsonl` back into a RunLog."""
    log = RunLog()
    span_fields = {
        "name", "uid", "parent_uid", "depth", "attrs",
        "trace_id", "span_id", "parent_span_id",
        "start_time", "end_time", "start_round", "end_round",
        "start_words", "end_words", "start_messages", "end_messages",
        "start_oracle_calls", "end_oracle_calls",
        "start_oracle_evaluations", "end_oracle_evaluations",
    }
    round_fields = {"round_no", "start_time", "end_time", "words", "messages", "max_load"}
    message_fields = {"round_no", "src", "dst", "tag", "words"}
    fault_fields = {"layer", "kind", "injected", "round_no", "target", "attempt",
                    "detail", "time"}
    exec_fields = {"name", "worker", "batch", "attempt", "chunk_size", "first_index",
                   "os_pid", "start_time", "end_time",
                   "trace_id", "span_id", "parent_span_id"}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        kind = obj.pop("type", None)
        if kind == "meta":
            log.meta = obj
        elif kind == "span":
            log.spans.append(
                SpanRecord(**{k: v for k, v in obj.items() if k in span_fields})
            )
        elif kind == "round":
            log.rounds.append(
                RoundRecord(**{k: v for k, v in obj.items() if k in round_fields})
            )
        elif kind == "message":
            log.messages.append(
                MessageEvent(**{k: v for k, v in obj.items() if k in message_fields})
            )
        elif kind == "fault":
            log.faults.append(
                FaultEvent(**{k: v for k, v in obj.items() if k in fault_fields})
            )
        elif kind == "exec_span":
            log.exec_spans.append(
                ExecSpanRecord(**{k: v for k, v in obj.items() if k in exec_fields})
            )
    return log


# -- Chrome trace-event format ----------------------------------------------------

#: synthetic thread ids of the tracks in the Chrome export
SPAN_TID = 0
ROUND_TID = 1
FAULT_TID = 2


def to_chrome_trace(log: RunLog) -> Dict:
    """Build a Chrome trace-event document (JSON Object Format).

    Driver-side tracks (phases, rounds, faults) render under pid 0;
    executor chunk spans merged from worker agents render under
    synthetic pid ``1 + worker`` so Perfetto shows one process lane per
    worker slot (the real OS pid — which is not deterministic — stays
    in the event args).
    """
    starts = [s.start_time for s in log.spans] + [r.start_time for r in log.rounds]
    starts += [f.time for f in log.faults if f.time > 0.0]
    starts += [e.start_time for e in log.exec_spans]
    t0 = min(starts) if starts else 0.0

    def us(t: float) -> float:
        return round((t - t0) * 1e6, 3)

    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "repro MPC simulator"}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": SPAN_TID,
         "args": {"name": "algorithm phases"}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": ROUND_TID,
         "args": {"name": "MPC rounds"}},
    ]
    if log.faults:
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": FAULT_TID,
             "args": {"name": "faults & recovery"}}
        )
        for f in log.faults:
            events.append(
                {
                    "name": f"{'⚡' if f.injected else '✓'} {f.kind}",
                    "cat": "fault",
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": FAULT_TID,
                    "ts": us(f.time) if f.time > 0.0 else 0.0,
                    "args": f.to_dict(),
                }
            )
    for s in sorted(log.spans, key=lambda s: (s.start_time, s.uid)):
        args = {
            "rounds": s.rounds,
            "words": s.words,
            "messages": s.messages,
            "oracle_calls": s.oracle_calls,
            "oracle_evaluations": s.oracle_evaluations,
            "start_round": s.start_round,
            "end_round": s.end_round,
            **s.attrs,
        }
        if s.trace_id is not None:
            args["trace_id"] = s.trace_id
            args["span_id"] = s.span_id
            args["parent_span_id"] = s.parent_span_id
        events.append(
            {
                "name": s.name,
                "cat": "span",
                "ph": "X",
                "pid": 0,
                "tid": SPAN_TID,
                "ts": us(s.start_time),
                "dur": max(round(s.duration_s * 1e6, 3), 0.001),
                "args": args,
            }
        )
    for pid in sorted({1 + e.worker for e in log.exec_spans}):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"executor worker {pid - 1}"}}
        )
    for e in sorted(log.exec_spans,
                    key=lambda e: (e.batch, e.attempt, e.worker)):
        events.append(
            {
                "name": e.name,
                "cat": "exec",
                "ph": "X",
                "pid": 1 + e.worker,
                "tid": 0,
                "ts": us(e.start_time),
                "dur": max(round(e.duration_s * 1e6, 3), 0.001),
                "args": e.to_dict(),
            }
        )
    for r in log.rounds:
        events.append(
            {
                "name": f"round {r.round_no}",
                "cat": "round",
                "ph": "X",
                "pid": 0,
                "tid": ROUND_TID,
                "ts": us(r.start_time),
                "dur": max(round(r.duration_s * 1e6, 3), 0.001),
                "args": {
                    "words": r.words,
                    "messages": r.messages,
                    "max_load": r.max_load,
                },
            }
        )
        events.append(
            {
                "name": "delivered words",
                "cat": "round",
                "ph": "C",
                "pid": 0,
                "ts": us(r.end_time),
                "args": {"words": r.words},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(log.meta),
    }


def write_chrome_trace(log: RunLog, path: PathLike) -> Path:
    """Write :func:`to_chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(log), indent=1) + "\n")
    return path


# -- ASCII report -----------------------------------------------------------------

def phase_report(log: RunLog, title: str = "per-phase breakdown") -> str:
    """Render the per-phase totals as an ASCII table.

    Phase names are indented by their minimum nesting depth so the tree
    structure survives in plain text.
    """
    from repro.analysis.reports import format_table  # lazy: avoids an import cycle

    rows = []
    for row in log.phase_summary():
        rows.append(
            {
                "phase": "  " * row["depth"] + row["phase"],
                "count": row["count"],
                "rounds": row["rounds"],
                "words": row["words"],
                "messages": row["messages"],
                "oracle calls": row["oracle_calls"],
                "oracle evals": row["oracle_evaluations"],
                "wall ms": row["wall_s"] * 1e3,
            }
        )
    table = format_table(rows, title=title)
    cov = log.round_coverage()
    return f"{table}\nspan coverage: {cov:.1%} of {len(log.rounds)} observed rounds"


def export_run(log: RunLog, path: PathLike, fmt: str = "chrome") -> Path:
    """Dispatch on ``fmt`` (``'chrome'`` or ``'jsonl'``)."""
    if fmt == "chrome":
        return write_chrome_trace(log, path)
    if fmt == "jsonl":
        return write_jsonl(log, path)
    raise ValueError(f"unknown trace format {fmt!r} (expected 'chrome' or 'jsonl')")


def trace_payload(log: RunLog, fmt: str = "chrome",
                  annotations: Optional[List[dict]] = None) -> tuple[str, str]:
    """Serialize a run log for wire transfer: ``(content_type, body)``.

    The in-memory counterpart of :func:`export_run`, used by the job
    service to serve ``GET /jobs/<id>/trace`` without touching disk.
    Bodies round-trip through the corresponding readers (the ``jsonl``
    form via :func:`read_jsonl`).

    ``annotations`` lets the caller attach service-level trace events
    the run log itself cannot know about — e.g. "this response was a
    cache hit" — as ``{"name": ..., "args": {...}}`` dicts: instant
    events on the fault track in the Chrome form, ``annotation`` lines
    in the JSONL form.
    """
    if fmt == "chrome":
        doc = to_chrome_trace(log)
        for ann in annotations or []:
            doc["traceEvents"].append(
                {
                    "name": ann["name"],
                    "cat": "annotation",
                    "ph": "i",
                    "s": "g",
                    "pid": 0,
                    "tid": FAULT_TID,
                    "ts": 0.0,
                    "args": dict(ann.get("args", {})),
                }
            )
        return "application/json", json.dumps(doc) + "\n"
    if fmt == "jsonl":
        lines = [json.dumps({"type": "meta", **log.meta})]
        lines += [json.dumps({"type": "span", **s.to_dict()}) for s in log.spans]
        lines += [json.dumps({"type": "round", **r.to_dict()}) for r in log.rounds]
        lines += [json.dumps({"type": "message", **m.to_dict()}) for m in log.messages]
        lines += [json.dumps({"type": "fault", **f.to_dict()}) for f in log.faults]
        lines += [json.dumps({"type": "exec_span", **e.to_dict()})
                  for e in log.exec_spans]
        lines += [json.dumps({"type": "annotation", **ann})
                  for ann in annotations or []]
        return "application/x-ndjson", "\n".join(lines) + "\n"
    raise ValueError(f"unknown trace format {fmt!r} (expected 'chrome' or 'jsonl')")


#: event/args keys that carry wall-clock or OS-assigned values — the
#: non-deterministic residue :func:`canonical_chrome_trace` strips
_VOLATILE_KEYS = frozenset(
    {"ts", "dur"}
)
_VOLATILE_ARG_KEYS = frozenset(
    {"time", "os_pid", "start_time", "end_time", "duration_s", "wall_s"}
)


def canonical_chrome_trace(doc: Dict) -> Dict:
    """A Chrome trace document minus its non-deterministic residue.

    Timestamps, durations, and OS pids vary run to run even for a fully
    seeded execution; everything else — event names, categories, track
    layout, counters, trace/span ids — is deterministic.  Two seeded
    runs of the same spec must produce *identical* canonical documents
    (the test suite asserts it), which is what makes a recorded trace a
    replayable artifact rather than a one-off.
    """
    events = []
    for ev in doc.get("traceEvents", []):
        ev = {k: v for k, v in ev.items() if k not in _VOLATILE_KEYS}
        args = ev.get("args")
        if isinstance(args, dict):
            ev["args"] = {
                k: v for k, v in args.items() if k not in _VOLATILE_ARG_KEYS
            }
        events.append(ev)
    other = {
        k: v
        for k, v in doc.get("otherData", {}).items()
        if k not in _VOLATILE_ARG_KEYS
    }
    return {"traceEvents": events, "otherData": other}
