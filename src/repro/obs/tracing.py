"""Request-scoped trace context, W3C ``traceparent`` wire format.

One :class:`TraceContext` identifies a request end to end: the client
stamps it on the HTTP call, the service hands it to the job, the job
hands it to the solver run, the solver's phase spans inherit it, and
the executor ships it to the worker agents running chunks — so a single
128-bit trace id connects ``ServiceClient.submit`` to the innermost
chunk span of the run that served it.

Three design points:

* **W3C shape** — ids follow the Trace Context recommendation: a
  128-bit trace id and 64-bit span ids, rendered lowercase-hex in the
  ``traceparent`` header (``00-<trace>-<span>-01``).  Anything that
  speaks the header (proxies, OTel collectors) interoperates.
* **Deterministic when seeded** — :meth:`TraceContext.from_seed`
  derives the root ids from a seed with BLAKE2b, and
  :meth:`TraceContext.child` derives child span ids from
  ``(trace_id, span_id, name, occurrence)``.  Two seeded runs produce
  identical id trees, which is what lets the test suite assert
  bit-identical canonical traces across executions (and lets a chaos
  replay be diffed against the original).
* **Ambient propagation** — :func:`use_trace` installs a context on a
  :mod:`contextvars` variable; :func:`current_trace` reads it.  Layers
  that cannot thread a parameter (the logging filter, the solver facade
  called with default arguments) pick the active context up ambiently.
"""

from __future__ import annotations

import hashlib
import os
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

#: ``traceparent`` header: version 00, 128-bit trace id, 64-bit span id
TRACEPARENT_RE = re.compile(
    r"^00-(?P<trace_id>[0-9a-f]{32})-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def _nonzero_hex(digest: bytes, width: int) -> str:
    """Lowercase hex of ``digest``; all-zero ids are invalid per W3C, so
    the (astronomically unlikely) zero digest is bumped to 1."""
    value = int.from_bytes(digest, "big")
    return format(value or 1, f"0{width}x")


def _derive(*parts: object, width: int) -> str:
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=width // 2).digest()
    return _nonzero_hex(digest, width)


@dataclass
class TraceContext:
    """One node of a trace tree: ``(trace_id, span_id, parent_id)``.

    ``trace_id`` is shared by every context derived from the same root;
    ``span_id`` names this node; ``parent_id`` is the deriving node's
    span id (``None`` at the root).  Contexts are cheap value objects —
    derive freely, one per logical operation.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    #: per-name occurrence counters so repeated ``child("x")`` calls get
    #: distinct (but deterministic) ids; identity bookkeeping, not data
    _child_seq: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[0-9a-f]{32}", self.trace_id) or not int(self.trace_id, 16):
            raise ValueError(f"invalid trace_id {self.trace_id!r}")
        if not re.fullmatch(r"[0-9a-f]{16}", self.span_id) or not int(self.span_id, 16):
            raise ValueError(f"invalid span_id {self.span_id!r}")

    # -- derivation ---------------------------------------------------------

    @classmethod
    def from_seed(cls, seed: object, name: str = "root") -> "TraceContext":
        """Deterministic root context: same ``(seed, name)`` ⇒ same ids."""
        return cls(
            trace_id=_derive("trace", seed, name, width=32),
            span_id=_derive("span", seed, name, width=16),
        )

    @classmethod
    def generate(cls) -> "TraceContext":
        """Fresh random root context (one per unseeded request)."""
        return cls(
            trace_id=_nonzero_hex(os.urandom(16), 32),
            span_id=_nonzero_hex(os.urandom(8), 16),
        )

    def child(self, name: str) -> "TraceContext":
        """A child context for operation ``name``.

        The child's span id is a pure function of this node's ids, the
        name, and the occurrence number — the deterministic analogue of
        "generate a random span id".
        """
        seq = self._child_seq.get(name, 0)
        self._child_seq[name] = seq + 1
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_derive(self.trace_id, self.span_id, name, seq, width=16),
            parent_id=self.span_id,
        )

    # -- wire format --------------------------------------------------------

    def to_traceparent(self) -> str:
        """Render as a W3C ``traceparent`` header value (sampled)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` for absent/invalid
        values (per spec, a malformed header is ignored, not an error)."""
        if not header:
            return None
        match = TRACEPARENT_RE.match(header.strip().lower())
        if match is None:
            return None
        trace_id, span_id = match.group("trace_id"), match.group("span_id")
        if not int(trace_id, 16) or not int(span_id, 16):
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


# -- ambient context ---------------------------------------------------------

_current: ContextVar[Optional[TraceContext]] = ContextVar("repro_trace", default=None)


def current_trace() -> Optional[TraceContext]:
    """The ambient :class:`TraceContext`, or ``None`` outside any."""
    return _current.get()


@contextmanager
def use_trace(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Install ``ctx`` as the ambient trace context for the ``with``
    body (thread- and task-local via :mod:`contextvars`)."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)
