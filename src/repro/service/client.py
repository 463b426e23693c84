"""In-process Python client for the clustering job service.

Stdlib-only (``urllib``), mirroring the HTTP surface one method per
route plus a blocking :meth:`ServiceClient.solve` convenience that
registers, submits, and waits::

    from repro.service import ServiceClient

    client = ServiceClient("http://localhost:8000")
    ds = client.register_workload("gaussian", n=2000, seed=0)
    job = client.submit(algorithm="kcenter", dataset=ds["id"], k=10)
    done = client.wait(job["id"])
    done["result"]["record"]["radius"]

Requests go to the versioned API (``/v1/…``).  HTTP error responses
raise :class:`ServiceError` carrying the status, the machine-readable
error ``code`` from the server's uniform envelope ``{"error": {"code",
"message", "request_id"}}``, and the message — a full queue surfaces
as ``ServiceError`` with ``code == "queue_full"``.

The transport is fault-tolerant: transient failures — dropped or
refused connections, and responses whose error *code* marks them
transient (``queue_full``, ``unavailable``, ``injected_fault``) — are
retried with capped exponential backoff, honouring the server's
``Retry-After`` header when present.  Other errors (400, 404, 409, …)
raise immediately: they are answers, not faults.
:meth:`ServiceClient.wait` additionally survives a server restart
mid-poll, as long as the new server comes back (with the same job
state, e.g. a shared state directory) before the wait deadline.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Iterator, Optional
from urllib.parse import urlencode

import numpy as np

from repro.obs.logging import get_logger
from repro.obs.tracing import TraceContext, current_trace

#: error codes the transport treats as transient and retries;
#: ``transport`` is the client-side code for connection-level failures
RETRYABLE_CODES = ("queue_full", "unavailable", "injected_fault", "transport")

#: status fallback for pre-envelope servers that send no code
RETRYABLE_STATUSES = (429, 503)

_log = get_logger("repro.service.client")


class ServiceError(RuntimeError):
    """An HTTP error response from the service.

    ``code`` is the machine-readable identifier from the server's error
    envelope (``queue_full``, ``unknown_job``, …) — or ``"transport"``
    for connection-level failures that never got a response.  Retry
    decisions key off it; the human-facing ``message`` is display-only.
    ``request_id`` is the server-assigned id of the failed request
    (the request's trace id), echoed in the message so a pasted error
    is greppable in the server's structured log.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None,
                 request_id: Optional[str] = None,
                 code: Optional[str] = None) -> None:
        text = f"HTTP {status}: {message}"
        if request_id:
            text += f" [request {request_id}]"
        super().__init__(text)
        self.status = status
        self.message = message
        #: machine-readable error code from the envelope (or "transport")
        self.code = code
        #: parsed Retry-After header (seconds), when the server sent one
        self.retry_after = retry_after
        #: server-assigned request/trace id, when the server sent one
        self.request_id = request_id

    @property
    def retryable(self) -> bool:
        """Whether the transport may safely repeat the request."""
        if self.code is not None:
            return self.code in RETRYABLE_CODES
        return self.status in RETRYABLE_STATUSES


def _parse_error_body(raw: str, request_id: Optional[str]):
    """Extract ``(message, code, request_id)`` from an error body.

    Understands the uniform envelope ``{"error": {"code", "message",
    "request_id"}}``; any other body is the message itself.
    """
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        return raw, None, request_id
    if not isinstance(parsed, dict):
        return raw, None, request_id
    err = parsed.get("error")
    if isinstance(err, dict):
        return (
            err.get("message", raw),
            err.get("code"),
            err.get("request_id") or request_id,
        )
    return raw, None, request_id


class ServiceClient:
    """Thin JSON client bound to one service base URL.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of a running service.
    timeout:
        Per-request socket timeout, seconds.
    retries:
        Transient-failure retries per request (so a request is attempted
        at most ``retries + 1`` times).  Set 0 to fail fast.
    backoff_s / max_backoff_s:
        Initial and maximum backoff between attempts; doubles per
        retry, and the server's ``Retry-After`` overrides the computed
        delay when present.
    """

    #: path prefix of every route
    api_version = "v1"

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        retries: int = 4,
        backoff_s: float = 0.1,
        max_backoff_s: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        #: transient failures retried over this client's lifetime
        self.transport_retries = 0
        #: ``X-Request-Id`` of the most recent response (success or error)
        self.last_request_id: Optional[str] = None

    # -- transport ----------------------------------------------------------

    def _request_once(self, method: str, path: str, body: Optional[dict] = None,
                      trace: Optional[TraceContext] = None):
        url = f"{self.base_url}/{self.api_version}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if trace is not None:
            headers["traceparent"] = trace.to_traceparent()
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(url, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                raw = resp.read().decode()
                ctype = resp.headers.get("Content-Type", "")
                self.last_request_id = resp.headers.get("X-Request-Id")
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode()
            request_id = exc.headers.get("X-Request-Id") if exc.headers else None
            message, code, request_id = _parse_error_body(raw, request_id)
            if not raw:
                message = exc.reason
            self.last_request_id = request_id
            retry_after = None
            header = exc.headers.get("Retry-After") if exc.headers else None
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            raise ServiceError(exc.code, message, retry_after=retry_after,
                               request_id=request_id, code=code) from None
        if ctype.split(";")[0].strip() == "application/json":
            return json.loads(raw)
        return raw

    def _request(self, method: str, path: str, body: Optional[dict] = None):
        """One logical request, with transient-failure retries.

        Retried failures: connection errors (refused, reset, dropped
        mid-response — a restarting or fault-injected server) and
        responses whose envelope code is in :data:`RETRYABLE_CODES`.
        The service's handlers make these safe to repeat: injected
        faults fire *before* any state mutation, and a dropped response
        at worst re-submits an idempotent registration or creates a
        duplicate job record.

        Each logical request gets its own trace context — a child of
        the ambient :func:`~repro.obs.tracing.current_trace` when one is
        set, otherwise a fresh random root — and every attempt sends it
        as a W3C ``traceparent`` header, so server-side log lines for
        retried attempts share one trace id.
        """
        base = current_trace()
        ctx = (base.child("http-client") if base is not None
               else TraceContext.generate())
        delay = self.backoff_s
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, body, trace=ctx)
            except ServiceError as exc:
                if not exc.retryable or attempt >= self.retries:
                    raise
                wait = exc.retry_after if exc.retry_after is not None else delay
            except (urllib.error.URLError, ConnectionError, TimeoutError,
                    http.client.HTTPException) as exc:
                if attempt >= self.retries:
                    raise ServiceError(
                        0, f"transport failure after {attempt + 1} attempt(s): {exc}",
                        code="transport",
                    ) from exc
                wait = delay
            self.transport_retries += 1
            _log.warning(
                "transient failure; retrying request",
                extra={"http_method": method, "path": path,
                       "attempt": attempt + 1, "trace_id": ctx.trace_id,
                       "span_id": ctx.span_id},
            )
            time.sleep(min(wait, self.max_backoff_s))
            delay = min(delay * 2, self.max_backoff_s)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- service-level ------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """Raw Prometheus text exposition from ``GET /metrics``."""
        return self._request("GET", "/metrics")

    # -- datasets -----------------------------------------------------------

    def register_points(self, points, metric: str = "euclidean") -> dict:
        pts = np.asarray(points, dtype=np.float64).tolist()
        return self._request(
            "POST", "/datasets", {"points": pts, "metric": metric}
        )

    def register_workload(self, workload: str, n: int, seed: int = 0) -> dict:
        return self._request(
            "POST", "/datasets", {"workload": workload, "n": int(n), "seed": int(seed)}
        )

    def append_dataset(self, ds_id: str, points, metric: Optional[str] = None) -> dict:
        """Grow ``ds_id`` with a batch of points → the new chained
        version's summary (idempotent: same parent + same bytes = same
        child).  ``metric``, when given, must match the parent's
        (``409 metric_mismatch`` otherwise)."""
        pts = np.asarray(points, dtype=np.float64).tolist()
        body: dict = {"points": pts}
        if metric is not None:
            body["metric"] = metric
        return self._request("POST", f"/datasets/{ds_id}/append", body)

    def resolve_chain(self, ds_id: str) -> list:
        """The version chain of ``ds_id``, root first (ends at ``ds_id``)."""
        return self._request("GET", f"/datasets/{ds_id}/chain")["chain"]

    def datasets(self) -> list:
        return self._request("GET", "/datasets")["datasets"]

    def dataset(self, ds_id: str) -> dict:
        return self._request("GET", f"/datasets/{ds_id}")

    # -- jobs ---------------------------------------------------------------

    def submit(self, **spec) -> dict:
        """Submit a job spec (the ``POST /jobs`` body, as keywords)."""
        return self._request("POST", "/jobs", spec)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def _list_page(self, route: str, key: str, state: Optional[str] = None,
                   limit: Optional[int] = None,
                   cursor: Optional[str] = None) -> dict:
        """One raw page of a paginated listing route.

        Query params are URL-encoded (a state or cursor with reserved
        characters must not corrupt the query string; the server remains
        the validator), and a response missing the collection key —
        e.g. an empty filtered page from an older server — is
        normalized to ``{key: []}`` so callers can rely on the shape.
        """
        params = {}
        if state is not None:
            params["state"] = state
        if limit is not None:
            params["limit"] = int(limit)
        if cursor is not None:
            params["cursor"] = cursor
        path = route + ("?" + urlencode(params) if params else "")
        page = self._request("GET", path)
        page.setdefault(key, [])
        return page

    def _iter_pages(self, route: str, key: str, state: Optional[str] = None,
                    page_size: int = 256) -> Iterator[dict]:
        """Follow pagination cursors, defensively.

        Two edge cases matter when records transition state while we
        paginate a filtered listing:

        * a page may be *empty yet not final* (every record in the
          cursor window left the filtered state between pages) — we keep
          following ``next_cursor`` instead of treating emptiness as the
          end;
        * a buggy or proxied server could echo a non-advancing cursor —
          we stop rather than loop forever.
        """
        if int(page_size) < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        cursor: Optional[str] = None
        while True:
            page = self._list_page(route, key, state=state,
                                   limit=page_size, cursor=cursor)
            yield from page[key]
            next_cursor = page.get("next_cursor")
            if next_cursor is None or next_cursor == cursor:
                return
            cursor = next_cursor

    def jobs_page(self, state: Optional[str] = None,
                  limit: Optional[int] = None,
                  cursor: Optional[str] = None) -> dict:
        """One raw page of ``GET /jobs``: ``{"jobs": [...]}`` plus
        ``next_cursor`` when another page follows."""
        return self._list_page("/jobs", "jobs", state=state,
                               limit=limit, cursor=cursor)

    def iter_jobs(self, state: Optional[str] = None,
                  page_size: int = 256) -> Iterator[dict]:
        """Lazily iterate every job, following pagination cursors
        (stable submit-time order, oldest first)."""
        return self._iter_pages("/jobs", "jobs", state=state,
                                page_size=page_size)

    def jobs(self, state: Optional[str] = None,
             page_size: int = 256) -> list:
        """Every job as a list (cursor-following; see :meth:`iter_jobs`)."""
        return list(self.iter_jobs(state=state, page_size=page_size))

    #: alias matching the route name — ``client.list_jobs()`` follows
    #: pagination cursors transparently
    list_jobs = jobs

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/jobs/{job_id}")

    def trace(self, job_id: str, fmt: str = "chrome"):
        """The job's obs trace: a parsed Chrome-trace dict, or raw JSONL
        text when ``fmt='jsonl'``."""
        return self._request("GET", f"/jobs/{job_id}/trace?format={fmt}")

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll_s: float = 0.05,
        max_poll_s: float = 1.0,
    ) -> dict:
        """Poll until the job reaches a terminal state; returns it.

        The poll interval starts at ``poll_s`` and backs off ×1.5 per
        poll up to ``max_poll_s``, so long waits don't hammer the
        service.  Transient transport failures (beyond what
        :meth:`_request` already retried — e.g. a server restarting
        mid-wait) do not abort the wait: polling continues until the
        deadline.  Non-transient HTTP errors (404 for a job the server
        genuinely does not know, …) still raise immediately.
        """
        deadline = time.monotonic() + timeout
        delay = poll_s
        last_state = "unknown"
        while True:
            try:
                job = self.job(job_id)
            except ServiceError as exc:
                if not exc.retryable and exc.status != 0:
                    raise
                job = None  # server unreachable/overloaded; keep polling
            if job is not None:
                last_state = job["state"]
                if last_state in ("done", "failed", "cancelled"):
                    return job
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {last_state} after {timeout}s"
                )
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 1.5, max_poll_s)

    # -- analyses -----------------------------------------------------------

    def submit_analysis(self, **spec) -> dict:
        """Submit an analysis sweep (the ``POST /analyses`` body — a
        :class:`~repro.sweeps.SweepSpec` — as keywords)."""
        return self._request("POST", "/analyses", spec)

    def analysis(self, analysis_id: str) -> dict:
        return self._request("GET", f"/analyses/{analysis_id}")

    def analyses_page(self, state: Optional[str] = None,
                      limit: Optional[int] = None,
                      cursor: Optional[str] = None) -> dict:
        """One raw page of ``GET /analyses``: ``{"analyses": [...]}``
        plus ``next_cursor`` when another page follows."""
        return self._list_page("/analyses", "analyses", state=state,
                               limit=limit, cursor=cursor)

    def iter_analyses(self, state: Optional[str] = None,
                      page_size: int = 256) -> Iterator[dict]:
        """Lazily iterate every analysis, following pagination cursors
        (stable submit-time order, oldest first)."""
        return self._iter_pages("/analyses", "analyses", state=state,
                                page_size=page_size)

    def analyses(self, state: Optional[str] = None,
                 page_size: int = 256) -> list:
        """Every analysis as a list (see :meth:`iter_analyses`)."""
        return list(self.iter_analyses(state=state, page_size=page_size))

    def analysis_report(self, analysis_id: str) -> dict:
        """The finished sweep's ranked report (``409``/``conflict``
        :class:`ServiceError` while it is still running)."""
        return self._request("GET", f"/analyses/{analysis_id}/report")

    def wait_analysis(
        self,
        analysis_id: str,
        timeout: float = 300.0,
        poll_s: float = 0.05,
        max_poll_s: float = 1.0,
    ) -> dict:
        """Poll until the analysis reaches a terminal state; returns it.

        Same contract as :meth:`wait`: transient transport failures keep
        polling until the deadline, genuine errors raise immediately.
        """
        deadline = time.monotonic() + timeout
        delay = poll_s
        last_state = "unknown"
        while True:
            try:
                record = self.analysis(analysis_id)
            except ServiceError as exc:
                if not exc.retryable and exc.status != 0:
                    raise
                record = None  # server unreachable/overloaded; keep polling
            if record is not None:
                last_state = record["state"]
                if last_state in ("done", "failed"):
                    return record
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"analysis {analysis_id} still {last_state} after {timeout}s"
                )
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 1.5, max_poll_s)

    # -- convenience --------------------------------------------------------

    def solve(self, points=None, *, workload: Optional[str] = None,
              n: Optional[int] = None, dataset_seed: int = 0,
              metric: str = "euclidean", timeout: float = 120.0,
              **spec) -> dict:
        """Register (points or workload) + submit + wait, in one call.

        Returns the terminal job record; raises :class:`ServiceError`
        for rejections and ``RuntimeError`` if the job failed.
        """
        if (points is None) == (workload is None):
            raise ValueError("pass exactly one of points= or workload=")
        if points is not None:
            ds = self.register_points(points, metric=metric)
        else:
            if n is None:
                raise ValueError("workload datasets need n=")
            ds = self.register_workload(workload, n, seed=dataset_seed)
        job = self.submit(dataset=ds["id"], **spec)
        done = self.wait(job["id"], timeout=timeout)
        if done["state"] != "done":
            raise RuntimeError(
                f"job {job['id']} ended {done['state']}: {done.get('error', '')}"
            )
        return done
