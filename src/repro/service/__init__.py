"""repro.service — the clustering job service.

Turns the one-shot solver facade (:mod:`repro.api`) into a long-running
service: datasets are registered once and content-fingerprinted, jobs
are queued and executed by a worker pool, results are cached so repeat
submissions are O(1) lookups, and everything is reachable over a
stdlib-only HTTP/JSON API.  The shape follows the classic
frontend → queue → workers → result-store pipeline of production
clustering services.

Layers (each its own module):

* :mod:`repro.service.datasets` — :class:`DatasetRegistry`; a dataset
  is a named workload or uploaded points, identified by the SHA-256 of
  its canonical point bytes;
* :mod:`repro.service.spec` — :class:`JobSpec`, the validated,
  hashable description of one solver run (its :meth:`~JobSpec.cache_key`
  deliberately excludes the execution backend: PR-2's determinism
  guarantee makes results backend-invariant);
* :mod:`repro.service.cache` — :class:`ResultCache`, fingerprint-keyed
  with hit/miss counters;
* :mod:`repro.service.runner` — executes one job through
  :func:`repro.api.solve` with a per-job :class:`~repro.obs.Recorder`
  and round-granular cancellation/timeout;
* :mod:`repro.service.jobs` — :class:`JobManager`: bounded FIFO queue,
  worker pool, job lifecycle ``queued → running → done|failed|cancelled``,
  and a :class:`RetryPolicy` that re-enqueues crashed jobs with
  exponential backoff (see ``docs/fault_tolerance.md``);
* :mod:`repro.service.store` — the pluggable state layer:
  ``JobStore`` / ``WorkQueue`` / ``DatasetStore`` / ``ResultStore``
  protocols with in-memory and SQLite/file backends
  (:func:`~repro.service.store.open_stores`); a durable state
  directory is what lets N worker processes and M frontends form one
  service (see ``docs/persistence.md``);
* :mod:`repro.service.http` — the versioned HTTP/JSON API
  (``POST /v1/datasets``, ``POST /v1/jobs``, ``GET /v1/jobs/<id>``,
  ``DELETE /v1/jobs/<id>``, ``GET /v1/jobs/<id>/trace``,
  ``GET /v1/healthz``, ``GET /v1/stats``, plus the ``/v1/analyses``
  sweep routes backed by :mod:`repro.sweeps`) on a threading
  :mod:`http.server`, with uniform error envelopes;
* :mod:`repro.service.client` — :class:`ServiceClient`, the in-process
  Python client the CLI smoke tests and notebooks use.

Quickstart (in-process)::

    from repro.service import JobManager, DatasetRegistry, JobSpec

    registry = DatasetRegistry()
    ds = registry.register_points(points)
    manager = JobManager(registry, workers=2)
    manager.start()
    job = manager.submit(JobSpec(algorithm="kcenter", dataset=ds.id, k=8))
    manager.wait(job.id)
    job.result["record"]["radius"]

Over HTTP: ``repro serve --port 8000`` then
:class:`~repro.service.client.ServiceClient`\\ ``("http://localhost:8000")``.
"""

from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.datasets import (
    Dataset,
    DatasetRegistry,
    MetricMismatchError,
    NotAppendableError,
    UnknownDatasetError,
)
from repro.service.http import serve
from repro.service.jobs import (
    Job,
    JobManager,
    JobState,
    QueueFullError,
    RetryPolicy,
    UnknownJobError,
)
from repro.service.spec import JobSpec
from repro.service.runner import JobCancelled, JobTimeout
from repro.service.store import (
    AnalysisRecord,
    ServiceStores,
    UnknownAnalysisError,
    open_stores,
)

__all__ = [
    "AnalysisRecord",
    "Dataset",
    "DatasetRegistry",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobSpec",
    "JobState",
    "JobTimeout",
    "MetricMismatchError",
    "NotAppendableError",
    "QueueFullError",
    "ResultCache",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceStores",
    "UnknownAnalysisError",
    "UnknownDatasetError",
    "UnknownJobError",
    "open_stores",
    "serve",
]
