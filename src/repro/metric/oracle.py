"""Instrumentation wrapper for distance oracles.

:class:`CountingOracle` counts individual distance *evaluations*
(matrix cells), giving the oracle-complexity numbers reported by the
F2 scaling experiment.  It is itself a
:class:`~repro.metric.base.Metric`, so it wraps any metric
transparently.
"""

from __future__ import annotations

import numpy as np

from repro.metric.base import Metric


class CountingOracle(Metric):
    """Transparent wrapper that counts distance evaluations."""

    def __init__(self, inner: Metric) -> None:
        self.inner = inner
        self.n = inner.n
        self.chunk_budget = inner.chunk_budget
        self.evaluations = 0
        self.calls = 0

    def point_words(self) -> int:
        return self.inner.point_words()

    def reset(self) -> None:
        """Zero the counters."""
        self.evaluations = 0
        self.calls = 0

    def _pairwise_kernel(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        self.calls += 1
        self.evaluations += int(I.size) * int(J.size)
        return self.inner._pairwise_kernel(I, J)
