"""Angular metric (arccos of cosine similarity).

Plain "cosine distance" ``1 − cos θ`` violates the triangle inequality;
the *angle* ``θ = arccos(cos θ)`` is a true metric on the unit sphere,
so we use that.  Zero vectors are rejected at construction.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.metric.base import Metric
from repro.metric.points import PointSet


class AngularMetric(Metric):
    """Angle between vectors, in radians — a valid metric on directions."""

    def __init__(self, points: PointSet | Iterable) -> None:
        self.points = points if isinstance(points, PointSet) else PointSet(points)
        self.n = self.points.n
        norms = np.linalg.norm(self.points.data, axis=1)
        if np.any(norms == 0):
            raise ValueError("AngularMetric requires nonzero vectors")
        self._unit = self.points.data / norms[:, None]

    def point_words(self) -> int:
        return self.points.dim

    def _pairwise_kernel(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        cos = self._unit[I] @ self._unit[J].T
        # A blocked matmul can round u·u to 1 − ε, whose arccos is ~1e-8
        # rather than 0; pin identical ids so d(x, x) = 0 exactly.
        cos[I[:, None] == J[None, :]] = 1.0
        np.clip(cos, -1.0, 1.0, out=cos)
        return np.arccos(cos)
