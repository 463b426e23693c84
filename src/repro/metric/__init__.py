"""Metric-space substrate.

Every algorithm in :mod:`repro.core` talks to a :class:`~repro.metric.base.Metric`
through point *ids* only, matching the paper's O(1) distance-oracle model.
Concrete metrics:

* :class:`~repro.metric.euclidean.EuclideanMetric` — L² on coordinate data.
* :class:`~repro.metric.lp.MinkowskiMetric` / ``ManhattanMetric`` /
  ``ChebyshevMetric`` — general Lᵖ.
* :class:`~repro.metric.hamming.HammingMetric` — categorical vectors.
* :class:`~repro.metric.cosine.AngularMetric` — angular distance.
* :class:`~repro.metric.matrix_metric.MatrixMetric` — explicit matrix.
* :class:`~repro.metric.graph_metric.GraphShortestPathMetric` — weighted
  graph shortest paths (own Dijkstra, no external solver).

Wrappers in :mod:`repro.metric.oracle` add distance-evaluation counting
and caching without changing semantics.
"""

from repro.metric.base import Metric
from repro.metric.cosine import AngularMetric
from repro.metric.edit_distance import EditDistanceMetric
from repro.metric.euclidean import EuclideanMetric
from repro.metric.graph_metric import GraphShortestPathMetric
from repro.metric.hamming import HammingMetric
from repro.metric.haversine import HaversineMetric
from repro.metric.lp import ChebyshevMetric, ManhattanMetric, MinkowskiMetric
from repro.metric.matrix_metric import MatrixMetric
from repro.metric.oracle import CountingOracle
from repro.metric.points import PointSet

__all__ = [
    "Metric",
    "PointSet",
    "EuclideanMetric",
    "MinkowskiMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "HammingMetric",
    "AngularMetric",
    "EditDistanceMetric",
    "HaversineMetric",
    "MatrixMetric",
    "GraphShortestPathMetric",
    "CountingOracle",
]
