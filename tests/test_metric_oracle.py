"""Tests for the CountingOracle wrapper."""

import numpy as np
import pytest

from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle


@pytest.fixture
def inner(rng):
    return EuclideanMetric(rng.normal(size=(20, 2)))


class TestCounting:
    def test_counts_matrix_cells(self, inner):
        c = CountingOracle(inner)
        c.pairwise(np.arange(4), np.arange(5))
        assert c.evaluations == 20 and c.calls == 1

    def test_counts_accumulate(self, inner):
        c = CountingOracle(inner)
        c.distance(0, 1)
        c.distance(2, 3)
        assert c.evaluations == 2 and c.calls == 2

    def test_helpers_count_through(self, inner):
        c = CountingOracle(inner)
        c.dist_to_set(np.arange(10), [0, 1])
        assert c.evaluations == 20

    def test_reset(self, inner):
        c = CountingOracle(inner)
        c.distance(0, 1)
        c.reset()
        assert c.evaluations == 0 and c.calls == 0

    def test_values_unchanged(self, inner):
        c = CountingOracle(inner)
        I = np.arange(10)
        assert np.allclose(c.pairwise(I, I), inner.pairwise(I, I))

    def test_point_words_delegates(self, inner):
        assert CountingOracle(inner).point_words() == inner.point_words()

