"""Tests for Hamming, Angular, and Matrix metrics."""

import numpy as np
import pytest

from repro.metric.cosine import AngularMetric
from repro.metric.hamming import HammingMetric
from repro.metric.matrix_metric import MatrixMetric


class TestHamming:
    def test_counts_differing_coordinates(self):
        pts = np.array([[0, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=float)
        m = HammingMetric(pts)
        assert m.distance(0, 1) == 1
        assert m.distance(0, 2) == 3
        assert m.distance(1, 2) == 2

    def test_zero_on_identical(self):
        pts = np.array([[1, 2], [1, 2]], dtype=float)
        assert HammingMetric(pts).distance(0, 1) == 0

    def test_symmetric_matrix(self, rng):
        pts = rng.integers(0, 3, size=(20, 5)).astype(float)
        m = HammingMetric(pts)
        D = m.pairwise(np.arange(20), np.arange(20))
        assert np.array_equal(D, D.T)


class TestAngular:
    def test_orthogonal_is_half_pi(self):
        m = AngularMetric([[1.0, 0.0], [0.0, 1.0]])
        assert m.distance(0, 1) == pytest.approx(np.pi / 2)

    def test_parallel_is_zero(self):
        m = AngularMetric([[1.0, 0.0], [2.0, 0.0]])
        assert m.distance(0, 1) == pytest.approx(0.0, abs=1e-9)

    def test_antiparallel_is_pi(self):
        m = AngularMetric([[1.0, 0.0], [-3.0, 0.0]])
        assert m.distance(0, 1) == pytest.approx(np.pi)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="nonzero"):
            AngularMetric([[0.0, 0.0], [1.0, 0.0]])

    def test_scale_invariant(self, rng):
        pts = rng.normal(size=(10, 4))
        m1 = AngularMetric(pts)
        m2 = AngularMetric(pts * 7.5)
        I = np.arange(10)
        # arccos amplifies float error near cos = ±1; 1e-6 absolute is fine
        assert np.allclose(m1.pairwise(I, I), m2.pairwise(I, I), atol=1e-6)

    def test_same_id_is_exactly_zero_in_batch(self):
        rng = np.random.default_rng(0)
        m = AngularMetric(rng.normal(scale=2.0, size=(24, 3)) + 5.0)
        for i in range(24):
            assert np.all(m.pairwise([i], [i, i, (i + 1) % 24])[:, :2] == 0.0)


class TestMatrix:
    def test_roundtrip(self):
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        m = MatrixMetric(D)
        assert m.distance(0, 2) == 2.0
        assert np.allclose(m.pairwise([0, 1], [2]), [[2.0], [1.5]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            MatrixMetric(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            MatrixMetric(D)

    def test_rejects_nonzero_diagonal(self):
        D = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            MatrixMetric(D)

    def test_rejects_negative(self):
        D = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            MatrixMetric(D)

    def test_rejects_triangle_violation(self):
        D = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            MatrixMetric(D)

    def test_validate_false_skips_checks(self):
        D = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        m = MatrixMetric(D, validate=False)  # should not raise
        assert m.distance(0, 2) == 10.0

    def test_matrix_readonly(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = MatrixMetric(D)
        with pytest.raises(ValueError):
            m.matrix[0, 1] = 5.0
