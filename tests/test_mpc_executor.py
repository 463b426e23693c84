"""Tests for the local-work executors: process execution must be a
bit-for-bit drop-in for serial — results, communication
ledger, and oracle counters alike."""

import numpy as np
import pytest

from repro.core import mpc_diversity, mpc_k_bounded_mis, mpc_kcenter
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import (
    BACKENDS,
    ExecutionBackend,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)


class TestExecutorsDirect:
    def test_serial_order(self):
        out = SerialExecutor().map_indexed(lambda i: i * i, 5)
        assert out == [0, 1, 4, 9, 16]

    def test_shutdown_idempotent(self):
        ex = ProcessExecutor(max_workers=2)
        ex.map_indexed(lambda i: i, 4)
        ex.shutdown()
        ex.shutdown()


class TestBitIdenticalResults:
    """Same seed + process executor == same seed + serial executor."""

    @pytest.fixture
    def metric(self, rng):
        return EuclideanMetric(rng.normal(scale=3.0, size=(300, 2)))

    def run_both(self, metric, fn):
        out = []
        for executor in (SerialExecutor(), ProcessExecutor(max_workers=2)):
            cluster = MPCCluster(metric, 4, seed=7, executor=executor)
            out.append((fn(cluster), cluster))
        return out

    def test_mis_identical(self, metric):
        (r1, c1), (r2, c2) = self.run_both(
            metric, lambda c: mpc_k_bounded_mis(c, 0.7, 10)
        )
        assert np.array_equal(np.sort(r1.ids), np.sort(r2.ids))
        assert c1.stats.total_words == c2.stats.total_words
        assert c1.stats.rounds == c2.stats.rounds

    def test_kcenter_identical(self, metric):
        (r1, _), (r2, _) = self.run_both(
            metric, lambda c: mpc_kcenter(c, 6, epsilon=0.2)
        )
        assert r1.radius == r2.radius
        assert np.array_equal(np.sort(r1.centers), np.sort(r2.centers))

    def test_diversity_identical(self, metric):
        (r1, _), (r2, _) = self.run_both(
            metric, lambda c: mpc_diversity(c, 6, epsilon=0.2)
        )
        assert r1.diversity == r2.diversity

    def test_communication_ledger_identical(self, metric):
        (_, c1), (_, c2) = self.run_both(
            metric, lambda c: mpc_k_bounded_mis(c, 0.7, 10)
        )
        for a, b in zip(c1.stats.rounds_log, c2.stats.rounds_log):
            assert np.array_equal(a.sent, b.sent)
            assert np.array_equal(a.received, b.received)


class TestProcessExecutorDirect:
    """max_workers is pinned > 1 so the fork path runs even on 1-core CI."""

    def test_order_preserved(self):
        ex = ProcessExecutor(max_workers=4)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        assert ex.map_indexed(lambda i: i * i, 16) == [i * i for i in range(16)]
        ex.shutdown()

    def test_closure_capture(self):
        # closures can't be pickled — fork-based workers must still see them
        offset = 1000
        ex = ProcessExecutor(max_workers=2)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        assert ex.map_indexed(lambda i: i + offset, 6) == [1000 + i for i in range(6)]
        ex.shutdown()

    def test_single_task_stays_in_driver(self):
        calls = []
        ex = ProcessExecutor(max_workers=4)
        # a driver-side mutation survives only if the task ran in-process
        assert ex.map_indexed(lambda i: calls.append(i) or i, 1) == [0]
        assert calls == [0]

    def test_exception_reraised_with_context(self):
        ex = ProcessExecutor(max_workers=2)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)

        def boom(i):
            if i == 3:
                raise RuntimeError("task 3 failed")
            return i

        # worker failure falls back to a serial re-run, which raises the
        # original exception with a real traceback
        with pytest.raises(RuntimeError, match="task 3"):
            ex.map_indexed(boom, 8)
        ex.shutdown()

    def test_unpicklable_result_falls_back(self):
        ex = ProcessExecutor(max_workers=2)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        out = ex.map_indexed(lambda i: lambda: i, 4)  # lambdas don't pickle
        assert [f() for f in out] == [0, 1, 2, 3]
        ex.shutdown()

    def test_fallback_reason_forces_serial(self):
        ex = ProcessExecutor(max_workers=4)
        ex.fallback_reason = "simulated platform without fork"
        assert ex.map_indexed(lambda i: i * 2, 8) == [i * 2 for i in range(8)]

    def test_shutdown_idempotent(self):
        ex = ProcessExecutor(max_workers=2)
        ex.shutdown()
        ex.shutdown()


class TestBackendProtocolAndFactory:
    def test_all_executors_satisfy_protocol(self):
        for ex in (SerialExecutor(), ProcessExecutor()):
            assert isinstance(ex, ExecutionBackend)

    def test_factory_names_and_aliases(self):
        from repro.mpc.remote import RemoteExecutor

        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("process"), ProcessExecutor)
        assert isinstance(get_executor("fork"), ProcessExecutor)
        assert isinstance(get_executor("remote"), RemoteExecutor)
        assert isinstance(get_executor("sockets"), RemoteExecutor)
        assert set(BACKENDS) == {"serial", "process", "remote"}
        for gone in ("thread", "threaded", "threads"):
            with pytest.raises(ValueError, match="valid backends"):
                get_executor(gone)

    def test_factory_passthrough_and_errors(self):
        ex = SerialExecutor()
        assert get_executor(ex) is ex
        with pytest.raises(ValueError, match="unknown backend"):
            get_executor("gpu")
        with pytest.raises(TypeError):
            get_executor(42)

    def test_factory_forwards_max_workers(self):
        assert get_executor("process", max_workers=3).max_workers == 3

    def test_unknown_backend_error_lists_valid_names(self):
        """The error must name every valid backend, so a typo'd config
        is self-documenting."""
        with pytest.raises(ValueError) as exc:
            get_executor("gpu")
        message = str(exc.value)
        for name in BACKENDS:
            assert repr(name) in message
        assert "'fork'" in message  # aliases listed too


class TestWorkerCountConfiguration:
    def test_explicit_arg_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert ProcessExecutor(max_workers=2).max_workers == 2

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        ex = ProcessExecutor()
        assert ex.max_workers == 3
        assert ex.effective_workers(8) <= 3

    def test_env_var_unset_means_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        ex = ProcessExecutor()
        assert ex.max_workers is None
        assert ex.effective_workers() == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", ["zero-ish", "0", "-2", "1.5"])
    def test_invalid_env_var_fails_loudly(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            ProcessExecutor()

    def test_effective_workers_capped_by_batch(self):
        ex = ProcessExecutor(max_workers=8)
        assert ex.effective_workers(3) == min(3, ex.effective_workers())

    def test_effective_workers_serial_and_process(self):
        assert SerialExecutor().effective_workers(16) == 1
        ex = ProcessExecutor(max_workers=5)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        assert ex.effective_workers(16) == 5
        assert ex.effective_workers(4) == 4

    def test_fallback_reports_one_worker(self):
        ex = ProcessExecutor(max_workers=8)
        ex.fallback_reason = "forced for the test"
        assert ex.effective_workers(16) == 1


class TestProcessBitIdentical:
    """Same seed + forked workers == same seed + serial, down to the
    CountingOracle ledger."""

    @pytest.fixture
    def pts(self, rng):
        return rng.normal(scale=3.0, size=(300, 2))

    def run_both(self, pts, fn):
        out = []
        for executor in (SerialExecutor(), ProcessExecutor(max_workers=4)):
            oracle = CountingOracle(EuclideanMetric(pts))
            cluster = MPCCluster(oracle, 4, seed=7, executor=executor)
            out.append((fn(cluster), cluster, oracle))
            executor.shutdown()
        return out

    def test_kcenter_identical(self, pts):
        (r1, c1, o1), (r2, c2, o2) = self.run_both(
            pts, lambda c: mpc_kcenter(c, 6, epsilon=0.2)
        )
        assert r1.radius == r2.radius
        assert np.array_equal(np.sort(r1.centers), np.sort(r2.centers))
        assert c1.stats.rounds == c2.stats.rounds

    def test_mis_identical(self, pts):
        (r1, c1, _), (r2, c2, _) = self.run_both(
            pts, lambda c: mpc_k_bounded_mis(c, 0.7, 10)
        )
        assert np.array_equal(np.sort(r1.ids), np.sort(r2.ids))
        assert c1.stats.total_words == c2.stats.total_words

    def test_oracle_ledger_identical(self, pts):
        (_, _, o1), (_, _, o2) = self.run_both(
            pts, lambda c: mpc_kcenter(c, 6, epsilon=0.2)
        )
        assert o1.calls == o2.calls
        assert o1.evaluations == o2.evaluations

    def test_rng_streams_advance_identically(self, pts):
        """After a run, the driver-side machine RNGs must be in the same
        state on both backends — the next algorithm on the same cluster
        then also agrees."""
        (_, c1, _), (_, c2, _) = self.run_both(
            pts, lambda c: mpc_k_bounded_mis(c, 0.7, 10)
        )
        for m1, m2 in zip(c1.machines, c2.machines):
            assert m1.rng.random() == m2.rng.random()
