"""Tests for the local-work executors: process execution must be a
bit-for-bit drop-in for serial — results, communication
ledger, and oracle counters alike."""

import gc
import os

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

    def test_closure_over_locks_runs_on_agents(self):
        # locks and thread-locals ship as fresh ones, as a fork copied
        # them: the driver holding this lock must not block the agents
        import threading

        state = {"lock": threading.Lock(), "local": threading.local(), "offset": 7}
        ex = ProcessExecutor(max_workers=2)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)

        def task(i):
            assert state["lock"].acquire(timeout=5), "the lock arrived locked"
            state["lock"].release()
            return i + state["offset"], os.getpid()

        with state["lock"]:
            out = ex.map_indexed(task, 4)
        assert [v for v, _ in out] == [7, 8, 9, 10]
        assert os.getpid() not in {pid for _, pid in out}
        assert ex.recovery_stats()["serial_fallbacks"] == 0
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

    def test_find_points_array(self):
        """The dataset the agents are shipped: found through oracle
        wrappers, absent for a metric without coordinates."""
        from repro.metric.matrix_metric import MatrixMetric
        from repro.mpc.wire import find_points_array

        pts = np.random.default_rng(0).normal(size=(20, 3))
        base = EuclideanMetric(pts)
        assert find_points_array(CountingOracle(base)) is find_points_array(base)
        assert np.array_equal(find_points_array(base), pts)
        assert find_points_array(MatrixMetric(np.zeros((4, 4)))) is None

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


class _Touch:
    """Creates a file when unpickled."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _children() -> set:
    """PIDs of this process's live children (Linux ``/proc``)."""
    me, out = os.getpid(), set()
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == me and fields[0] != "Z":
                out.add(int(name))
    return out


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc to list children")
class TestAgentLifecycle:
    """The process backend's persistent local agents: started lazily,
    replaced when they die, and never left behind."""

    def agent_pids(self, ex) -> set:
        pids = set(ex.map_indexed(lambda i: os.getpid(), 4))
        assert len(pids) == 2 and os.getpid() not in pids
        return pids

    def test_build_and_shutdown_start_no_process(self):
        from repro.api import build_cluster

        before = _children()
        cluster = build_cluster(np.random.default_rng(0).normal(size=(200, 2)),
                                machines=4, backend="process", max_workers=2)
        cluster.executor.shutdown()
        assert cluster.executor._workers == []
        assert _children() <= before

    def test_no_agent_left_after_shutdown(self):
        ex = ProcessExecutor(max_workers=2)
        pids = self.agent_pids(ex)
        assert pids <= _children()
        ex.shutdown()
        assert not pids & _children()
        # the next parallel batch forks fresh agents
        assert self.agent_pids(ex).isdisjoint(pids)
        ex.shutdown()

    def test_no_agent_left_after_garbage_collection(self):
        ex = ProcessExecutor(max_workers=2)
        pids = self.agent_pids(ex)
        del ex
        gc.collect()
        assert not pids & _children()

    def test_killed_agent_replaced_before_next_batch(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=3, worker_kill=1.0, worker_fault_attempts=1)
        ex = ProcessExecutor(max_workers=2, faults=plan)
        assert ex.map_indexed(lambda i: i * 5, 6) == [i * 5 for i in range(6)]
        assert ex.recovery_stats()["chunk_retries"] == 2
        ex.set_fault_plan(None)
        self.agent_pids(ex)
        assert ex.effective_workers() == 2
        assert ex.recovery_stats()["serial_fallbacks"] == 0
        ex.shutdown()

    def test_agents_never_run_driver_atexit_handlers(self, tmp_path):
        import subprocess
        import sys

        import repro

        log = tmp_path / "atexit.log"
        script = (
            "import atexit, os, sys\n"
            "from repro.faults import FaultPlan\n"
            "from repro.mpc.executor import ProcessExecutor\n"
            "from repro.mpc.wire import send_msg\n"
            "atexit.register(lambda: open(sys.argv[1], 'a').write(f'{os.getpid()}\\n'))\n"
            # injected kills: the first agents leave through os._exit(1)
            "plan = FaultPlan(seed=3, worker_kill=1.0, worker_fault_attempts=1)\n"
            "ex = ProcessExecutor(max_workers=2, faults=plan)\n"
            "assert ex.map_indexed(lambda i: i, 4) == [0, 1, 2, 3]\n"
            # the replacements are told to shut down, and leave by themselves
            "for agent in ex._workers:\n"
            "    with agent.connect(None) as sock:\n"
            "        send_msg(sock, {'op': 'shutdown'})\n"
            "    assert os.waitpid(agent.pid, 0)[1] == 0\n"
            "    agent.pid = 0\n"
            "ex.shutdown()\n"
            "print(os.getpid())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, str(log)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert log.read_text().split() == [proc.stdout.strip()]

    def test_connection_without_token_is_refused(self, tmp_path):
        import socket

        from repro.mpc.wire import ProtocolError, recv_msg, send_msg

        ex = ProcessExecutor(max_workers=2)
        self.agent_pids(ex)
        agent = ex._workers[0]
        marker = tmp_path / "unpickled"
        for prefix in (b"", b"\0" * len(agent.token)):
            with socket.create_connection(agent.addr, timeout=10) as sock:
                sock.sendall(prefix)
                send_msg(sock, {"op": "ping", "probe": _Touch(str(marker))})
                with pytest.raises((ProtocolError, OSError)):
                    recv_msg(sock)
        assert not marker.exists()
        with agent.connect(10) as sock:  # the same agent answers its driver
            send_msg(sock, {"op": "ping"})
            assert recv_msg(sock)["ok"]
        ex.shutdown()

    def test_agents_are_seeded_with_the_dataset(self, rng):
        from repro.api import build_cluster, solve_kcenter

        cluster = build_cluster(rng.normal(size=(300, 2)), machines=4, seed=1,
                                backend="process", max_workers=2)
        solve_kcenter(k=4, cluster=cluster)
        ex = cluster.executor
        assert ex.dispatched_chunks > 0 and ex.datasets_shipped == 0
        ex.shutdown()

    def test_facade_solves_leave_no_agent(self, rng, monkeypatch):
        from repro.api import solve_diversity, solve_kcenter

        forks = []
        spawn = ProcessExecutor._agent
        monkeypatch.setattr(ProcessExecutor, "_agent",
                            lambda ex, slot: forks.append(slot) or spawn(ex, slot))
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pts = rng.normal(size=(300, 2))
        before = _children()
        gc.disable()  # only the facade may reap, not a collection
        try:
            for seed in range(3):
                solve_kcenter(pts, k=4, machines=4, seed=seed, backend="process")
                solve_diversity(pts, k=4, machines=4, seed=seed, backend="process")
            assert forks
            assert _children() <= before
        finally:
            gc.enable()
