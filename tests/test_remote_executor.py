"""Tests for the remote execution backend (repro.mpc.remote).

The contract under test is the same one the process backend carries:
remote runs — healthy, faulted, or degraded — must be bit-identical to
serial runs, CountingOracle ledger included.  On top of that, the
protocol edges the issue calls out: truncated frames, workers that
accept then hang past the lease, duplicate results after a re-dispatch
(first-writer-wins), and dataset-cache misses on restarted workers.

Everything runs against in-process :class:`WorkerAgent` instances on
ephemeral loopback ports — real sockets, no subprocesses.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.api import solve_kcenter
from repro.faults import FaultPlan
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.cluster import MPCCluster
from repro.mpc.remote import (
    REMOTE_WORKERS_ENV_VAR,
    ProtocolError,
    RemoteExecutor,
    WorkerAgent,
    parse_worker_addresses,
    recv_msg,
    send_msg,
)


@pytest.fixture
def agents():
    """Three live in-process worker agents; stopped at teardown."""
    pool = [WorkerAgent() for _ in range(3)]
    addrs = [a.start() for a in pool]
    yield pool, addrs
    for a in pool:
        a.stop()


@pytest.fixture
def points(rng):
    return rng.normal(scale=3.0, size=(240, 2))


def serial_baseline(points, *, k=4, seed=7, eps=0.3):
    from repro.mpc.executor import SerialExecutor

    oracle = CountingOracle(EuclideanMetric(points))
    cluster = MPCCluster(oracle, 4, seed=seed, executor=SerialExecutor())
    res = solve_kcenter(k=k, eps=eps, cluster=cluster)
    return res, oracle


def remote_run(points, addrs, *, k=4, seed=7, eps=0.3, faults=None, **kw):
    oracle = CountingOracle(EuclideanMetric(points))
    executor = RemoteExecutor(addrs, **kw)
    cluster = MPCCluster(
        oracle, 4, seed=seed, executor=executor, faults=faults
    )
    res = solve_kcenter(k=k, eps=eps, cluster=cluster)
    executor.shutdown()
    return res, oracle, executor


def assert_identical(res_a, oracle_a, res_b, oracle_b):
    assert res_a.radius == res_b.radius
    assert np.array_equal(np.sort(res_a.centers), np.sort(res_b.centers))
    assert res_a.rounds == res_b.rounds
    assert oracle_a.calls == oracle_b.calls
    assert oracle_a.evaluations == oracle_b.evaluations


class TestAddressParsing:
    def test_string_list_and_tuples(self):
        assert parse_worker_addresses("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_worker_addresses(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
        assert parse_worker_addresses(None) == []
        assert parse_worker_addresses("") == []

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_worker_addresses("nocolon")
        with pytest.raises(ValueError, match="port"):
            parse_worker_addresses("host:notaport")
        with pytest.raises(ValueError, match="out of range"):
            parse_worker_addresses("host:70000")
        with pytest.raises(ValueError, match="out of range"):
            parse_worker_addresses("host:0")

    def test_zero_port_allowed_for_listen(self):
        assert parse_worker_addresses(
            "127.0.0.1:0", allow_zero_port=True
        ) == [("127.0.0.1", 0)]

    def test_env_var_default(self, monkeypatch, agents):
        _pool, addrs = agents
        spec = ",".join(f"{h}:{p}" for h, p in addrs)
        monkeypatch.setenv(REMOTE_WORKERS_ENV_VAR, spec)
        ex = RemoteExecutor()
        assert ex.fallback_reason is None
        assert len(ex._workers) == 3

    def test_no_workers_means_immediate_fallback(self, monkeypatch):
        monkeypatch.delenv(REMOTE_WORKERS_ENV_VAR, raising=False)
        ex = RemoteExecutor()
        assert ex.fallback_reason is not None
        # the ladder still computes correctly
        assert ex.map_indexed(lambda i: i * i, 4) == [0, 1, 4, 9]

    def test_max_workers_caps_addresses(self, agents):
        _pool, addrs = agents
        ex = RemoteExecutor(addrs, max_workers=2)
        assert len(ex._workers) == 2


class TestBitIdentity:
    def test_clean_run_matches_serial(self, points, agents):
        _pool, addrs = agents
        ser, ser_oracle = serial_baseline(points)
        rem, rem_oracle, ex = remote_run(points, addrs)
        assert_identical(ser, ser_oracle, rem, rem_oracle)
        rec = ex.recovery_stats()
        assert rec["workers_lost"] == 0
        assert rec["dispatched_chunks"] > 0
        # the dataset shipped once per worker, not once per chunk
        assert rec["datasets_shipped"] == 3

    def test_chaos_run_matches_serial(self, points, agents):
        """Seeded drop + kill faults: survivors absorb the work and the
        result (ledger included) still matches serial — the acceptance
        scenario of the issue, in-process."""
        _pool, addrs = agents
        ser, ser_oracle = serial_baseline(points)
        plan = FaultPlan(seed=0, remote_kill=0.04, remote_drop=0.06)
        rem, rem_oracle, ex = remote_run(points, addrs, faults=plan)
        assert_identical(ser, ser_oracle, rem, rem_oracle)
        rec = ex.recovery_stats()
        assert rec["faults_injected"] > 0
        assert rec["redispatched_chunks"] > 0

    def test_pool_loss_degrades_and_matches_serial(self, points, agents):
        """Killing every agent mid-run forces the local ladder; the
        reasons land in recovery_stats() and the result is unchanged."""
        pool, addrs = agents
        ser, ser_oracle = serial_baseline(points)
        plan = FaultPlan(seed=1, remote_kill=1.0, remote_fault_attempts=99)
        rem, rem_oracle, ex = remote_run(points, addrs, faults=plan)
        assert_identical(ser, ser_oracle, rem, rem_oracle)
        assert ex.fallback_reason is not None
        assert "remote pool lost" in ex.fallback_reason
        rec = ex.recovery_stats()
        assert rec["workers_lost"] == 3
        assert rec["local_fallbacks"] + rec["serial_fallbacks"] >= 1
        assert rec["degradations"]
        status = ex.pool_status()
        assert status["alive"] == 0
        assert all(not w["alive"] for w in status["workers"].values())

    def test_unreachable_pool_degrades(self, points):
        # grab a port that is certainly closed
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        ser, ser_oracle = serial_baseline(points)
        rem, rem_oracle, ex = remote_run(
            points, [("127.0.0.1", port)], connect_timeout_s=0.2
        )
        assert_identical(ser, ser_oracle, rem, rem_oracle)
        assert ex.fallback_reason is not None


class TestObservability:
    def test_chunks_emit_remote_spans_and_metric(self, points, agents):
        from repro.obs import Observer
        from repro.obs.metrics import MetricsObserver, MetricsRegistry

        names = []

        class Spans(Observer):
            def on_exec_span(self, span):
                names.append(span.name)

        _pool, addrs = agents
        registry = MetricsRegistry()
        executor = RemoteExecutor(addrs)
        cluster = MPCCluster(EuclideanMetric(points), 4, seed=7, executor=executor)
        cluster.obs.add(MetricsObserver(registry))
        cluster.obs.add(Spans())
        solve_kcenter(k=4, eps=0.3, cluster=cluster)
        executor.shutdown()
        assert names and set(names) == {"remote/chunk"}
        assert registry.counter("repro_remote_chunks_total").value == len(names)


class TestProtocolEdges:
    def test_truncated_frame_raises_protocol_error(self, agents):
        pool, addrs = agents
        with socket.create_connection(addrs[0]) as sock:
            send_msg(sock, {"op": "ping"})
            sock.settimeout(2.0)
            # read only half the reply, then reuse the raw tail: the
            # driver-side reader must fail loudly, not hang or return junk
            header = sock.recv(8)
            (length,) = struct.unpack("!Q", header)
            assert length > 0
        # a server that closes mid-frame produces ProtocolError
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)

        def half_reply():
            conn, _ = srv.accept()
            recv_msg(conn)
            blob = pickle.dumps({"ok": True})
            conn.sendall(struct.pack("!Q", len(blob)) + blob[: len(blob) // 2])
            conn.close()

        t = threading.Thread(target=half_reply, daemon=True)
        t.start()
        with socket.create_connection(srv.getsockname()) as sock:
            sock.settimeout(2.0)
            send_msg(sock, {"op": "ping"})
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_msg(sock)
        srv.close()

    def test_oversized_header_rejected(self):
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)

        def huge_header():
            conn, _ = srv.accept()
            conn.sendall(struct.pack("!Q", 1 << 62))
            time.sleep(0.2)
            conn.close()

        threading.Thread(target=huge_header, daemon=True).start()
        with socket.create_connection(srv.getsockname()) as sock:
            sock.settimeout(2.0)
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_msg(sock)
        srv.close()

    def test_agent_survives_garbage_request(self, agents):
        pool, addrs = agents
        with socket.create_connection(addrs[0]) as sock:
            sock.sendall(struct.pack("!Q", 7) + b"garbage")
        # agent dropped the bad connection but still answers pings
        with socket.create_connection(addrs[0]) as sock:
            sock.settimeout(2.0)
            send_msg(sock, {"op": "ping"})
            assert recv_msg(sock)["ok"] is True

    def test_hung_worker_forfeits_lease_and_chunk_redispatches(
        self, points, agents
    ):
        """A worker that passes the ping handshake, accepts its chunk,
        then hangs without heartbeating: the lease expires, the chunk
        re-dispatches to the survivors, and the result stays
        bit-identical to serial."""
        released = threading.Event()

        class HangingAgent(WorkerAgent):
            def _handle_run(self, conn, request):
                released.wait(30.0)  # never heartbeats, never replies

        pool, addrs = agents
        hung = HangingAgent()
        hung_addr = hung.start()
        try:
            ser, ser_oracle = serial_baseline(points)
            rem, rem_oracle, ex = remote_run(
                points,
                [hung_addr] + [tuple(a) for a in addrs],
                lease_s=0.3,
                chunk_timeout_s=5.0,
            )
            assert_identical(ser, ser_oracle, rem, rem_oracle)
            rec = ex.recovery_stats()
            assert rec["workers_lost"] == 1
            assert rec["redispatched_chunks"] >= 1
            dead = [
                w for w in ex.pool_status()["workers"].values()
                if not w["alive"]
            ]
            assert len(dead) == 1
            assert "lease expired" in dead[0]["reason"]
        finally:
            released.set()
            hung.stop()

    def test_duplicate_late_result_first_writer_wins(self, agents):
        """A worker whose chunk outlives the deadline (while still
        heartbeating) is abandoned and the chunk re-dispatched; when the
        slow original finally answers, the reaper routes it into the
        first-writer-wins gate and it is counted as a duplicate, not
        stored twice."""
        pool, addrs = agents
        # pick a seed where exactly one of the three first-batch chunk
        # slots draws the delay, so the other two workers survive
        for seed in range(64):
            plan = FaultPlan(
                seed=seed, remote_delay=0.34, remote_delay_s=1.5
            )
            rolls = [plan.remote_fault(1, s) for s in range(3)]
            if rolls.count("delay") == 1:
                break
        else:  # pragma: no cover - 64 seeds always suffice
            pytest.fail("no seed produced exactly one delayed slot")

        ex = RemoteExecutor(
            [tuple(a) for a in addrs],
            faults=plan,
            lease_s=5.0,  # heartbeats keep the lease warm during the delay
            chunk_timeout_s=0.5,  # ... but the chunk deadline still trips
        )
        out = ex.map_indexed(lambda i: i * 11, 6)
        assert out == [i * 11 for i in range(6)]
        rec = ex.recovery_stats()
        assert rec["redispatched_chunks"] >= 1
        assert rec["workers_lost"] == 1
        dead = [
            w for w in ex.pool_status()["workers"].values() if not w["alive"]
        ]
        assert "deadline exceeded" in dead[0]["reason"]
        # the abandoned original lands ~1.5s in; wait for the reaper
        deadline = time.monotonic() + 8.0
        while time.monotonic() < deadline and ex.duplicate_results == 0:
            time.sleep(0.05)
        assert ex.duplicate_results >= 1
        # first-writer-wins: the salvaged duplicate did not corrupt the
        # already-returned batch
        assert out == [i * 11 for i in range(6)]
        ex.shutdown()

    def test_dataset_cache_miss_on_restarted_worker(self, points, agents):
        """Stop + restart an agent on the same port between two batches:
        its cache is cold, the driver re-ships on need_dataset, and the
        second solve still matches serial."""
        pool, addrs = agents
        oracle = CountingOracle(EuclideanMetric(points))
        executor = RemoteExecutor([tuple(a) for a in addrs])
        cluster = MPCCluster(oracle, 4, seed=7, executor=executor)
        res1 = solve_kcenter(k=4, eps=0.3, cluster=cluster)
        shipped_before = executor.datasets_shipped
        assert shipped_before == 3

        # restart agent 0 in place: same port, empty dataset cache
        pool[0].stop()
        fresh = WorkerAgent(addrs[0][0], addrs[0][1])
        for _ in range(20):
            try:
                fresh.start()
                break
            except OSError:
                time.sleep(0.1)
        pool[0] = fresh

        oracle2 = CountingOracle(EuclideanMetric(points))
        cluster2 = MPCCluster(oracle2, 4, seed=7, executor=executor)
        res2 = solve_kcenter(k=4, eps=0.3, cluster=cluster2)
        assert res2.radius == res1.radius
        assert np.array_equal(np.sort(res2.centers), np.sort(res1.centers))
        # the restarted worker was re-shipped exactly once more
        assert executor.datasets_shipped == shipped_before + 1
        ser, ser_oracle = serial_baseline(points)
        assert res2.radius == ser.radius
        assert oracle2.calls == ser_oracle.calls
        assert oracle2.evaluations == ser_oracle.evaluations
        executor.shutdown()


class TestEffectiveWorkersReporting:
    def test_surviving_pool_size_reported(self, points, agents):
        pool, addrs = agents
        plan = FaultPlan(seed=0, remote_kill=0.04, remote_drop=0.06)
        _res, _oracle, ex = remote_run(points, addrs, faults=plan)
        rec = ex.recovery_stats()
        lost = rec["workers_lost"]
        assert lost >= 1
        assert rec["effective_workers"] == ex.effective_workers()
        if lost < 3:
            # survivors: the report is the surviving pool, not the ctor size
            assert ex.effective_workers() == 3 - lost
            assert ex.effective_workers(1) == 1
        else:
            # whole pool gone: the local ladder answers instead
            assert ex.effective_workers() >= 1

    def test_process_executor_reports_losses(self):
        """Satellite 1: ProcessExecutor must report the surviving count
        after permanent chunk death, not the ctor value."""
        from repro.mpc.executor import ProcessExecutor

        ex = ProcessExecutor(max_workers=4, chunk_retries=0)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        assert ex.effective_workers() == 4
        assert ex.recovery_stats()["workers_lost"] == 0

        driver_pid = os.getpid()

        def die(i):
            import os as _os

            if i % 2 == 0:
                if _os.getpid() != driver_pid:
                    _os._exit(3)  # crash the forked worker only
                raise RuntimeError("still broken in the serial re-run")
            return i

        # crashes burn the (zero) retry budget; the serial re-run then
        # surfaces the real error, and the loss is visible afterwards
        with pytest.raises(RuntimeError, match="serial re-run"):
            ex.map_indexed(die, 8)
        rec = ex.recovery_stats()
        assert rec["workers_lost"] >= 1
        assert rec["effective_workers"] == ex.effective_workers()
        assert ex.effective_workers() < 4
        ex.shutdown()

    def test_worker_agent_slots_honor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        agent = WorkerAgent()
        assert agent.slots == 5
        monkeypatch.delenv("REPRO_WORKERS")
        assert WorkerAgent(slots=2).slots == 2


class TestFaultPlanRemoteLayer:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(remote_drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(remote_drop=0.6, remote_kill=0.6)
        with pytest.raises(ValueError):
            FaultPlan(remote_delay=0.1, remote_delay_s=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(remote_fault_attempts=0)

    def test_deterministic_and_clears_after_attempts(self):
        plan = FaultPlan(seed=3, remote_drop=0.5, remote_fault_attempts=1)
        rolls = [plan.remote_fault(1, c) for c in range(32)]
        assert rolls == [plan.remote_fault(1, c) for c in range(32)]
        assert any(r == "drop" for r in rolls)
        assert any(r is None for r in rolls)
        # attempt >= remote_fault_attempts: the retry must run clean
        assert all(
            plan.remote_fault(1, c, attempt=1) is None for c in range(32)
        )

    def test_roundtrip_and_describe(self):
        plan = FaultPlan(seed=9, remote_kill=0.2, remote_delay=0.1)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.remote_kill == 0.2
        assert clone.remote_delay == 0.1
        assert "remote(" in plan.describe()
        assert plan.remote_active
        assert not FaultPlan().remote_active


class TestAgentLifecycle:
    def test_shutdown_agents(self, agents):
        pool, addrs = agents
        ex = RemoteExecutor([tuple(a) for a in addrs])
        ex.shutdown_agents()
        assert all(not w.alive for w in ex._workers)
        for host, port in addrs:
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=0.5)

    def test_version_handshake_present_in_ping(self, agents):
        import sys

        _pool, addrs = agents
        with socket.create_connection(addrs[0]) as sock:
            sock.settimeout(2.0)
            send_msg(sock, {"op": "ping"})
            reply = recv_msg(sock)
        assert tuple(reply["python"]) == tuple(sys.version_info[:2])
        assert reply["slots"] >= 1
