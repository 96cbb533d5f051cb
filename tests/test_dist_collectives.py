"""Communicator tests: collectives, tag matching, heartbeat liveness."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dist.collectives import Communicator
from repro.dist.heartbeat import HeartbeatMonitor
from repro.dist.transport import LocalFabric
from repro.errors import CommunicationError, RankFailure, TransportError
from repro.serve.clock import ManualClock


def _communicators(size, **kwargs):
    fabric = LocalFabric(size)
    comms = [
        Communicator(fabric.endpoint(r), recv_timeout_s=5.0, **kwargs)
        for r in range(size)
    ]
    return fabric, comms


def _run_all(comms, fn, timeout=30):
    with ThreadPoolExecutor(max_workers=len(comms)) as pool:
        futures = [pool.submit(fn, comm) for comm in comms]
        return [f.result(timeout=timeout) for f in futures]


class TestPointToPoint:
    def test_tagged_send_recv(self):
        _fabric, (a, b) = _communicators(2)
        a.send_payload(1, b"x", tag=42)
        assert b.recv_payload(0, tag=42) == b"x"

    def test_out_of_order_tags_are_parked(self):
        _fabric, (a, b) = _communicators(2)
        a.send_payload(1, b"first", tag=1)
        a.send_payload(1, b"second", tag=2)
        # asking for tag 2 first parks the tag-1 frame for later
        assert b.recv_payload(0, tag=2) == b"second"
        assert b.recv_payload(0, tag=1) == b"first"

    def test_recv_timeout_typed(self):
        _fabric, (_a, b) = _communicators(2)
        with pytest.raises(TransportError, match="timed out"):
            b.recv_payload(0, tag=1, timeout=0.1)

    def test_deadlines_run_on_the_injected_clock(self):
        clock = ManualClock()
        fabric = LocalFabric(2)
        comm = Communicator(fabric.endpoint(1), recv_timeout_s=60.0, clock=clock)
        # the wall clock never reaches 60 s; the injected one does
        timer = threading.Timer(0.3, clock.advance, args=(61.0,))
        timer.start()
        try:
            with pytest.raises(TransportError, match="timed out after 60.0s"):
                comm.recv_payload(0, tag=1)
        finally:
            timer.cancel()

    def test_rank_size_properties(self):
        _fabric, (a, b) = _communicators(2)
        assert (a.rank, a.size) == (0, 2)
        assert (b.rank, b.size) == (1, 2)


class TestCollectives:
    def test_broadcast(self):
        _fabric, comms = _communicators(3)

        def run(comm):
            payload = b"the field" if comm.rank == 0 else None
            return comm.broadcast(payload, root=0)

        assert _run_all(comms, run) == [b"the field"] * 3

    def test_broadcast_nonzero_root(self):
        _fabric, comms = _communicators(3)

        def run(comm):
            payload = b"from 2" if comm.rank == 2 else None
            return comm.broadcast(payload, root=2)

        assert _run_all(comms, run) == [b"from 2"] * 3

    def test_broadcast_root_needs_payload(self):
        _fabric, (a, _b) = _communicators(2)
        with pytest.raises(CommunicationError, match="payload"):
            a.broadcast(None, root=0)

    def test_broadcast_root_out_of_range(self):
        _fabric, (a, _b) = _communicators(2)
        with pytest.raises(CommunicationError, match="root"):
            a.broadcast(b"x", root=9)

    def test_sparse_allgather_indexed_by_rank(self):
        _fabric, comms = _communicators(4)

        def run(comm):
            return comm.sparse_allgather(f"r{comm.rank}".encode())

        for result in _run_all(comms, run):
            assert result == [b"r0", b"r1", b"r2", b"r3"]

    def test_sparse_allgather_single_rank(self):
        _fabric, comms = _communicators(1)
        assert comms[0].sparse_allgather(b"alone") == [b"alone"]

    def test_sparse_allgather_counts_exchange_category(self):
        _fabric, comms = _communicators(2)

        def run(comm):
            return comm.sparse_allgather(b"p" * 100)

        _run_all(comms, run)
        for comm in comms:
            assert comm.transport.ledger.bytes_sent("exchange") > 100

    def test_alltoall_distinct_payloads(self):
        _fabric, comms = _communicators(3)

        def run(comm):
            payloads = [f"{comm.rank}->{dst}".encode() for dst in range(3)]
            return comm.alltoall(payloads)

        results = _run_all(comms, run)
        for rank, got in enumerate(results):
            assert got == [f"{src}->{rank}".encode() for src in range(3)]

    def test_alltoall_wrong_arity(self):
        _fabric, (a, _b) = _communicators(2)
        with pytest.raises(CommunicationError, match="one payload per rank"):
            a.alltoall([b"only one"])

    def test_barrier_completes(self):
        _fabric, comms = _communicators(3)
        assert _run_all(comms, lambda c: c.barrier() or True) == [True] * 3

    def test_allgather_parks_early_next_phase_frame(self):
        """A fast peer's next-phase frame that arrives ahead of its
        allgather payload is parked, not mistaken for the payload, and a
        later receive of that phase gets it."""
        _fabric, comms = _communicators(2)
        comms[0].send_payload(1, b"next phase", tag=9)

        def run(comm):
            return comm.sparse_allgather(f"r{comm.rank}".encode(), tag=3)

        assert _run_all(comms, run) == [[b"r0", b"r1"]] * 2
        assert comms[1].recv_payload(0, tag=9, timeout=1.0) == b"next phase"

    def test_dead_peer_fails_allgather(self):
        fabric, comms = _communicators(3)
        fabric.kill(2)

        def run(comm):
            if comm.rank == 2:
                return None
            with pytest.raises(RankFailure):
                comm.sparse_allgather(b"x")
            return True

        assert _run_all(comms[:2], run) == [True, True]


class TestHeartbeatMonitor:
    def test_fresh_peers_not_overdue(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor([1, 2], timeout_s=1.0, clock=clock)
        assert monitor.overdue() == []
        monitor.check()  # no raise

    def test_silent_peer_detected(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor([1, 2], timeout_s=1.0, clock=clock)
        clock.t = 0.9
        monitor.record(1)
        clock.t = 1.5
        assert monitor.overdue() == [2]
        with pytest.raises(RankFailure, match=r"\[2\]"):
            monitor.check()

    def test_any_frame_counts_as_liveness(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor([1], timeout_s=1.0, clock=clock)
        for step in range(1, 10):
            clock.t = step * 0.8
            monitor.record(1)
        assert monitor.overdue() == []

    def test_unknown_rank_recorded_harmlessly(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor([1], timeout_s=1.0, clock=clock)
        monitor.record(99)  # not tracked; no KeyError
        assert monitor.overdue() == []


class FakeClock:
    """Deterministic monotonic clock for liveness tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestHeartbeatIntegration:
    def test_sender_beacons_and_recv_stays_alive(self):
        _fabric, comms = _communicators(2, heartbeat_s=0.05)
        try:
            # rank 1 sends nothing for a while; rank 0's receive must see
            # heartbeats (consumed silently) and then the real payload
            result = {}

            def late_send():
                import time

                time.sleep(0.3)
                comms[1].send_payload(0, b"late", tag=9)

            t = threading.Thread(target=late_send)
            t.start()
            result["got"] = comms[0].recv_payload(1, tag=9, timeout=5.0)
            t.join(timeout=5)
            assert result["got"] == b"late"
            assert comms[0].monitor is not None
            assert comms[0].monitor.overdue() == []
        finally:
            for c in comms:
                c.close()
