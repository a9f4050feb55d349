"""Unit tests for the fleet transports and the chaos wrapper.

The frame codec is tested for exactness and tamper-loudness; the TCP
pair is exercised over loopback and the pipe pair in-process; the chaos
wrapper is tested for
determinism (same plan, same faults) through a scripted in-memory inner
transport — no sleeping, no sockets, no timing dependence.
"""

import multiprocessing
import socket
import threading

import pytest

from repro.runner import FaultPlan
from repro.runner.backends import transport
from repro.runner.backends.transport import (
    ChaosCoordinatorTransport,
    CoordinatorTransport,
    PipeCoordinator,
    PipeWorker,
    TcpCoordinator,
    TcpWorker,
    TransportError,
    decode_frames,
    encode_frame,
)


class TestFrameCodec:
    def test_round_trip(self):
        msgs = [("hello", "w0"), ("lease", 1, [1, 2]),
                ("result", "w0", 1, [(True, "", "", 0.5)], ("s",), False)]
        buffer = bytearray()
        for m in msgs:
            buffer += encode_frame(m)
        assert decode_frames(buffer) == msgs
        assert buffer == bytearray()  # fully consumed

    def test_partial_frame_stays_buffered(self):
        frame = encode_frame(("beat", "w0", 3))
        buffer = bytearray(frame[:-4])
        assert decode_frames(buffer) == []
        assert len(buffer) == len(frame) - 4
        buffer += frame[-4:]
        assert decode_frames(buffer) == [("beat", "w0", 3)]

    def test_bad_magic_is_loud(self):
        buffer = bytearray(b"XXXX" + encode_frame(("hello", "w0"))[4:])
        with pytest.raises(TransportError, match="magic"):
            decode_frames(buffer)

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_wrong_version_is_loud(self, version):
        frame = bytearray(encode_frame(("hello", "w0")))
        frame[4] = version  # version byte
        with pytest.raises(TransportError, match="version"):
            decode_frames(frame)

    def test_non_tuple_payload_is_loud(self):
        import pickle
        import struct

        payload = pickle.dumps(["not", "a", "tuple"])
        frame = struct.Struct(">4sBI").pack(
            b"RPRD", transport._VERSION, len(payload)) + payload
        with pytest.raises(TransportError, match="tuple"):
            decode_frames(bytearray(frame))


class TestTcpPair:
    def test_hello_learns_route_and_round_trips(self):
        coord = TcpCoordinator()
        try:
            worker = TcpWorker(coord.address())
            try:
                worker.send(("hello", "w9"))
                messages = []
                for _ in range(50):
                    messages = coord.poll(0.1)
                    if messages:
                        break
                assert messages == [("hello", "w9")]
                assert coord.send("w9", ("lease", 1, []))
                got = None
                for _ in range(50):
                    got = worker.recv(0.1)
                    if got is not None:
                        break
                assert got == ("lease", 1, [])
            finally:
                worker.close()
        finally:
            coord.close()

    def test_round_trip_preserves_sender_fifo(self):
        coord = TcpCoordinator()
        worker = TcpWorker(coord.address())
        try:
            sent = [("hello", "w0")] + [("beat", "w0", i) for i in range(20)]
            for message in sent:
                worker.send(message)
            got = []
            for _ in range(100):
                got += coord.poll(0.05)
                if len(got) >= len(sent):
                    break
            assert got == sent
            leases = [("lease", i, []) for i in range(3)]
            for message in leases:
                assert coord.send("w0", message)
            received = []
            for _ in range(100):
                message = worker.recv(0.05)
                if message is not None:
                    received.append(message)
                if len(received) == len(leases):
                    break
            assert received == leases
        finally:
            worker.close()
            coord.close()

    def test_empty_poll_returns_empty(self):
        coord = TcpCoordinator()
        try:
            assert coord.poll(0.05) == []
            worker = TcpWorker(coord.address())
            try:
                assert worker.recv(0.05) is None
            finally:
                worker.close()
        finally:
            coord.close()

    def test_send_without_route_reports_failure(self):
        coord = TcpCoordinator()
        try:
            assert coord.send("nobody", ("stop",)) is False
        finally:
            coord.close()

    def test_unreachable_coordinator_is_loud(self):
        with pytest.raises(TransportError, match="cannot reach"):
            TcpWorker("127.0.0.1:1")  # reserved port, nothing listens

    def test_worker_detects_closed_coordinator(self):
        coord = TcpCoordinator()
        worker = TcpWorker(coord.address())
        try:
            worker.send(("hello", "w0"))
            for _ in range(50):
                if coord.poll(0.1):
                    break
            coord.close()
            with pytest.raises(TransportError):
                for _ in range(100):
                    worker.recv(0.05)
        finally:
            worker.close()

    def test_large_frame_round_trips(self):
        # Several recv() buffers worth, so reassembly is exercised.
        coord = TcpCoordinator()
        worker = TcpWorker(coord.address())
        try:
            big = ("result", "w0", 1, [], "x" * 500_000, False)
            done = threading.Thread(target=worker.send, args=(big,))
            done.start()
            messages = []
            for _ in range(200):
                messages += coord.poll(0.05)
                if messages:
                    break
            done.join()
            assert messages == [big]
        finally:
            worker.close()
            coord.close()


    def test_both_ends_set_tcp_nodelay(self):
        # Every frame is awaited by its peer; Nagle's algorithm would hold
        # each small one back for a delayed ACK.
        coord = TcpCoordinator()
        worker = TcpWorker(coord.address())
        try:
            worker.send(("hello", "w0"))
            for _ in range(50):
                if coord.poll(0.1):
                    break
            (accepted,) = coord._buffers
            for sock in (worker._sock, accepted):
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)
        finally:
            worker.close()
            coord.close()


class TestPipePair:
    def _pair(self):
        coord = PipeCoordinator()
        parent, child = multiprocessing.Pipe(duplex=True)
        coord.attach("w0", parent)
        return coord, PipeWorker(child)

    def test_round_trip_both_ways(self):
        coord, worker = self._pair()
        try:
            worker.send(("hello", "w0"))
            assert coord.poll(1.0) == [("hello", "w0")]
            assert coord.poll(0.01) == []
            assert coord.send("w0", ("lease", 1, []))
            assert worker.recv(1.0) == ("lease", 1, [])
            assert worker.recv(0.01) is None
        finally:
            worker.close()
            coord.close()

    def test_one_poll_drains_every_buffered_message(self):
        coord, worker = self._pair()
        try:
            sent = [("hello", "w0"), ("hello", "w0"), ("beat", "w0", 1)]
            for message in sent:
                worker.send(message)
            assert coord.poll(1.0) == sent
            assert coord.poll(0.01) == []
        finally:
            worker.close()
            coord.close()

    def test_eof_after_buffered_messages_keeps_them(self):
        coord, worker = self._pair()
        worker.send(("result", "w0", 1, (), (), False))
        worker.close()
        assert coord.poll(1.0) == [("result", "w0", 1, (), (), False)]
        assert coord.send("w0", ("stop",)) is False
        coord.close()

    def test_eof_drops_the_route(self):
        coord, worker = self._pair()
        worker.close()
        assert coord.poll(1.0) == []
        assert coord.send("w0", ("stop",)) is False
        assert coord.send("nobody", ("stop",)) is False
        coord.close()

    def test_worker_detects_closed_coordinator(self):
        coord, worker = self._pair()
        coord.close()
        with pytest.raises(TransportError):
            worker.recv(1.0)
        worker.close()


class _ScriptedInner(CoordinatorTransport):
    """Inner transport whose poll() returns pre-scripted batches and
    whose send() records — the chaos wrapper's test bench."""

    def __init__(self, batches):
        self.batches = list(batches)
        self.sent = []

    def poll(self, timeout_s):
        return self.batches.pop(0) if self.batches else []

    def send(self, worker_id, message):
        self.sent.append((worker_id, message))
        return True

    def address(self):
        return "scripted"

    def close(self):
        pass


def _chaos(plan, batches=()):
    return ChaosCoordinatorTransport(_ScriptedInner(batches), plan)


class TestChaosWrapper:
    def test_duplicate_doubles_inbound_and_outbound(self):
        plan = FaultPlan(seed=1, duplicate=1.0, max_faulty_attempts=None)
        chaos = _chaos(plan, [[("hello", "w0")]])
        assert chaos.poll(0.0) == [("hello", "w0"), ("hello", "w0")]
        chaos.send("w0", ("stop",))
        assert chaos._inner.sent == [("w0", ("stop",)), ("w0", ("stop",))]
        assert chaos.duplicated == 2

    def test_drop_returns_success_but_never_sends(self):
        plan = FaultPlan(seed=1, drop=1.0, max_faulty_attempts=None)
        chaos = _chaos(plan, [[("hello", "w0")]])
        assert chaos.poll(0.0) == []
        assert chaos.send("w0", ("stop",)) is True  # silent loss
        assert chaos._inner.sent == []
        assert chaos.dropped == 2

    def test_delay_holds_for_counted_polls(self):
        plan = FaultPlan(seed=1, delay=1.0, max_faulty_attempts=None,
                         delay_polls=3)
        chaos = _chaos(plan, [[("result", "w0", 1, [], "b", False)], [], [],
                              []])
        assert chaos.poll(0.0) == []          # captured
        assert chaos.pending() == 1
        assert chaos.poll(0.0) == []          # held (2 left)
        assert chaos.poll(0.0) == []          # held (1 left)
        released = chaos.poll(0.0)            # released
        assert released == [("result", "w0", 1, [], "b", False)]
        assert chaos.pending() == 0

    def test_partition_isolates_whole_windows_then_heals(self):
        plan = FaultPlan(seed=1, partition=1.0, max_faulty_attempts=1,
                         only_keys=("w0",), partition_window=2)
        chaos = _chaos(plan, [[("hello", "w0")], [("hello", "w0")],
                              [("hello", "w0")], [("hello", "w1")]])
        assert chaos.poll(0.0) == []          # window 1, message 1: lost
        assert chaos.poll(0.0) == []          # window 1, message 2: lost
        # Window 2 (> max_faulty_attempts): the partition healed.
        assert chaos.poll(0.0) == [("hello", "w0")]
        assert chaos.poll(0.0) == [("hello", "w1")]  # other workers untouched
        assert chaos.partitioned == 2

    def test_same_plan_same_faults(self):
        # Chaos is a pure function of (plan, traffic): two wrappers fed
        # identical traffic make identical decisions.
        traffic = [[("hello", "w0")], [("beat", "w0", 1)],
                   [("result", "w0", 1, [], "b", False)], [], [], []]
        plan = FaultPlan(seed=42, drop=0.4, delay=0.3, duplicate=0.3,
                         max_faulty_attempts=None, delay_polls=2)
        a = _chaos(plan, list(traffic))
        b = _chaos(plan, list(traffic))
        out_a = [a.poll(0.0) for _ in range(len(traffic))]
        out_b = [b.poll(0.0) for _ in range(len(traffic))]
        assert out_a == out_b
        assert (a.dropped, a.delayed, a.duplicated) == \
               (b.dropped, b.delayed, b.duplicated)

    def test_different_seed_different_faults(self):
        traffic = [[("hello", f"w{i}")] for i in range(8)]
        make = lambda seed: _chaos(  # noqa: E731
            FaultPlan(seed=seed, drop=0.5, max_faulty_attempts=None),
            list(traffic))
        a, b = make(1), make(2)
        out_a = [a.poll(0.0) for _ in range(len(traffic))]
        out_b = [b.poll(0.0) for _ in range(len(traffic))]
        assert out_a != out_b
