"""The lease coordinator's message transports, plus the chaos wrapper.

Two transports carry the same messages between the coordinator
(:mod:`.fleet`) and its agents: :class:`PipeCoordinator` (``warm``, one
``multiprocessing`` pipe per forked agent) and :class:`TcpCoordinator`
(``distributed``: agents connect out to a localhost or
``DistributedOptions.bind`` socket, from this host or others).  TCP
messages travel as length-prefixed, versioned frames (:data:`_HEADER`),
so a torn read or a protocol-drifted peer fails loudly as a
:class:`TransportError`, never as silent corruption.

Both are deliberately dumb pipes: delivery order is per-sender FIFO,
delivery itself is at-least-once *at best* — the lease/commit machinery
in :mod:`.fleet` owns correctness, the transport owns only bytes.  That
split is what makes the chaos wrapper honest:
:class:`ChaosCoordinatorTransport` sits where every message already
passes (the coordinator's edge) and drops, delays, duplicates, or
partitions traffic under the same sha256-pure
:class:`~repro.runner.faults.FaultPlan` that drives task faults, so a
chaos run replays bit-identically from its seed.

RPR013 applies here: transport code never reads the wall clock.  The
chaos wrapper holds delayed messages for a counted number of polls.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import struct
from abc import ABC, abstractmethod
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from ..faults import FaultPlan

__all__ = [
    "AgentLink",
    "ChaosCoordinatorTransport",
    "CoordinatorTransport",
    "PipeCoordinator",
    "PipeWorker",
    "TcpCoordinator",
    "TcpWorker",
    "TransportError",
    "decode_frames",
    "encode_frame",
]

#: A protocol message: ``(type, sender_worker_id, ...)`` from workers,
#: ``(type, ...)`` from the coordinator (the recipient is the address).
Message = Tuple[Any, ...]

_MAGIC = b"RPRD"
#: Bumped whenever a message shape changes, so a peer from an older
#: build is refused on its first frame instead of failing mid-lease.
_VERSION = 3
#: Frame header: magic, protocol version, payload length (big-endian).
_HEADER = struct.Struct(">4sBI")
#: Refuse absurd frames before allocating for them.
_MAX_FRAME = 64 * 1024 * 1024


class TransportError(RuntimeError):
    """The peer is gone or speaking a different protocol."""


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def encode_frame(message: Message) -> bytes:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > _MAX_FRAME:  # pragma: no cover - absurd message
        raise TransportError(f"frame too large: {len(payload)} bytes")
    return _HEADER.pack(_MAGIC, _VERSION, len(payload)) + payload


def decode_frames(buffer: bytearray) -> List[Message]:
    """Consume every complete frame at the head of ``buffer``.

    Partial trailing bytes stay in the buffer for the next read; a bad
    magic or version is unrecoverable (the stream cannot be resynced)
    and raises :class:`TransportError`.
    """
    out: List[Message] = []
    while len(buffer) >= _HEADER.size:
        magic, version, length = _HEADER.unpack_from(buffer)
        if magic != _MAGIC:
            raise TransportError(f"bad frame magic {magic!r}")
        if version != _VERSION:
            raise TransportError(
                f"peer speaks frame version {version}, expected {_VERSION}")
        if length > _MAX_FRAME:
            raise TransportError(f"frame too large: {length} bytes")
        if len(buffer) < _HEADER.size + length:
            break
        payload = bytes(buffer[_HEADER.size:_HEADER.size + length])
        del buffer[:_HEADER.size + length]
        message = pickle.loads(payload)
        if not isinstance(message, tuple) or not message:
            raise TransportError("frame payload is not a message tuple")
        out.append(message)
    return out


def _sender_of(message: Message) -> Optional[str]:
    """The worker id a message came from (worker messages carry it in
    slot 1), or None for malformed/coordinator frames."""
    if len(message) >= 2 and isinstance(message[1], str):
        return message[1]
    return None


# ----------------------------------------------------------------------
# The transport seam
# ----------------------------------------------------------------------
class CoordinatorTransport(ABC):
    """Coordinator side: receive from any worker, send to a known one."""

    @abstractmethod
    def poll(self, timeout_s: float) -> List[Message]:
        """Every message that arrived, waiting up to ``timeout_s``."""

    @abstractmethod
    def send(self, worker_id: str, message: Message) -> bool:
        """Send to ``worker_id``; False when no route exists or the send
        visibly failed (the message never left the coordinator)."""

    def pending(self) -> int:
        """Messages held inside the transport (chaos delays); the
        completion check drains these before declaring a batch done."""
        return 0

    @abstractmethod
    def close(self) -> None:
        """Release sockets (idempotent)."""


# ----------------------------------------------------------------------
# Pipes
# ----------------------------------------------------------------------
class PipeCoordinator(CoordinatorTransport):
    """One pipe per local agent, routed by the id it was forked with.

    A pipe that reports EOF is dropped: its agent is dead, and the
    coordinator sees that through the process itself.
    """

    def __init__(self) -> None:
        self._routes: Dict[str, Connection] = {}

    def attach(self, worker_id: str, conn: Connection) -> None:
        self._routes[worker_id] = conn

    def _drop(self, conn: Connection) -> None:
        for worker_id, route in list(self._routes.items()):
            if route is conn:
                del self._routes[worker_id]
        conn.close()

    def poll(self, timeout_s: float) -> List[Message]:
        out: List[Message] = []
        conns = list(self._routes.values())
        ready = wait(conns, timeout_s)
        for conn in conns:
            if conn not in ready:
                continue
            # Drain everything already buffered on the pipe, as the tcp
            # transport decodes every whole frame: messages that piled up
            # while the coordinator was away cost one poll, not one each.
            try:
                out.append(conn.recv())
                while conn.poll():
                    out.append(conn.recv())
            except (EOFError, OSError):
                self._drop(conn)
        return out

    def send(self, worker_id: str, message: Message) -> bool:
        conn = self._routes.get(worker_id)
        if conn is None:
            return False
        try:
            conn.send(message)
            return True
        except OSError:
            self._drop(conn)
            return False

    def close(self) -> None:
        for conn in list(self._routes.values()):
            self._drop(conn)


class PipeWorker:
    """Agent side of :class:`PipeCoordinator`, with the interface of
    :class:`TcpWorker`."""

    def __init__(self, conn: Connection) -> None:
        self._conn = conn

    def send(self, message: Message) -> None:
        try:
            self._conn.send(message)
        except (OSError, ValueError) as exc:
            raise TransportError(f"coordinator unreachable: {exc}") from exc

    def recv(self, timeout_s: float) -> Optional[Message]:
        try:
            if not self._conn.poll(timeout_s):
                return None
            message: Message = self._conn.recv()
        except (EOFError, OSError, ValueError) as exc:
            raise TransportError(f"coordinator unreachable: {exc}") from exc
        return message

    def close(self) -> None:
        self._conn.close()


# ----------------------------------------------------------------------
# TCP
# ----------------------------------------------------------------------
class TcpCoordinator(CoordinatorTransport):
    """Listening socket + one connection per worker.

    Sockets stay blocking; a selector supplies readiness, so ``recv``
    only runs on sockets with bytes (or EOF) waiting.  Routes are
    learned, not configured: the first frame carrying a worker id binds
    that id to its connection, which is what lets externally launched
    ``repro sweep worker`` processes join by just saying hello.
    """

    def __init__(self, bind: str = "127.0.0.1:0") -> None:
        host, _, port = bind.rpartition(":")
        self._server = socket.create_server((host or "127.0.0.1",
                                             int(port or 0)))
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._server, selectors.EVENT_READ)
        self._buffers: Dict[socket.socket, bytearray] = {}
        self._routes: Dict[str, socket.socket] = {}

    def address(self) -> str:
        """The ``host:port`` workers connect to."""
        host, port = self._server.getsockname()[:2]
        return f"{host}:{port}"

    def _drop_conn(self, conn: socket.socket) -> None:
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):
            pass
        self._buffers.pop(conn, None)
        for worker_id, sock in list(self._routes.items()):
            if sock is conn:
                del self._routes[worker_id]
        try:
            conn.close()
        except OSError:
            pass

    def poll(self, timeout_s: float) -> List[Message]:
        out: List[Message] = []
        for key, _ in self._selector.select(timeout_s):
            sock = key.fileobj
            assert isinstance(sock, socket.socket)
            if sock is self._server:
                conn, _addr = self._server.accept()
                # Frames are small and each one is awaited: no Nagle wait.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._selector.register(conn, selectors.EVENT_READ)
                self._buffers[conn] = bytearray()
                continue
            try:
                data = sock.recv(65536)
            except OSError:
                data = b""
            if not data:
                self._drop_conn(sock)
                continue
            buffer = self._buffers[sock]
            buffer += data
            for message in decode_frames(buffer):
                sender = _sender_of(message)
                if sender is not None:
                    self._routes[sender] = sock
                out.append(message)
        return out

    def send(self, worker_id: str, message: Message) -> bool:
        sock = self._routes.get(worker_id)
        if sock is None:
            return False
        try:
            sock.sendall(encode_frame(message))
            return True
        except OSError:
            self._drop_conn(sock)
            return False

    def close(self) -> None:
        for conn in list(self._buffers):
            self._drop_conn(conn)
        try:
            self._selector.unregister(self._server)
        except (KeyError, ValueError):
            pass
        self._selector.close()
        try:
            self._server.close()
        except OSError:
            pass


class TcpWorker:
    """Worker side of :class:`TcpCoordinator`: one blocking connection."""

    def __init__(self, address: str) -> None:
        host, _, port = address.rpartition(":")
        try:
            self._sock: Optional[socket.socket] = socket.create_connection(
                (host, int(port)), timeout=10.0)
        except OSError as exc:
            raise TransportError(
                f"cannot reach coordinator at {address}: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self._queue: Deque[Message] = deque()

    def send(self, message: Message) -> None:
        """Send to the coordinator; :class:`TransportError` if it is gone."""
        if self._sock is None:
            raise TransportError("transport closed")
        try:
            self._sock.sendall(encode_frame(message))
        except OSError as exc:
            raise TransportError(f"coordinator unreachable: {exc}") from exc

    def recv(self, timeout_s: float) -> Optional[Message]:
        """Next message, or None after ``timeout_s`` of quiet."""
        if self._queue:
            return self._queue.popleft()
        if self._sock is None:
            raise TransportError("transport closed")
        self._sock.settimeout(max(timeout_s, 1e-3))
        try:
            data = self._sock.recv(65536)
        except socket.timeout:
            return None
        except OSError as exc:
            raise TransportError(f"coordinator unreachable: {exc}") from exc
        if not data:
            raise TransportError("coordinator closed the connection")
        self._buffer += data
        self._queue.extend(decode_frames(self._buffer))
        return self._queue.popleft() if self._queue else None

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


#: Agent side: one connection to the coordinator.
AgentLink = Union[TcpWorker, PipeWorker]


# ----------------------------------------------------------------------
# Deterministic network chaos
# ----------------------------------------------------------------------
class ChaosCoordinatorTransport(CoordinatorTransport):
    """Inject network faults at the coordinator's edge, deterministically.

    Every message (both directions) passes through here, keyed for the
    fault plan as ``"<worker>|<msg-type>"`` with a per-key sequence
    number as the attempt — so ``only_keys=("w0.1|result",)`` with
    ``max_faulty_attempts=1`` targets exactly worker ``w0.1``'s first
    result message, on any machine, under any timing.  Lease traffic is
    faulted only while its task is within ``max_faulty_attempts``.

    - **drop**: the message vanishes (sends still report success — a
      silent network loses bytes without telling the sender).
    - **delay**: the message is held for ``plan.delay_polls`` calls to
      :meth:`poll` before delivery (counted, not timed — RPR013).
    - **duplicate**: the message is delivered twice back-to-back.
    - **partition**: keyed per worker on a *window* counter that
      advances every ``plan.partition_window`` messages the worker is
      involved in, so a partition isolates all of a worker's traffic for
      whole windows and heals as traffic (e.g. its idle re-hellos) keeps
      flowing.
    """

    def __init__(self, inner: CoordinatorTransport, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._key_seq: Dict[str, int] = {}
        #: Lease id -> the task attempt it carries (from outbound leases).
        self._lease_attempt: Dict[int, int] = {}
        self._traffic: Dict[str, int] = {}
        #: Held deliveries: [polls_left, worker_id, message, outbound].
        self._held: List[List[Any]] = []
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.partitioned = 0

    # -- fault decisions ----------------------------------------------
    def _partitioned(self, worker_id: str) -> bool:
        count = self._traffic.get(worker_id, 0) + 1
        self._traffic[worker_id] = count
        window = (count - 1) // max(1, self._plan.partition_window) + 1
        if self._plan.decide("partition", worker_id, window):
            self.partitioned += 1
            return True
        return False

    def _task_attempt(self, message: Message) -> int:
        """The task attempt a lease, beat or result belongs to (1 for
        fleet traffic such as hellos)."""
        if message[0] == "lease":
            self._lease_attempt[message[1]] = min(t.attempt for t in message[2])
            return self._lease_attempt[message[1]]
        if message[0] in ("beat", "result"):
            return self._lease_attempt.get(message[2], 1)
        return 1

    def _decide(self, kind: str, worker_id: str, message: Message) -> bool:
        key = f"{worker_id}|{message[0]}"
        seq_key = f"{kind}|{key}"
        seq = self._key_seq.get(seq_key, 0) + 1
        self._key_seq[seq_key] = seq
        return (self._plan.faulty(self._task_attempt(message))
                and self._plan.decide(kind, key, seq))

    # -- the wrapped interface ----------------------------------------
    def pending(self) -> int:
        return len(self._held) + self._inner.pending()

    def poll(self, timeout_s: float) -> List[Message]:
        out: List[Message] = []
        # Release held messages whose delay ran out.
        still_held: List[List[Any]] = []
        for entry in self._held:
            entry[0] -= 1
            if entry[0] > 0:
                still_held.append(entry)
            elif entry[3]:
                self._inner.send(entry[1], entry[2])
            else:
                out.append(entry[2])
        self._held = still_held

        for message in self._inner.poll(timeout_s):
            worker_id = _sender_of(message)
            if worker_id is None:
                out.append(message)
                continue
            if self._partitioned(worker_id):
                continue
            if self._decide("drop", worker_id, message):
                self.dropped += 1
                continue
            if self._decide("delay", worker_id, message):
                self.delayed += 1
                self._held.append(
                    [max(1, self._plan.delay_polls), worker_id, message,
                     False])
                continue
            out.append(message)
            if self._decide("duplicate", worker_id, message):
                self.duplicated += 1
                out.append(message)
        return out

    def send(self, worker_id: str, message: Message) -> bool:
        if self._partitioned(worker_id):
            return True  # silently lost: the sender cannot tell
        if self._decide("drop", worker_id, message):
            self.dropped += 1
            return True
        if self._decide("delay", worker_id, message):
            self.delayed += 1
            self._held.append(
                [max(1, self._plan.delay_polls), worker_id, message, True])
            return True
        sent = self._inner.send(worker_id, message)
        if sent and self._decide("duplicate", worker_id, message):
            self.duplicated += 1
            self._inner.send(worker_id, message)
        return sent

    def close(self) -> None:
        self._held.clear()
        self._inner.close()
