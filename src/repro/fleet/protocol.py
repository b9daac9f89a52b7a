"""Wire protocol of the run fleet: length-prefixed JSON frames over TCP.

One message is::

    +--------+------------------+------------------+
    | 4-byte | header_len bytes | plen bytes       |
    | BE len | UTF-8 JSON       | raw payload      |
    +--------+------------------+------------------+

The JSON header always carries ``type`` and, when a binary payload
follows, its byte length under ``plen``.  Payloads are pickled task
items or run results and travel with a SHA-256 integrity digest in the
header — the receiver re-hashes before trusting a byte of it.  Keeping
the header JSON (not pickle) means liveness traffic — hello, ready,
heartbeat, shutdown — never touches the unpickler, and a foreign or
truncated frame dies in :func:`recv_msg` with a clear error instead of
deep inside a deserializer.

Stdlib only, blocking sockets, one in-flight request per connection:
the coordinator/worker conversation is strictly request/response plus
asynchronous heartbeats, so framing is the only concurrency concern and
senders serialize on a per-socket lock (:class:`FrameSocket`).

Message vocabulary (direction, header fields, payload):

========== ======== ============================================= =========
type       from     header fields                                 payload
========== ======== ============================================= =========
hello      worker   worker, pid                                   --
ready      worker   --                                            --
heartbeat  worker   --                                            --
result     worker   task, key, digest, cached, wall               pickle
error      worker   task, error, wall                             --
task       coord    task, fn ("module:qualname"), key             pickle
shutdown   coord    --                                            --
========== ======== ============================================= =========
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Optional

from repro.bench.parallel import fn_reference

__all__ = [
    "FrameSocket",
    "ProtocolError",
    "connect",
    "fn_reference",
    "resolve_fn",
]

#: sanity bounds — a frame beyond these is a protocol violation, not data
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 1 << 31

_LEN = struct.Struct(">I")


class ProtocolError(ConnectionError):
    """A malformed frame or a violated protocol invariant."""


def resolve_fn(ref: str) -> Any:
    """Import the callable behind a :func:`fn_reference` string."""
    import importlib

    module, _, qualname = ref.partition(":")
    if not module or not qualname:
        raise ProtocolError(f"malformed function reference {ref!r}")
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ProtocolError(f"function reference {ref!r} is not callable")
    return obj


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FrameSocket:
    """A socket speaking the fleet frame protocol.

    ``send`` is thread-safe (worker heartbeat threads share the socket
    with the main loop); ``recv`` must stay single-threaded per socket,
    which both ends honour by construction.  Byte counters accumulate
    so engines can report transfer volume per connection.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._send_lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, msg: dict, payload: bytes = b"") -> int:
        """Send one message; returns the total bytes written."""
        if payload:
            msg = dict(msg, plen=len(payload))
        header = json.dumps(msg, separators=(",", ":")).encode()
        if len(header) > MAX_HEADER_BYTES:
            raise ProtocolError("header exceeds protocol bound")
        frame = _LEN.pack(len(header)) + header + payload
        with self._send_lock:
            self.sock.sendall(frame)
            self.bytes_sent += len(frame)
        return len(frame)

    def recv(self) -> tuple[Optional[dict], bytes]:
        """Receive one message; ``(None, b"")`` on clean EOF."""
        try:
            prefix = _recv_exact(self.sock, _LEN.size)
        except ConnectionError:
            return None, b""
        (header_len,) = _LEN.unpack(prefix)
        if not 0 < header_len <= MAX_HEADER_BYTES:
            raise ProtocolError(f"implausible header length {header_len}")
        try:
            msg = json.loads(_recv_exact(self.sock, header_len))
        except ValueError as exc:
            raise ProtocolError(f"undecodable frame header: {exc}") from exc
        if not isinstance(msg, dict) or "type" not in msg:
            raise ProtocolError(f"frame header is not a message: {msg!r}")
        plen = msg.get("plen", 0)
        if not isinstance(plen, int) or not 0 <= plen <= MAX_PAYLOAD_BYTES:
            raise ProtocolError(f"implausible payload length {plen!r}")
        payload = _recv_exact(self.sock, plen) if plen else b""
        self.bytes_received += _LEN.size + header_len + plen
        return msg, payload

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def connect(host: str, port: int, timeout: float = 10.0) -> FrameSocket:
    """Dial a coordinator and return the framed connection."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return FrameSocket(sock)
