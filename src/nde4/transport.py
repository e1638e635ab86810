"""Socket transport for framed messages.

The framing layer defines the bytes; this module only moves them. A server
wraps any handler with the signature bytes -> bytes (one request frame in,
one response frame out), so the same objects that answer in-process calls
can answer over TCP unchanged.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from typing import Callable

from .errors import Nde4Error
from .framing import BadMagic, HEADER_SIZE, MAGIC


class ConnectionClosed(Nde4Error):
    """Peer closed the connection mid-frame or before one arrived."""


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(
                f"connection closed with {remaining} of {count} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Read exactly one frame; returns the raw bytes, header included.

    Validates only the magic (to fail fast on a garbage stream); full
    validation happens when the caller decodes.
    """
    header = _recv_exact(sock, HEADER_SIZE)
    if header[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {header[:4]!r}")
    (length,) = struct.unpack("<I", header[6:10])
    payload = _recv_exact(sock, length) if length else b""
    return header + payload


class _FrameRequestHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        while True:
            try:
                frame = recv_frame(self.request)
            except (ConnectionClosed, BadMagic, OSError):
                return
            try:
                response = self.server.frame_handler(frame)  # type: ignore[attr-defined]
            except Exception:
                return  # handlers answer errors as frames; anything else drops the link
            self.request.sendall(response)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class FrameServer:
    """Threaded TCP server answering one response frame per request frame."""

    def __init__(
        self,
        handler: Callable[[bytes], bytes],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._server = _Server((host, port), _FrameRequestHandler)
        self._server.frame_handler = handler  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "FrameServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class FrameClient:
    """Blocking request/response client; one frame out, one frame back.

    A request that fails for any reason (timeout, bad magic, a peer that
    closes mid-frame) may leave part of its response in the socket, so the
    client closes the socket and every later request raises ConnectionClosed
    without sending anything.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._lock = threading.Lock()

    def request(self, frame_bytes: bytes) -> bytes:
        with self._lock:
            if self._sock.fileno() == -1:  # closed
                raise ConnectionClosed("client is closed (a request failed or close() ran)")
            try:
                self._sock.sendall(frame_bytes)
                return recv_frame(self._sock)
            except BaseException:
                self.close()
                raise

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "FrameClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
