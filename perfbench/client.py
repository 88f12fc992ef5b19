"""Closed-loop HTTP/1.1 load from one thread over a few keep-alive connections.

Each connection sends its next request only after the previous response
has been read in full, so a slower server receives less load: the model of
scripts and operators that each wait for a reply.  One thread drives every
connection through :mod:`selectors`, so the client adds no interpreter-lock
contention of its own to the process being measured.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field


@dataclass
class Result:
    """One request: caller's key, status (0 on a connection error), body, times."""

    key: object
    status: int
    body: bytes
    sent: float
    rtt: float


@dataclass
class _Conn:
    sock: socket.socket
    key: object = None
    sent: float = 0.0
    buf: bytearray = field(default_factory=bytearray)


def _connect(addr) -> socket.socket:
    sock = socket.create_connection(addr, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _request(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def _parse(buf: bytearray):
    """``(status, body)`` once a whole response is buffered, else None."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    total = end + 4 + length
    if len(buf) < total:
        return None
    return status, bytes(buf[end + 4:total])


def closed_loop(addr, path: str, next_request, seconds: float, connections: int, on_result):
    """Drive ``connections`` closed loops for ``seconds``; returns the window.

    ``next_request()`` gives ``(key, body)``; ``on_result(Result)`` sees each
    completed request.  No request is sent after the deadline; those in
    flight are awaited.  Returns ``(t_start, t_end)`` on :func:`time.monotonic`.
    """
    sel = selectors.DefaultSelector()
    conns: list[_Conn] = []
    active: set[int] = set()

    def reconnect(conn: _Conn) -> None:
        sel.unregister(conn.sock)
        conn.sock.close()
        conn.sock = _connect(addr)
        sel.register(conn.sock, selectors.EVENT_READ, conn)

    def send(conn: _Conn) -> None:
        conn.key, body = next_request()
        conn.buf.clear()
        conn.sent = time.monotonic()
        try:
            conn.sock.sendall(_request(path, body))
        except OSError:
            on_result(Result(conn.key, 0, b"", conn.sent, time.monotonic() - conn.sent))
            reconnect(conn)
            send(conn)

    t_start = time.monotonic()
    deadline = t_start + seconds
    try:
        for i in range(connections):
            conn = _Conn(_connect(addr))
            conns.append(conn)
            active.add(i)
            sel.register(conn.sock, selectors.EVENT_READ, conn)
            send(conn)
        while active:
            events = sel.select(timeout=10.0)
            if not events:
                raise TimeoutError("no response from the server within 10 s")
            for sk, _ in events:
                conn = sk.data
                try:  # readable, so this returns without waiting
                    chunk = conn.sock.recv(65536)
                except OSError:
                    chunk = b""
                if chunk:
                    conn.buf += chunk
                    parsed = _parse(conn.buf)
                    if parsed is None:
                        continue
                    status, body = parsed
                    on_result(Result(conn.key, status, body, conn.sent, time.monotonic() - conn.sent))
                else:  # the server closed the connection mid-request
                    on_result(Result(conn.key, 0, b"", conn.sent, time.monotonic() - conn.sent))
                    reconnect(conn)
                if time.monotonic() < deadline:
                    send(conn)
                else:
                    sel.unregister(conn.sock)
                    active.discard(conns.index(conn))
    finally:
        for conn in conns:
            conn.sock.close()
        sel.close()
    return t_start, time.monotonic()
