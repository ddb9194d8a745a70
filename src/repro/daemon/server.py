"""Socket front-end: the daemon on a Unix-domain or TCP endpoint.

:class:`DaemonServer` puts a :class:`~repro.daemon.service.Daemon` on
a real socket and serves it from one :mod:`selectors` loop on the
thread that calls :meth:`DaemonServer.serve_forever`. That loop is the
only code that touches the daemon, so the daemon needs no locks: the
listener and every client socket are non-blocking, requests are decoded
off the line-delimited JSON wire (:mod:`repro.daemon.protocol`), served
through :meth:`Daemon.handle` and answered on the same connection.
``watch`` subscriptions additionally receive pushed telemetry frames
after every tick.

Backpressure: each connection has an outbound byte buffer. A
connection is polled for reads only while that buffer is empty, and
watch frames are moved into it only while it is empty, so a client
that stops reading stalls only itself. A slow watcher's backlog stays
in its bus subscription, where the high-water mark drops and counts
it, and in the bounded event outbox.

Two driving modes:

* **paced** — the loop owns an
  :class:`~repro.runtime.pacing.EpochPacer` and, once per pass,
  converts elapsed wall time (read through the audited
  :mod:`repro.obs.hostclock` module) into simulated epochs, so the
  simulation advances in real time while clients come and go;
* **manual** (``pacer=None``) — simulated time moves only when a
  client sends ``tick``. This is the deterministic mode the e2e tests
  replay command logs under.

Either way, *what* an epoch computes never depends on wall time — the
pacer only decides how many epochs to run (see
:mod:`repro.runtime.pacing`).
"""

from __future__ import annotations

import os
import selectors
import socket

from repro import obs
from repro.daemon import protocol as proto
from repro.daemon.service import Daemon
from repro.exceptions import ConfigurationError, ProtocolError
from repro.obs import hostclock
from repro.runtime.pacing import EpochPacer

__all__ = ["DaemonServer"]

_RECV_BYTES = 65536


class _ClientConn:
    """One accepted connection: its socket, the bytes received but not
    yet served, the bytes owed to the client, the selector events it
    is polled for, and the watch subscriptions it owns."""

    __slots__ = ("cid", "name", "sock", "inbuf", "outbuf", "events",
                 "watch_ids")

    def __init__(self, cid: int, sock: socket.socket) -> None:
        self.cid = cid
        self.name = f"client-{cid}"
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.events = selectors.EVENT_READ
        self.watch_ids: list[str] = []


class DaemonServer:
    """Serve one :class:`Daemon` over a socket until shutdown.

    Parameters
    ----------
    daemon:
        The service core to expose.
    socket_path:
        Unix-domain socket path; mutually exclusive with ``tcp``.
    tcp:
        ``(host, port)``; port 0 binds an ephemeral port (read the
        result from :attr:`address`).
    pacer:
        Wall-clock pacing, or None for manual (tick-by-request) mode.
    tick_wall:
        The loop's longest wait for socket activity (wall seconds):
        how often paced mode polls its pacer and how soon
        :meth:`shutdown` takes effect.
    """

    def __init__(self, daemon: Daemon, *, socket_path: str | None = None,
                 tcp: tuple[str, int] | None = None,
                 pacer: EpochPacer | None = None,
                 tick_wall: float = 0.05) -> None:
        if (socket_path is None) == (tcp is None):
            raise ConfigurationError(
                "exactly one of socket_path/tcp must be given")
        if tick_wall <= 0:
            raise ConfigurationError(
                f"tick_wall must be positive, got {tick_wall}")
        self.daemon = daemon
        self.socket_path = socket_path
        self.tcp = tcp
        self.pacer = pacer
        self.tick_wall = tick_wall
        self.address: str = ""
        self._listener: socket.socket | None = None
        self._selector = selectors.DefaultSelector()
        self._conns: dict[int, _ClientConn] = {}
        self._stop = False
        self._next_client = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self) -> str:
        """Create and bind the listening socket; returns the address."""
        if self.socket_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                listener.bind(self.socket_path)
            except OSError:
                # a previous daemon's stale socket file: claim the path
                # if nobody is listening, else re-raise
                if self._path_is_live():
                    listener.close()
                    raise
                os.unlink(self.socket_path)
                listener.bind(self.socket_path)
            self.address = self.socket_path
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self.tcp)
            host, port = listener.getsockname()[:2]
            self.address = f"{host}:{port}"
        listener.listen()
        listener.setblocking(False)
        self._listener = listener
        return self.address

    def _path_is_live(self) -> bool:
        """Is some daemon actually listening on ``socket_path``?"""
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(self.socket_path)
        except OSError:
            return False
        finally:
            probe.close()
        return True

    def serve_forever(self) -> None:
        """Bind (if needed), then serve clients and drive ticks until a
        ``shutdown`` request or :meth:`shutdown`. Blocks the calling
        thread and starts no other."""
        if self._listener is None:
            self.bind()
        self._selector.register(self._listener, selectors.EVENT_READ)
        last = hostclock.monotonic_s()
        try:
            while not self._stop:
                for key, events in self._selector.select(self.tick_wall):
                    conn = key.data
                    if conn is None:
                        self._accept()
                    elif self._conns.get(conn.cid) is conn:
                        if events & selectors.EVENT_WRITE:
                            self._flush(conn)
                            # requests queued behind the reply it sent
                            self._serve_lines(conn)
                        else:
                            self._read(conn)
                if self.pacer is not None:
                    now = hostclock.monotonic_s()
                    due = self.pacer.epochs_due(now - last)
                    last = now
                    if due:
                        self.daemon.tick(due)
                self._flush_watchers()
        finally:
            self._teardown()

    def shutdown(self) -> None:
        """Stop the loop at its next pass (at most ``tick_wall`` wall
        seconds away); safe to call from another thread."""
        self._stop = True

    def _teardown(self) -> None:
        if self._listener is not None:
            self._listener.close()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        for conn in self._conns.values():
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.sock.close()
        self._conns.clear()
        self._selector.close()

    # ------------------------------------------------------------------
    # Client handling
    # ------------------------------------------------------------------

    def _accept(self) -> None:
        assert self._listener is not None
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return  # BlockingIOError: the client gave up before accept
        sock.setblocking(False)
        conn = _ClientConn(self._next_client, sock)
        self._next_client += 1
        self._conns[conn.cid] = conn
        self._selector.register(sock, conn.events, conn)

    def _read(self, conn: _ClientConn) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            # closed by the client, possibly mid-line: what it sent of
            # an unfinished request is discarded with the connection
            self._drop_client(conn)
            return
        conn.inbuf += data
        self._serve_lines(conn)

    def _serve_lines(self, conn: _ClientConn) -> None:
        """Serve complete request lines while nothing is owed to the
        client (a client that does not read its replies gets no more
        served)."""
        while not conn.outbuf and not self._stop and \
                self._conns.get(conn.cid) is conn:
            end = conn.inbuf.find(b"\n")
            if end < 0:
                return
            line = bytes(conn.inbuf[:end + 1])
            del conn.inbuf[:end + 1]
            if line.strip():
                self._serve_line(conn, line)

    def _serve_line(self, conn: _ClientConn, line: bytes) -> None:
        try:
            request = proto.decode(line)
        except ProtocolError as exc:
            self._send(conn, [proto.ErrorReply(code="protocol",
                                               message=str(exc))])
            return
        reply = self.daemon.handle(request)
        if isinstance(request, proto.WatchRequest) and \
                isinstance(reply, proto.WatchReply):
            conn.watch_ids.append(reply.watch_id)
        self._send(conn, [reply])
        if isinstance(request, proto.TickRequest):
            # a manual tick produced telemetry; push it out now rather
            # than waiting for the loop's next pass
            self._flush_watchers()
        if isinstance(request, proto.ShutdownRequest):
            self._stop = True

    def _drop_client(self, conn: _ClientConn) -> None:
        for watch_id in conn.watch_ids:
            self.daemon.detach_watch(watch_id)
        del self._conns[conn.cid]
        self._selector.unregister(conn.sock)
        conn.sock.close()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def _flush_watchers(self) -> None:
        """Move owed watch frames into every connection whose outbound
        buffer is empty; a fuller one keeps its backlog in the bus."""
        for conn in list(self._conns.values()):
            if conn.outbuf or not conn.watch_ids:
                continue
            frames = [frame for watch_id in conn.watch_ids
                      for frame in self.daemon.drain_watch(watch_id)]
            if frames:
                self._send(conn, frames)

    def _send(self, conn: _ClientConn, messages: list) -> None:
        """Queue ``messages`` for ``conn`` and send what the socket
        takes now."""
        for message in messages:
            try:
                data = proto.encode(message)
            except ProtocolError as exc:
                data = proto.encode(proto.ErrorReply(code="internal",
                                                     message=str(exc)))
            conn.outbuf += data
        self._flush(conn)

    def _flush(self, conn: _ClientConn) -> None:
        """Send what the socket takes now. Poll for writability while
        bytes remain owed and for requests once they are all sent."""
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._drop_client(conn)
            return
        del conn.outbuf[:sent]
        obs.metrics().counter("daemon.client_bytes_out",
                              client=conn.name).inc(sent)
        events = (selectors.EVENT_WRITE if conn.outbuf
                  else selectors.EVENT_READ)
        if events != conn.events:
            conn.events = events
            self._selector.modify(conn.sock, events, conn)
