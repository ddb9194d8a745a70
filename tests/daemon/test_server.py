"""The selector-loop server: backpressure, hostile clients, and the
single-thread contract, over a real Unix-domain socket."""

import socket
import threading
import time

import pytest

from repro.daemon import protocol as proto
from repro.daemon.client import DaemonClient
from repro.daemon.profiles import demo_book
from repro.daemon.service import Daemon

from tests.daemon.conftest import (
    make_daemon,
    make_daemon_config,
    run_request,
    serving,
)

pytestmark = pytest.mark.slow


def raw_connect(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(str(path))
    return sock


def read_line(sock):
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(4096)
        assert chunk, "server closed the connection"
        data += chunk
    return proto.decode(data)


def test_stalled_watcher_does_not_stall_the_driver(tmp_path):
    # 16 busy nodes publish about 2 kB of telemetry per epoch, which
    # fills the watcher's socket buffer long before 500 epochs (small,
    # short epochs keep the simulation cheap); a watcher that never
    # reads must cost the driver nothing
    daemon = Daemon(make_daemon_config(scheduler_kwargs=dict(
        n_slots=16, power_budget=1200.0, n_workers=1, epoch=0.1)),
        demo_book(n_workers=1))
    path = tmp_path / "d.sock"
    try:
        with serving(daemon, path), \
                DaemonClient(socket_path=str(path),
                             timeout=10.0) as watcher, \
                DaemonClient(socket_path=str(path),
                             timeout=10.0) as driver:
            watcher.watch("slow", topic="", hwm=8, events=True)
            for i in range(16):
                assert isinstance(driver.request(
                    run_request(f"j{i}", seconds=1000.0)), proto.RunReply)
            epochs = 0
            while epochs <= 500:
                reply = driver.tick(5)
                assert isinstance(reply, proto.TickReply), reply
                assert reply.epochs == 5
                epochs += reply.epochs
            # the watcher's own stream is still there once it reads
            assert watcher.recv_frame(timeout=10.0) is not None
    finally:
        daemon.close()


def test_client_closing_mid_line_is_dropped(tmp_path):
    daemon = make_daemon()
    path = tmp_path / "d.sock"
    try:
        with serving(daemon, path), \
                DaemonClient(socket_path=str(path), timeout=10.0) as other:
            quitter = raw_connect(path)
            quitter.sendall(proto.encode(proto.WatchRequest(watch_id="w"))
                            + b'{"v": 1, "type": "info_req')
            assert isinstance(read_line(quitter), proto.WatchReply)
            quitter.close()
            # dropping the connection detached its watch, so another
            # client may resume it
            deadline = time.monotonic() + 10.0
            while True:
                reply = other.watch("w")
                if isinstance(reply, proto.WatchReply):
                    break
                assert reply.code == "bad-request", reply
                assert time.monotonic() < deadline, "quitter never dropped"
                time.sleep(0.01)
            assert reply.resumed
            assert isinstance(other.info(), proto.InfoReply)
    finally:
        daemon.close()


def test_malformed_line_gets_a_protocol_error(tmp_path):
    daemon = make_daemon()
    path = tmp_path / "d.sock"
    try:
        with serving(daemon, path):
            sock = raw_connect(path)
            try:
                sock.sendall(b"not json\n")
                reply = read_line(sock)
                assert isinstance(reply, proto.ErrorReply)
                assert reply.code == "protocol"
                # the connection survives the bad line
                sock.sendall(proto.encode(proto.InfoRequest()))
                assert isinstance(read_line(sock), proto.InfoReply)
            finally:
                sock.close()
    finally:
        daemon.close()


def test_serving_starts_no_thread(tmp_path):
    daemon = make_daemon()
    path = tmp_path / "d.sock"
    try:
        with serving(daemon, path):
            # the loop's own thread is the only one serving started
            threads = threading.active_count()
            with DaemonClient(socket_path=str(path),
                              timeout=10.0) as watcher, \
                    DaemonClient(socket_path=str(path),
                                 timeout=10.0) as driver:
                watcher.watch("w", topic="", events=True)
                driver.request(run_request("a"))
                assert threading.active_count() == threads
                for _ in range(3):
                    assert isinstance(driver.tick(1), proto.TickReply)
                    assert threading.active_count() == threads
                assert watcher.recv_frame(timeout=10.0) is not None
            assert threading.active_count() == threads
    finally:
        daemon.close()
