"""Concurrency rules: fire on lock-discipline breaks, stay quiet on
the disciplined shapes the daemon stack actually uses."""

import textwrap

from repro.lint import lint_source, select_rules
from repro.lint.core import lint_project, parse_module
from repro.lint.project import Project

CONC = select_rules(["concurrency"])


def _ids(source: str) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source),
                                        rules=CONC)]


def _project_findings(**sources: str):
    modules = [parse_module(f"src/pkg/{name}.py",
                            textwrap.dedent(src))
               for name, src in sorted(sources.items())]
    return lint_project(Project(modules), CONC)


def _project_ids(**sources: str) -> list[str]:
    return [f.rule for f in _project_findings(**sources)]


# ----------------------------------------------------------------------
# conc-unguarded-write: lock discipline within a class
# ----------------------------------------------------------------------


class TestWriteDiscipline:
    def test_split_locked_unlocked_writes_fire(self):
        assert "conc-unguarded-write" in _ids("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def put(self, x):
                    with self._lock:
                        self.items.append(x)

                def rogue(self, x):
                    self.items.append(x)
        """)

    def test_all_writes_guarded_is_quiet(self):
        assert _ids("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def put(self, x):
                    with self._lock:
                        self.items.append(x)

                def clear(self):
                    with self._lock:
                        self.items = []
        """) == []

    def test_init_writes_are_exempt(self):
        # Construction happens before the object is shared; only
        # post-construction writes split the discipline.
        assert _ids("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []
                    self.items.append(0)

                def put(self, x):
                    with self._lock:
                        self.items.append(x)
        """) == []

    def test_private_helper_inherits_callers_lock(self):
        # _bump is only ever called with the lock held, so its write is
        # guarded even though no ``with`` is lexically visible in it.
        assert _ids("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def bump(self):
                    with self._lock:
                        self._bump()

                def reset(self):
                    with self._lock:
                        self.n = 0

                def _bump(self):
                    self.n += 1
        """) == []

    def test_callback_context_is_exempt(self):
        # _on_event is registered as a value; its entry context is
        # unknowable, so its write must not count as unguarded.
        assert _ids("""
            import threading

            class Counter:
                def __init__(self, bus):
                    self._lock = threading.Lock()
                    self.count = 0
                    bus.subscribe(self._on_event)

                def _on_event(self, msg):
                    self.count += 1

                def reset(self):
                    with self._lock:
                        self.count = 0
        """) == []

    def test_suppression_comment_silences(self):
        assert _ids("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.ready = False

                def arm(self):
                    with self._lock:
                        self.ready = True

                def prearm(self):
                    self.ready = True  # repro-lint: disable=conc-unguarded-write
        """) == []


class TestThreadRootRaces:
    RACE = """
        import threading

        class Server:
            def __init__(self):
                self.jobs = []
                self.thread = threading.Thread(target=self._loop)

            def _loop(self):
                while True:
                    self.jobs.append(1)

            def drain(self):
                return list(self.jobs)
    """

    def test_cross_root_mutation_fires(self):
        assert "conc-unguarded-write" in _ids(self.RACE)

    def test_common_lock_serialises(self):
        assert _ids("""
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.jobs = []
                    self.thread = threading.Thread(target=self._loop)

                def _loop(self):
                    with self._lock:
                        self.jobs.append(1)

                def drain(self):
                    with self._lock:
                        return list(self.jobs)
        """) == []

    def test_no_thread_spawn_no_root_check(self):
        # Same accesses, but nothing spawns a thread: single-threaded
        # classes mutate freely.
        assert _ids("""
            class Server:
                def __init__(self):
                    self.jobs = []

                def push(self):
                    self.jobs.append(1)

                def drain(self):
                    return list(self.jobs)
        """) == []

    def test_event_set_is_not_a_mutation(self):
        # ``Event.set()`` (and ``Gauge.set``) must not read as a
        # collection mutation.
        assert _ids("""
            import threading

            class Worker:
                def __init__(self):
                    self.stop = threading.Event()
                    self.thread = threading.Thread(target=self._run)

                def _run(self):
                    while not self.stop.is_set():
                        pass

                def shutdown(self):
                    self.stop.set()
        """) == []


class TestCrossModuleRace:
    """The shape that found the real ``_ClientConn.watch_ids`` race:
    a server thread mutating a per-connection set typed only through a
    ``dict[int, Conn]`` annotation in another module."""

    CONN = """
        import threading

        class Conn:
            def __init__(self):
                self.wlock = threading.Lock()
                self.ids = set()
    """

    def test_unguarded_neighbour_mutation_fires(self):
        findings = _project_findings(conn=self.CONN, server="""
            import threading

            from pkg.conn import Conn

            class Server:
                def __init__(self):
                    self._conns: dict[int, Conn] = {}
                    self.thread = threading.Thread(target=self._loop)

                def _loop(self):
                    for conn in list(self._conns.values()):
                        conn.ids.add(1)

                def register(self, key, conn: Conn):
                    self._conns[key] = conn
                    conn.ids.add(key)
        """)
        hits = [f for f in findings if f.rule == "conc-unguarded-write"
                and "Conn.ids" in f.message]
        assert hits, [f.message for f in findings]

    def test_guarded_neighbour_mutation_is_quiet(self):
        ids = _project_ids(conn=self.CONN, server="""
            import threading

            from pkg.conn import Conn

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._conns: dict[int, Conn] = {}
                    self.thread = threading.Thread(target=self._loop)

                def _loop(self):
                    with self._lock:
                        conns = list(self._conns.values())
                    for conn in conns:
                        with conn.wlock:
                            conn.ids.add(1)

                def register(self, key, conn: Conn):
                    with self._lock:
                        self._conns[key] = conn
                    with conn.wlock:
                        conn.ids.add(key)
        """)
        assert ids == []


# ----------------------------------------------------------------------
# conc-lock-order
# ----------------------------------------------------------------------


class TestLockOrder:
    def test_both_orders_fire_once(self):
        ids = _ids("""
            import threading

            class AB:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def fwd(self):
                    with self.a:
                        with self.b:
                            pass

                def rev(self):
                    with self.b:
                        with self.a:
                            pass
        """)
        assert ids.count("conc-lock-order") == 1

    def test_consistent_order_is_quiet(self):
        assert _ids("""
            import threading

            class AB:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def one(self):
                    with self.a:
                        with self.b:
                            pass

                def two(self):
                    with self.a:
                        with self.b:
                            pass
        """) == []

    def test_cycle_through_a_call_fires(self):
        # fwd nests lexically; rev holds b and *calls* a method that
        # acquires a — the edge must follow the call.
        assert "conc-lock-order" in _ids("""
            import threading

            class AB:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def fwd(self):
                    with self.a:
                        with self.b:
                            pass

                def rev(self):
                    with self.b:
                        self.take_a()

                def take_a(self):
                    with self.a:
                        pass
        """)

    def test_rlock_reentry_is_quiet(self):
        assert _ids("""
            import threading

            class R:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """) == []

    def test_lock_reentry_fires(self):
        assert "conc-lock-order" in _ids("""
            import threading

            class R:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """)


# ----------------------------------------------------------------------
# conc-blocking-under-lock
# ----------------------------------------------------------------------


class TestBlockingUnderLock:
    def test_sleep_under_lock_fires(self):
        assert "conc-blocking-under-lock" in _ids("""
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def wait(self):
                    with self._lock:
                        time.sleep(0.1)
        """)

    def test_sleep_outside_lock_is_quiet(self):
        assert _ids("""
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def wait(self):
                    with self._lock:
                        pass
                    time.sleep(0.1)
        """) == []

    def test_thread_join_under_lock_fires(self):
        assert "conc-blocking-under-lock" in _ids("""
            import threading

            class Waiter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.thread = threading.Thread(target=self._run)

                def _run(self):
                    pass

                def stop(self):
                    with self._lock:
                        self.thread.join()
        """)

    def test_str_join_under_lock_is_quiet(self):
        # one non-numeric positional argument: str.join, not a thread
        assert _ids("""
            import threading

            class Fmt:
                def __init__(self):
                    self._lock = threading.Lock()

                def render(self, parts):
                    with self._lock:
                        return ", ".join(parts)
        """) == []

    def test_recv_under_lock_fires(self):
        assert "conc-blocking-under-lock" in _ids("""
            import threading

            class Pipe:
                def __init__(self, conn):
                    self._lock = threading.Lock()
                    self.conn = conn

                def pull(self):
                    with self._lock:
                        return self.conn.recv()
        """)

    def test_recv_all_is_not_blocking(self):
        # a non-blocking drain named recv_all must not match ``recv``
        assert _ids("""
            import threading

            class Pipe:
                def __init__(self, sub):
                    self._lock = threading.Lock()
                    self.sub = sub

                def drain(self):
                    with self._lock:
                        return self.sub.recv_all()
        """) == []

    def test_blocking_in_private_helper_under_callers_lock_fires(self):
        # the held context must propagate into the helper
        assert "conc-blocking-under-lock" in _ids("""
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def wait(self):
                    with self._lock:
                        self._nap()

                def _nap(self):
                    time.sleep(0.1)
        """)
