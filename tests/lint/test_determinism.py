"""Determinism rules: fire on host-state reads, stay quiet on seeded code."""

import textwrap

from repro.lint import lint_source
from repro.lint.rules.determinism import AUDITED_CLOCK_MODULES


def _ids(source: str) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source))]


class TestWallClock:
    def test_time_time_fires(self):
        assert "det-wallclock" in _ids("""
            import time

            def stamp():
                return time.time()
        """)

    def test_aliased_import_fires(self):
        assert "det-wallclock" in _ids("""
            import time as t

            def stamp():
                return t.perf_counter()
        """)

    def test_from_import_fires(self):
        assert "det-wallclock" in _ids("""
            from time import monotonic

            def stamp():
                return monotonic()
        """)

    def test_os_urandom_fires(self):
        assert "det-wallclock" in _ids("""
            import os

            def token():
                return os.urandom(8)
        """)

    def test_engine_clock_is_quiet(self):
        assert _ids("""
            def stamp(engine):
                return engine.clock.now
        """) == []

    def test_unrelated_time_attribute_is_quiet(self):
        assert _ids("""
            def read(sample):
                return sample.time
        """) == []


class TestDatetime:
    def test_datetime_now_fires(self):
        assert "det-datetime" in _ids("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """)

    def test_from_import_now_fires(self):
        assert "det-datetime" in _ids("""
            from datetime import datetime

            def stamp():
                return datetime.now()
        """)

    def test_constructed_datetime_is_quiet(self):
        assert _ids("""
            from datetime import datetime

            def fixed():
                return datetime(2019, 5, 20)
        """) == []


class TestStdlibRandom:
    def test_module_call_fires(self):
        assert "det-random" in _ids("""
            import random

            def draw():
                return random.random()
        """)

    def test_from_import_fires(self):
        assert "det-random" in _ids("""
            from random import randint

            def draw():
                return randint(0, 10)
        """)

    def test_generator_method_named_random_is_quiet(self):
        assert _ids("""
            def draw(rng):
                return rng.random()
        """) == []


class TestNumpyRng:
    def test_unseeded_default_rng_fires(self):
        assert "det-unseeded-rng" in _ids("""
            import numpy as np

            def make():
                return np.random.default_rng()
        """)

    def test_default_rng_none_fires(self):
        assert "det-unseeded-rng" in _ids("""
            import numpy as np

            def make():
                return np.random.default_rng(None)
        """)

    def test_seed_sequence_is_quiet(self):
        assert _ids("""
            import numpy as np

            def make(seed, wid):
                return np.random.default_rng([seed, wid])
        """) == []

    def test_global_numpy_rng_fires(self):
        assert "det-np-global" in _ids("""
            import numpy as np

            def draw(n):
                np.random.seed(0)
                return np.random.rand(n)
        """)


class TestEnviron:
    def test_subscript_read_fires(self):
        assert "det-environ" in _ids("""
            import os

            def cache_dir():
                return os.environ["REPRO_RESULT_CACHE"]
        """)

    def test_get_fires(self):
        assert "det-environ" in _ids("""
            import os

            def cache_dir():
                return os.environ.get("REPRO_RESULT_CACHE")
        """)

    def test_getenv_fires(self):
        assert "det-environ" in _ids("""
            import os

            def cache_dir():
                return os.getenv("REPRO_RESULT_CACHE")
        """)

    def test_environ_write_is_quiet(self):
        # Setting a variable for a child process is CLI plumbing, not a
        # read; only reads make behaviour depend on ambient state.
        assert _ids("""
            import os

            def set_cache(path):
                os.environ["REPRO_RESULT_CACHE"] = path
        """) == []

    def test_suppression_silences_the_line(self):
        assert _ids("""
            import os

            def cache_dir():
                return os.environ.get("X")  # repro-lint: disable=det-environ
        """) == []

    def test_family_suppression_silences_the_line(self):
        assert _ids("""
            import os

            def cache_dir():
                return os.environ.get("X")  # repro-lint: disable=determinism
        """) == []


class TestObsClockModule:
    """The audited obs host-clock module is recognized by path, so it
    needs no per-line suppressions — and nothing else gets the pass."""

    def _ids_at(self, source, path):
        return [f.rule for f in
                lint_source(textwrap.dedent(source), path=path)]

    CLOCK_SOURCE = """
        import time

        def perf_ns():
            return time.perf_counter_ns()

        def wall_s():
            return time.time()
    """

    def test_clock_reads_quiet_in_the_audited_module(self):
        assert self._ids_at(
            self.CLOCK_SOURCE, "src/repro/obs/hostclock.py") == []

    def test_path_match_is_a_suffix_match(self):
        assert self._ids_at(
            self.CLOCK_SOURCE,
            "/root/repo/src/repro/obs/hostclock.py") == []

    def test_other_obs_modules_get_no_pass(self):
        ids = self._ids_at(self.CLOCK_SOURCE, "src/repro/obs/trace.py")
        assert ids.count("det-wallclock") == 2

    def test_lookalike_path_gets_no_pass(self):
        ids = self._ids_at(self.CLOCK_SOURCE,
                           "src/repro/obs/not_hostclock.py")
        assert ids.count("det-wallclock") == 2

    def test_entropy_still_fires_in_the_audited_module(self):
        # The audit covers clocks only; host entropy stays forbidden.
        assert "det-wallclock" in self._ids_at("""
            import os

            def token():
                return os.urandom(8)
        """, "src/repro/obs/hostclock.py")

    def test_datetime_quiet_in_the_audited_module_only(self):
        source = """
            from datetime import datetime, timezone

            def stamp(wall):
                return datetime.fromtimestamp(wall, tz=timezone.utc)

            def now():
                return datetime.now()
        """
        assert self._ids_at(source, "src/repro/obs/hostclock.py") == []
        assert "det-datetime" in self._ids_at(
            source, "src/repro/obs/provenance.py")

    def test_shipped_clock_module_needs_no_suppressions(self):
        import pathlib
        module = pathlib.Path(__file__).parents[2] / "src" / "repro" \
            / "obs" / "hostclock.py"
        assert "repro-lint: disable" not in module.read_text()

    def test_shipped_hostio_module_needs_no_suppressions(self):
        # the daemon's host I/O (socket loop, client waits) reads time
        # only through repro/obs/hostclock.py, so it lints clean with
        # no per-line suppressions
        import pathlib
        src = pathlib.Path(__file__).parents[2] / "src"
        for rel in ("repro/daemon/server.py", "repro/daemon/client.py",
                    "repro/obs/hostclock.py"):
            text = (src / rel).read_text()
            assert "repro-lint: disable" not in text, rel
            assert lint_source(text, path=f"src/{rel}") == [], rel

    def test_one_audited_clock_module(self):
        # the daemon's pacing and the shard balancer's step timer read
        # the same audited module; their former clock modules and the
        # daemon's own modules get no pass
        assert AUDITED_CLOCK_MODULES == ("repro/obs/hostclock.py",)
        for path in ("src/repro/daemon/hostio.py",
                     "src/repro/runtime/hosttime.py",
                     "src/repro/daemon/server.py"):
            ids = self._ids_at(self.CLOCK_SOURCE, path)
            assert ids.count("det-wallclock") == 2, path
