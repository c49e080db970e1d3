"""Tests for the process-parallel sweep helper."""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import SweepError
from repro.experiments.parallel import default_workers, parallel_sweep
from repro.runtime import pool as pool_mod


def _square(x):
    return x * x


def _pid_tag(x):
    return (x, os.getpid())


def _crash_on(x):
    value, crash = x
    if crash:
        os._exit(137)  # worker SIGKILLed (simulated OOM)
    return value * value


class TestParallelSweep:
    def test_inline_path(self):
        assert parallel_sweep(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_empty(self):
        assert parallel_sweep(_square, [], workers=4) == []

    def test_single_item_runs_inline(self):
        out = parallel_sweep(_pid_tag, [7], workers=4)
        assert out == [(7, os.getpid())]

    def test_pool_preserves_order(self):
        out = parallel_sweep(_square, list(range(10)), workers=2)
        assert out == [x * x for x in range(10)]

    def test_pool_actually_uses_processes(self):
        out = parallel_sweep(_pid_tag, list(range(6)), workers=3)
        values = [v for v, _pid in out]
        assert values == list(range(6))

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1

    def test_default_workers_warns_on_invalid_env(self, monkeypatch):
        """A typo'd REPRO_WORKERS must not be silently swallowed — the
        warning names the bad value so the user can fix it."""
        monkeypatch.setenv("REPRO_WORKERS", "bogus")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS='bogus'"):
            assert default_workers() >= 1

    def test_fig3_sweep_parallel_matches_serial(self):
        """Determinism across execution strategies."""
        from repro.experiments import fig3_burst_length as f3
        from repro.types import Pattern
        kwargs = dict(cycles=1500, patterns=(Pattern.SCS,),
                      burst_lengths=(1, 16))
        serial = f3.run(workers=1, **kwargs)
        parallel = f3.run(workers=2, **kwargs)
        assert [(r.pattern, r.direction, r.burst_len, r.total_gbps)
                for r in serial] == \
               [(r.pattern, r.direction, r.burst_len, r.total_gbps)
                for r in parallel]


class TestCrashSafety:
    @pytest.fixture(autouse=True)
    def _fast_backoff(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "BACKOFF_BASE_S", 0.01)

    def test_worker_kill_surfaces_as_sweep_error_not_broken_pool(self):
        """Acceptance scenario: one point SIGKILLs its worker.  The
        sweep finishes every other point and reports the casualty as a
        structured hole riding on SweepError — never BrokenProcessPool."""
        items = [(i, i == 2) for i in range(6)]
        with pytest.raises(SweepError, match="sweep incomplete") as info:
            parallel_sweep(_crash_on, items, workers=2)
        outcome = info.value.outcome
        assert outcome.holes == [2]
        assert outcome.failures[0].kind == "poison"
        assert sorted(outcome.completed) == [0, 1, 3, 4, 5]
        assert [outcome.results[i] for i in (0, 1, 3, 4, 5)] == \
               [0, 1, 9, 16, 25]

    def test_non_strict_sweep_returns_partial_results_with_holes(self):
        """A caller that degrades reads the partial results off the
        raised error: the crash leaves ``None`` in its slot."""
        items = [(i, i == 1) for i in range(4)]
        with pytest.raises(SweepError) as info:
            parallel_sweep(_crash_on, items, workers=2)
        out = info.value.outcome.results
        assert out[0] == 0 and out[2] == 4 and out[3] == 9
        assert out[1] is None  # the hole

    def test_inline_error_is_structured_too(self):
        with pytest.raises(SweepError) as info:
            parallel_sweep(_square, ["bad", 2], workers=1)
        outcome = info.value.outcome
        assert outcome.failures[0].kind == "error"
        assert "TypeError" in outcome.failures[0].detail
        assert outcome.results[1] == 4

    def test_inline_and_pool_failures_describe_the_task_alike(self):
        """A long item's repr is cut to 120 characters with a ``...``
        marker on both paths, so a hole reads the same either way."""
        long_item = "x" * 500
        texts = []
        for workers in (1, 2):
            with pytest.raises(SweepError) as info:
                parallel_sweep(_square, [long_item, 2], workers=workers)
            texts.append(info.value.outcome.failures[0].task)
        assert texts[0] == texts[1]
        assert len(texts[0]) == 120 and texts[0].endswith("...")

    def test_cache_hits_and_pool_results_share_one_outcome(self):
        """The pool fills the outcome the sweep built around its cache
        hits: totals, completions and results cover every item."""
        from repro.sim.cache import SimCache

        def key_fn(x):
            return ("square", x)

        cache = SimCache()
        cache.put(key_fn(1), 1)
        with pytest.raises(SweepError) as info:
            parallel_sweep(_square, [1, 2, 3, "bad"], workers=2,
                           cache=cache, key_fn=key_fn)
        outcome = info.value.outcome
        assert outcome.total == 4 and outcome.holes == [3]
        assert outcome.results == [1, 4, 9, None]
        assert sorted(outcome.completed) == [0, 1, 2]
        assert cache.lookup(key_fn(3)) == 9  # checkpointed as it landed


class TestStoreResume:
    """The result store is a sweep's resume record: re-running a sweep
    command against the same ``REPRO_SIM_CACHE_DIR`` answers every
    point an earlier run finished from the store."""

    @pytest.mark.parametrize("argv", [
        ["run", "fig2", "--cycles", "1500"],
        ["run", "chaos", "--cycles", "600"],
        ["run", "extensions", "--cycles", "1500"],
    ], ids=["fig2", "chaos", "extensions"])
    def test_rerun_against_the_store_simulates_nothing(
            self, argv, tmp_path, monkeypatch, capsys, engine_runs):
        from repro.experiments.runner import main
        from repro.sim.cache import DEFAULT_CACHE

        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        tables, counts = [], []
        for _ in range(2):
            DEFAULT_CACHE.clear()  # only the directory carries over
            engine_runs.clear()
            assert main(list(argv)) == 0
            # Drop the "=== key: title (elapsed) ===" timing header.
            tables.append(capsys.readouterr().out.splitlines()[1:])
            counts.append(len(engine_runs))
        assert counts[0] > 0
        assert counts[1] == 0
        assert tables[0] == tables[1]


_CHILD_SWEEP = textwrap.dedent("""
    import sys, time
    from repro.experiments.parallel import parallel_sweep
    from repro.params import DEFAULT_PLATFORM
    from repro.sim.cache import SimCache, sweep_key

    def point(x):
        time.sleep(0.35)
        return x * x

    def key_fn(x):
        return sweep_key("kill-regress", DEFAULT_PLATFORM, x=x)

    cache = SimCache(directory=sys.argv[1])
    parallel_sweep(point, list(range(40)), workers=2,
                   cache=cache, key_fn=key_fn)
""")


def _session_members(sid):
    """PIDs of the live (non-zombie) processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited while we looked
            continue
        # After "pid (comm)" come: state ppid pgrp session ...
        state, _, _, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == sid and state != "Z":
            members.append(int(entry))
    return members


class TestStreamingCheckpoint:
    def test_sigkilled_sweep_keeps_completed_points_on_disk(self, tmp_path):
        """Regression: cache.put used to be deferred until the whole map
        returned, so killing the sweep discarded every finished point.
        Now each completion is spilled immediately: SIGKILL the sweep
        after k completions and k entries must survive, all loadable."""
        cache_dir = tmp_path / "cache"
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SWEEP, str(cache_dir)],
            env={**os.environ, "PYTHONPATH": "src",
                 "REPRO_SIM_CACHE": "1"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if len(list(cache_dir.glob("*.pkl"))) >= 3:
                    break
                if proc.poll() is not None:
                    pytest.fail("sweep child exited before 3 completions")
                time.sleep(0.05)
            else:
                pytest.fail("no checkpointed entries appeared within 60s")
            proc.send_signal(signal.SIGKILL)
        finally:
            # The pool workers outlive their SIGKILLed parent as orphans;
            # the child leads its own session, so killing its process
            # group takes them down too.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while (_session_members(proc.pid)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert _session_members(proc.pid) == []
        survivors = list(cache_dir.glob("*.pkl"))
        assert len(survivors) >= 3
        for path in survivors:  # atomic writes: every survivor loads
            with open(path, "rb") as fh:
                key, value = pickle.load(fh)
            x = int(dict(key[-1])["x"])  # sweep_key folds the point in
            assert value == x * x
