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
from repro.experiments.parallel import (default_workers, parallel_sweep,
                                        supervised_sweep)
from repro.runtime import RunJournal, load_journal


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
    def test_worker_kill_surfaces_as_sweep_error_not_broken_pool(self):
        """Acceptance scenario: one point SIGKILLs its worker.  The
        sweep finishes every other point and reports the casualty as a
        structured hole riding on SweepError — never BrokenProcessPool."""
        items = [(i, i == 2) for i in range(6)]
        with pytest.raises(SweepError, match="sweep incomplete") as info:
            parallel_sweep(_crash_on, items, workers=2)
        outcome = info.value.outcome
        assert outcome.holes == [2]
        assert outcome.failures[0].kind in ("crash", "poison")
        assert sorted(outcome.completed) == [0, 1, 3, 4, 5]
        assert [outcome.results[i] for i in (0, 1, 3, 4, 5)] == \
               [0, 1, 9, 16, 25]

    def test_non_strict_sweep_returns_partial_results_with_holes(self):
        items = [(i, i == 1) for i in range(4)]
        out = parallel_sweep(_crash_on, items, workers=2, strict=False)
        assert out[0] == 0 and out[2] == 4 and out[3] == 9
        assert out[1] is None  # the hole

    def test_inline_error_is_structured_too(self):
        outcome = supervised_sweep(_square, ["bad", 2], workers=1)
        assert outcome.failures[0].kind == "error"
        assert "TypeError" in outcome.failures[0].detail
        assert outcome.results[1] == 4


class TestJournaledSweep:
    def test_journal_records_each_point_and_resume_skips_them(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with RunJournal(path, meta={"kind": "sweep"}) as journal:
            outcome = supervised_sweep(_square, [1, 2, 3], workers=1,
                                       journal=journal)
        assert outcome.ok
        state = load_journal(path)
        assert len(state.finished) == 3

        calls = []

        def tracked(x):
            calls.append(x)
            return x * x

        with RunJournal(path, resume=True) as journal:
            resumed = supervised_sweep(tracked, [1, 2, 3, 4], workers=1,
                                       journal=journal, resume_state=state)
        assert resumed.results == [1, 4, 9, 16]
        assert calls == [4]  # journaled points restored, not re-run

    def test_journal_resume_survives_memory_only_cache(self, tmp_path):
        """Journal payloads embed the values, so resume works even when
        the result cache died with the process (memory-only cache)."""
        from repro.params import DEFAULT_PLATFORM
        from repro.sim.cache import SimCache, sweep_key

        path = str(tmp_path / "sweep.jsonl")
        with RunJournal(path, meta={}) as journal:
            supervised_sweep(_square, [5, 6], workers=1, journal=journal,
                             cache=SimCache(),
                             key_fn=lambda x: sweep_key(
                                 "unit-j", DEFAULT_PLATFORM, x=x))
        fresh_cache = SimCache()  # the old memory cache is gone
        state = load_journal(path)
        outcome = supervised_sweep(_square, [5, 6], workers=1,
                                   resume_state=state, cache=fresh_cache,
                                   key_fn=lambda x: sweep_key(
                                       "unit-j", DEFAULT_PLATFORM, x=x))
        assert outcome.results == [25, 36]
        assert len(outcome.completed) == 2

    def test_resume_matches_items_with_address_based_repr(self, tmp_path):
        """Regression: ``_task_id`` fell back to ``repr(item)``; an item
        whose repr embeds its memory address (``<... object at 0x...>``)
        got a different id in every process, so resume silently re-ran
        every journaled point instead of restoring it."""
        import repro.experiments.parallel as parallel_mod

        class Opaque:  # default object repr: "<...Opaque object at 0x..>"
            def __init__(self, n):
                self.n = n

        path = str(tmp_path / "sweep.jsonl")
        calls = []

        def fn(item):
            calls.append(item.n)
            return item.n * 10

        parallel_mod._UNSTABLE_WARNED.clear()
        with pytest.warns(RuntimeWarning, match="address-based repr"):
            with RunJournal(path, meta={}) as journal:
                supervised_sweep(fn, [Opaque(1), Opaque(2)], workers=1,
                                 journal=journal)
        assert calls == [1, 2]

        # "Another process": brand-new instances at new addresses.
        state = load_journal(path)
        with RunJournal(path, resume=True) as journal:
            outcome = supervised_sweep(fn, [Opaque(1), Opaque(2)],
                                       workers=1, journal=journal,
                                       resume_state=state)
        assert outcome.results == [10, 20]
        assert calls == [1, 2]  # restored from the journal, not re-run

    def test_unstable_repr_warns_once_per_type(self, tmp_path):
        import repro.experiments.parallel as parallel_mod

        class Opaque:
            pass

        parallel_mod._UNSTABLE_WARNED.clear()
        with pytest.warns(RuntimeWarning) as record:
            with RunJournal(str(tmp_path / "j.jsonl"), meta={}) as journal:
                supervised_sweep(lambda _x: 0,
                                 [Opaque() for _ in range(10)],
                                 workers=1, journal=journal)
        unstable = [w for w in record
                    if "address-based repr" in str(w.message)]
        assert len(unstable) == 1

    def test_stable_repr_walks_structured_items(self):
        """Dataclasses / containers keep field-level identity even when a
        leaf is unstable, and stable leaves are untouched."""
        from dataclasses import dataclass

        import repro.experiments.parallel as parallel_mod

        @dataclass(frozen=True)
        class Point:
            a: int
            b: str

        assert parallel_mod._stable_repr(Point(1, "x")).endswith(
            "Point(a=1, b='x')")
        assert parallel_mod._stable_repr((1, [2, 3], {"k": 4})) == \
            "(1, [2, 3], {'k': 4})"
        # Identical ids across "processes" for the structured case.
        i1 = parallel_mod._task_id(0, Point(1, "x"), None)
        i2 = parallel_mod._task_id(0, Point(1, "x"), None)
        assert i1 == i2

    def test_interrupted_inline_sweep_reports_pending(self):
        seen = []

        def fn(x):
            seen.append(x)
            return x

        outcome = supervised_sweep(fn, list(range(6)), workers=1,
                                   should_stop=lambda: len(seen) >= 2)
        assert outcome.interrupted
        assert outcome.pending == [2, 3, 4, 5]
        with pytest.raises(SweepError, match="interrupted"):
            outcome.require_complete()


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
