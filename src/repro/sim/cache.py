"""Experiment-level memoization of simulation results.

The sweep harness re-simulates many identical points: ``repro-hbm all``
shares sweep points between figures, the benchmark suite re-runs the same
configurations round after round, and iterating on one experiment's
post-processing should not pay for re-simulating its inputs.  Since every
simulation is a pure function of (fabric construction, traffic pattern,
engine config) — traffic sources are deterministically seeded — results
can be memoized safely.

:class:`SimCache` keeps an in-memory table and, when a directory is
configured (``REPRO_SIM_CACHE_DIR`` or the constructor argument), a
pickle file per entry so results survive across processes and runs.
Entries are stored together with their full key and verified on load, so
a SHA-1 filename collision degrades to a miss, never a wrong result.

Keys come from :func:`sweep_key`, which folds in

* a model version (bump :data:`MODEL_VERSION` whenever a change alters
  simulation *results*, so stale disk entries are never returned),
* a digest of the platform's full ``repr`` (every timing/topology knob),
* the engine tier in effect (``REPRO_ENGINE`` — reports are
  bit-identical on every tier by construction, but keeping the key exact
  makes the cache trivially sound even while that property is being
  debugged),
* the caller's parameters, ``repr``-normalized.

``REPRO_SIM_CACHE=0`` disables all caching without touching call sites.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, NoReturn, Optional, Set, Tuple

from .config import _engine_default, _sanitize_default, _telemetry_default

#: Bump when a model change alters simulation outputs.
MODEL_VERSION = 2


class _Miss:
    """Type of the :data:`MISS` sentinel (falsy, unique, unpicklable by
    design — a cache *value* can never compare ``is MISS``)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISS"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self) -> NoReturn:
        raise TypeError("MISS is a sentinel, not a cacheable value")


#: Returned by :meth:`SimCache.lookup` when a key is absent.  Test with
#: ``value is MISS`` — unlike ``None`` this can never collide with a
#: legitimately cached result.
MISS = _Miss()


def cache_enabled() -> bool:
    """Global off-switch: ``REPRO_SIM_CACHE=0`` disables memoization."""
    return os.environ.get("REPRO_SIM_CACHE", "1").lower() not in (
        "0", "false", "no", "off")


@functools.lru_cache(maxsize=32)
def platform_digest(platform: Any) -> str:
    """Short stable digest of a platform's full parameterization.

    Memoized per platform, which is frozen and hashable: a server keys
    every request with its one platform, and hashing the platform costs
    a fraction of the ``repr`` the digest is made from.
    """
    return hashlib.sha1(repr(platform).encode()).hexdigest()[:12]


def entry_digest(key: Tuple) -> str:
    """Content address of a cache entry: the SHA-1 of its full key.

    It is also the basename of the entry's spill file
    (``<entry_digest(key)>.pkl``), so an entry id the service prints can
    be found in the directory directly.
    """
    return hashlib.sha1(repr(key).encode()).hexdigest()


def sweep_key(experiment: str, platform: Any, **params: Any) -> Tuple:
    """Build a cache key for one sweep point.

    ``params`` values are normalized through ``repr`` so enums, ratios,
    and config dataclasses key naturally; pass every input that changes
    the simulated result (and nothing else).
    """
    items = tuple(sorted((k, repr(v)) for k, v in params.items()))
    # The observer switches (sanitize, telemetry) are bit-identity
    # preserving like the engine tier, but keying on them keeps the cache
    # trivially sound even while that property is being debugged.
    return (MODEL_VERSION, experiment, platform_digest(platform),
            ("engine", _engine_default()),
            ("sanitize", _sanitize_default()),
            ("telemetry", _telemetry_default()), items)


#: Spill directories already warned about (module-level so every
#: SimCache instance shares the once-per-directory budget).
_SPILL_WARNED: Set[str] = set()


@dataclass(frozen=True)
class CacheStats:
    """Disk footprint of one cache directory."""

    directory: Optional[str]
    entries: int
    total_bytes: int
    #: ``*.pkl.tmp.<pid>`` spill files stranded by a writer that crashed
    #: between the temp write and the atomic rename.  They are invisible
    #: to lookups and removed by :meth:`SimCache.prune`.
    orphan_tmp_files: int = 0
    orphan_tmp_bytes: int = 0

    def summary(self) -> str:
        if not self.directory:
            return "sim cache: no disk directory configured (memory only)"
        mib = self.total_bytes / (1024 * 1024)
        text = (f"sim cache at {self.directory}: {self.entries} entr(ies), "
                f"{mib:.1f} MiB")
        if self.orphan_tmp_files:
            tmp_kib = self.orphan_tmp_bytes / 1024
            text += (f"; {self.orphan_tmp_files} orphaned tmp file(s), "
                     f"{tmp_kib:.1f} KiB (prune removes stale ones)")
        return text


@dataclass(frozen=True)
class PruneResult:
    """What :meth:`SimCache.prune` removed and what remains."""

    removed: int
    freed_bytes: int
    remaining_entries: int
    remaining_bytes: int
    #: Stale orphaned spill temp files swept (counted separately from
    #: ``removed``; their bytes are included in ``freed_bytes``).
    removed_tmp: int = 0

    def summary(self) -> str:
        mib = self.freed_bytes / (1024 * 1024)
        left = self.remaining_bytes / (1024 * 1024)
        text = (f"pruned {self.removed} entr(ies), freed {mib:.1f} MiB; "
                f"{self.remaining_entries} entr(ies), {left:.1f} MiB remain")
        if self.removed_tmp:
            text += f"; swept {self.removed_tmp} orphaned tmp file(s)"
        return text


class SimCache:
    """Two-level (memory + optional disk) memo table for sweep results.

    Values must be picklable when a directory is configured; the sweep
    row dataclasses and :class:`~repro.sim.stats.SimReport` all are.

    Safe for concurrent use from threads and asyncio tasks: the memory
    table and hit/miss counters are guarded by an internal lock (process
    pools never needed this — each worker had its own instance — but the
    sweep service shares one cache across a whole event loop).

    ``max_memory_entries`` bounds the in-memory table with LRU eviction;
    evicted entries stay readable from disk.  Batch sweeps default to
    unbounded (``None``, or any bound below 1); long-lived servers set a
    bound so promoting every disk hit into memory cannot grow without
    limit.
    """

    def __init__(self, directory: Optional[str] = None,
                 max_memory_entries: Optional[int] = None) -> None:
        self._directory = directory
        self._memory: Dict[Tuple, Any] = {}
        self._lock = threading.RLock()
        self._max_memory = (max_memory_entries
                            if max_memory_entries is not None
                            and max_memory_entries >= 1 else None)
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> Optional[str]:
        """Disk-spill directory; falls back to ``REPRO_SIM_CACHE_DIR``."""
        return self._directory or os.environ.get("REPRO_SIM_CACHE_DIR") or None

    @property
    def max_memory_entries(self) -> Optional[int]:
        """LRU bound of the in-memory table (``None`` = unbounded)."""
        return self._max_memory

    def memory_entries(self) -> int:
        """Current size of the in-memory table."""
        with self._lock:
            return len(self._memory)

    def _path(self, key: Tuple) -> str:
        return os.path.join(self.directory, entry_digest(key) + ".pkl")

    def _remember(self, key: Tuple, value: Any) -> None:
        """Insert under the lock, evicting least-recently-used entries
        beyond the bound.  Python dicts iterate in insertion order, and
        every hit reinserts its key, so the first key is always the LRU."""
        self._memory.pop(key, None)
        self._memory[key] = value
        if self._max_memory is not None:
            while len(self._memory) > self._max_memory:
                self._memory.pop(next(iter(self._memory)))

    def _lookup(self, key: Tuple, count: bool) -> Any:
        """Shared hit path of :meth:`lookup` and :meth:`__contains__`;
        ``count`` gates the hit/miss accounting so a pure membership
        probe never perturbs the counters (atomically — the old
        save/restore dance raced concurrent lookups)."""
        if not cache_enabled():
            if count:
                with self._lock:
                    self.misses += 1
            return MISS
        with self._lock:
            if key in self._memory:
                value = self._memory[key]
                if self._max_memory is not None:
                    self._memory[key] = self._memory.pop(key)  # LRU touch
                if count:
                    self.hits += 1
                return value
            if self.directory:
                path = self._path(key)
                try:
                    with open(path, "rb") as fh:
                        stored_key, value = pickle.load(fh)
                except FileNotFoundError:
                    pass  # ordinary miss
                except Exception as exc:
                    # Corrupt, truncated, or schema-incompatible entry:
                    # unpickling hostile bytes can raise nearly anything
                    # (UnpicklingError, EOFError, AttributeError, ...).
                    # Warn, delete the bad file so it never costs another
                    # parse, and degrade to a miss.
                    warnings.warn(
                        f"discarding unreadable sim-cache entry {path}: "
                        f"{type(exc).__name__}: {exc}",
                        RuntimeWarning, stacklevel=3)
                    try:
                        os.remove(path)
                    except OSError:
                        pass
                else:
                    # A stored key that fails to match is a filename
                    # collision or a MODEL_VERSION mismatch — a miss,
                    # never a wrong hit.
                    if stored_key == key:
                        self._remember(key, value)
                        if count:
                            self.hits += 1
                        return value
            if count:
                self.misses += 1
            return MISS

    def lookup(self, key: Tuple) -> Any:
        """Cached value for ``key``, or the :data:`MISS` sentinel.

        Test ``lookup(key) is MISS``: ``None`` is a perfectly valid
        cached value (a sweep point that produced no result).
        """
        return self._lookup(key, count=True)

    def __contains__(self, key: Tuple) -> bool:
        """Whether ``key`` would hit, without counting a hit or a miss."""
        return self._lookup(key, count=False) is not MISS

    def put(self, key: Tuple, value: Any) -> None:
        if value is MISS:
            raise TypeError("MISS is a sentinel, not a cacheable value")
        if not cache_enabled():
            return
        with self._lock:
            self._remember(key, value)
        directory = self.directory
        if not directory:
            return
        try:
            os.makedirs(directory, exist_ok=True)
            path = self._path(key)
            # The tmp suffix must be unique per *writer*, not just per
            # process: two threads spilling the same key under one pid
            # would otherwise race each other's os.replace.
            tmp = path + f".tmp.{os.getpid()}-{threading.get_ident()}"
            with open(tmp, "wb") as fh:
                pickle.dump((key, value), fh)
            os.replace(tmp, path)
        except OSError as exc:
            # Disk spill is best-effort (the memory entry is already
            # stored), but silence here would hide an unwritable or full
            # REPRO_SIM_CACHE_DIR until the user wonders why nothing
            # persists.  Warn once per directory, not per point — a
            # 1000-point sweep against a full disk should not emit 1000
            # warnings.
            if directory not in _SPILL_WARNED:
                _SPILL_WARNED.add(directory)
                warnings.warn(
                    f"sim-cache disk spill to {directory!r} failed "
                    f"({type(exc).__name__}: {exc}); results will not "
                    f"persist across processes until this is fixed "
                    f"(warning once per directory)",
                    RuntimeWarning, stacklevel=2)

    # -- disk housekeeping ---------------------------------------------------

    def _entries(self) -> List[Tuple[str, int, float]]:
        """(path, size, mtime) of every on-disk entry, oldest first."""
        directory = self.directory
        if not directory or not os.path.isdir(directory):
            return []
        out: List[Tuple[str, int, float]] = []
        for name in os.listdir(directory):
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue  # raced with a concurrent prune/replace
            out.append((path, st.st_size, st.st_mtime))
        out.sort(key=lambda e: (e[2], e[0]))
        return out

    def _tmp_entries(self) -> List[Tuple[str, int, float]]:
        """(path, size, mtime) of orphaned ``*.pkl.tmp.<pid>`` spill
        files.  :meth:`put` writes the temp file then ``os.replace``\\ s it
        into place; a crash between the two strands the temp forever, and
        the ``*.pkl``-only :meth:`_entries` walk never saw them."""
        directory = self.directory
        if not directory or not os.path.isdir(directory):
            return []
        out: List[Tuple[str, int, float]] = []
        for name in os.listdir(directory):
            if ".pkl.tmp." not in name:
                continue
            path = os.path.join(directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue  # raced with the writer's os.replace
            out.append((path, st.st_size, st.st_mtime))
        out.sort(key=lambda e: (e[2], e[0]))
        return out

    def stats(self) -> CacheStats:
        """Entry count and byte footprint of the disk directory,
        orphaned spill temp files included."""
        entries = self._entries()
        tmps = self._tmp_entries()
        return CacheStats(directory=self.directory,
                          entries=len(entries),
                          total_bytes=sum(size for _, size, _ in entries),
                          orphan_tmp_files=len(tmps),
                          orphan_tmp_bytes=sum(size for _, size, _ in tmps))

    def prune(self, max_bytes: Optional[int] = None,
              max_age_days: Optional[float] = None,
              tmp_grace_seconds: float = 900.0) -> PruneResult:
        """Bound the disk directory's growth.

        ``max_age_days`` removes entries whose file mtime is older;
        ``max_bytes`` then removes oldest-first until the directory fits
        the budget.  Campaign caches grow one pickle per sweep point
        forever otherwise.  In-memory entries are untouched (they die
        with the process anyway); a pruned key simply misses and
        re-simulates.

        Every prune also sweeps orphaned ``*.pkl.tmp.<pid>`` spill files
        older than ``tmp_grace_seconds`` — debris of a writer that died
        between its temp write and the atomic rename.  The age gate keeps
        a *live* writer's in-progress temp file (written and renamed
        within milliseconds) safe from a concurrent prune.
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        doomed: Dict[str, int] = {}
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86_400.0  # det-lint: allow
            for path, size, mtime in entries:
                if mtime < cutoff:
                    doomed[path] = size
        if max_bytes is not None:
            kept = total - sum(doomed.values())
            for path, size, _mtime in entries:
                if kept <= max_bytes:
                    break
                if path in doomed:
                    continue
                doomed[path] = size
                kept -= size
        removed = 0
        freed = 0
        for path, size in doomed.items():
            try:
                os.remove(path)
            except OSError:
                continue  # raced or unwritable; leave it for next time
            removed += 1
            freed += size
        removed_tmp = 0
        tmp_cutoff = time.time() - tmp_grace_seconds  # det-lint: allow
        for path, size, mtime in self._tmp_entries():
            if mtime >= tmp_cutoff:
                continue  # possibly a live writer mid-spill; keep it
            try:
                os.remove(path)
            except OSError:
                continue
            removed_tmp += 1
            freed += size
        return PruneResult(removed=removed, freed_bytes=freed,
                           remaining_entries=len(entries) - removed,
                           remaining_bytes=total - freed,
                           removed_tmp=removed_tmp)

    def clear(self) -> None:
        """Drop in-memory entries (disk files are left alone)."""
        with self._lock:
            self._memory.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide cache used by the experiment helpers.
DEFAULT_CACHE = SimCache()
