"""Content-addressed result store shared by sweeps and the service.

A thin, point-typed layer over :class:`~repro.sim.cache.SimCache`: the
cache speaks raw key tuples; the store speaks
:class:`~repro.experiments.surface.PatternPoint` and gives every entry a
stable **content address** — the SHA-1 of the full measure-level key,
which is also the basename of the entry's on-disk pickle.  Two processes
pointed at the same directory (``REPRO_SIM_CACHE_DIR`` or an explicit
path) therefore share results through nothing but the cache's atomic
tmp-then-rename spill: an experiment sweep warms the service, a service
simulation warms the next batch run, and the digest is the dedup
identity throughout.  The same directory is what an interrupted sweep
command resumes from: re-run it against the directory, and every point
an earlier run or the service wrote there is a hit, not a simulation.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional, Tuple

from ..experiments.surface import PatternPoint, point_cache_key
from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..sim.cache import MISS, SimCache


def entry_digest(key: Tuple) -> str:
    """Stable content address of a full cache key.

    Matches the cache's on-disk naming (``<sha1(repr(key))>.pkl``) so an
    entry id printed by the service can be located in the spill
    directory directly.
    """
    return hashlib.sha1(repr(key).encode()).hexdigest()


class ResultStore:
    """Point-addressed view of a (possibly shared) :class:`SimCache`.

    The store owns no storage of its own: ``get``/``put``/``contains``
    translate points into full measure-level keys and delegate, so every
    consumer of the underlying cache — experiment sweeps, the service
    queue, a second server process on the same directory — sees the same
    entries.
    """

    def __init__(self, cache: Optional[SimCache] = None,
                 directory: Optional[str] = None,
                 max_memory_entries: Optional[int] = None,
                 platform: HbmPlatform = DEFAULT_PLATFORM) -> None:
        self.platform = platform
        self.cache = cache if cache is not None else SimCache(
            directory, max_memory_entries=max_memory_entries)

    @property
    def directory(self) -> Optional[str]:
        """Disk directory shared between processes (may be ``None``)."""
        return self.cache.directory

    def key_for(self, point: PatternPoint) -> Tuple:
        """Full measure-level cache key of ``point`` on this platform."""
        return point_cache_key(point, self.platform)

    def digest_for(self, point: PatternPoint) -> str:
        """Stable content address of ``point`` — the dedup identity."""
        return entry_digest(self.key_for(point))

    def get(self, point: PatternPoint) -> Optional[Any]:
        """The stored ``SimReport`` for ``point``, or ``None``."""
        value = self.cache.lookup(self.key_for(point))
        return None if value is MISS else value

    def contains(self, point: PatternPoint) -> bool:
        """Membership probe; never perturbs the hit/miss counters."""
        return self.key_for(point) in self.cache

    def put(self, point: PatternPoint, report: Any) -> str:
        """Store ``report`` under the point's key; returns the digest."""
        key = self.key_for(point)
        self.cache.put(key, report)
        return entry_digest(key)

    def stats(self):
        """Disk footprint of the shared directory (see ``SimCache.stats``)."""
        return self.cache.stats()
