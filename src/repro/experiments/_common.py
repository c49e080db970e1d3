"""Shared helpers for the experiment modules."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..sim import Engine, SimConfig, SimReport
from ..sim.cache import DEFAULT_CACHE, MISS, SimCache, sweep_key  # noqa: F401
from ..types import FabricKind
from .. import make_fabric

#: Default fabric-cycle horizon of the experiments.  12k cycles (~27 us)
#: is enough for steady state at every pattern; benches may lower it.
DEFAULT_CYCLES = 12_000


def measure_key(cache_key: Tuple, *, cycles: int, outstanding: int,
                faults=None) -> Tuple:
    """The *full* cache key :func:`measure` stores its report under.

    ``measure`` folds ``cycles``/``outstanding``/``faults`` into the
    caller's :func:`~repro.sim.cache.sweep_key` so a faulted point can
    never collide with its fault-free twin.  The service layer
    (:mod:`repro.service`) rebuilds the same key to answer queries from
    entries any experiment sweep already wrote — keep the shape here, in
    one place, or warm caches silently stop matching.
    """
    return (cache_key, ("cycles", cycles), ("outstanding", outstanding),
            ("faults", repr(faults) if faults is not None else None))


def measure(
    fabric_kind: FabricKind,
    sources: Sequence,
    *,
    cycles: int = DEFAULT_CYCLES,
    outstanding: int = 32,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    fabric=None,
    faults=None,
    cache_key: Optional[Tuple] = None,
    cache: Optional[SimCache] = None,
) -> SimReport:
    """Run one simulation and return its report.

    With a ``cache_key`` (build one with :func:`~repro.sim.cache.sweep_key`)
    the report is memoized in ``cache`` (default: the process-wide
    :data:`~repro.sim.cache.DEFAULT_CACHE`).  The key must cover every
    input that shapes the result *except* ``cycles``/``outstanding``/
    ``faults``/the platform, which are folded in here — so a faulted
    point can never collide with its fault-free twin.
    """
    if cache_key is not None:
        cache = cache if cache is not None else DEFAULT_CACHE
        full_key = measure_key(cache_key, cycles=cycles,
                               outstanding=outstanding, faults=faults)
        hit = cache.lookup(full_key)
        if hit is not MISS:
            return hit
    fab = fabric if fabric is not None else make_fabric(fabric_kind, platform)
    cfg = SimConfig(cycles=cycles, warmup=min(cycles // 4, 3_000),
                    outstanding=outstanding)
    rep = Engine(fab, sources, cfg, faults=faults).run()
    if cache_key is not None:
        cache.put(full_key, rep)
    return rep


def pct_of_peak(gbps: float, platform: HbmPlatform = DEFAULT_PLATFORM) -> float:
    """Fraction of the theoretical device peak (460.8 GB/s)."""
    return gbps / (platform.device_peak_bytes_per_s / 1e9)
