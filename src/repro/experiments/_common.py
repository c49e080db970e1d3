"""One description of a simulation point, and the one recipe that runs it.

Every experiment that simulates describes each point as a
:class:`SimPoint`.  This module is the only code in
:mod:`repro.experiments` that turns one into a fabric, its traffic
sources and a ``SimConfig``, and a point's store key is derived from the
same fields.  So a key names the simulation, never the experiment that
asked for it: Fig. 4's rotation-8 point and the lateral-bus study's
2-bus point are one entry, and whichever runs first answers the other.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..core.mao import MaoConfig
from ..errors import ConfigError
from ..faults.plan import FaultPlan
from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..sim import Engine, SimConfig, SimReport
from ..sim.cache import DEFAULT_CACHE, MISS, SimCache, sweep_key
from ..traffic import (make_pattern_sources, make_rotation_sources,
                       make_stride_sources)
from ..types import FabricKind
from .. import make_fabric

#: Default fabric-cycle horizon of the experiments.  12k cycles (~27 us)
#: is enough for steady state at every pattern; benches may lower it.
DEFAULT_CYCLES = 12_000


def _accelerator_sources(accel, config, platform=DEFAULT_PLATFORM,
                         burst_len=16):
    """Traffic of accelerator class ``accel`` at ``config`` (both key by
    value; a model instance would not)."""
    from ..accelerators import make_accelerator_sources
    return make_accelerator_sources(accel(config), platform, burst_len)


#: Traffic kind -> source builder.  A point's key files its report under
#: ``"<kind>-sim"``; the builders take the platform and, where they take
#: one, the fabric's address map from the point, never from its arguments.
TRAFFIC = {
    "pattern": make_pattern_sources,
    "rotation": make_rotation_sources,
    "stride": make_stride_sources,
    "accel": _accelerator_sources,
}


def _parameters(builder) -> Tuple[FrozenSet[str], Dict[str, Any]]:
    """Names and defaults of ``builder``'s parameters, less those a point
    supplies."""
    params = [p for p in inspect.signature(builder).parameters.values()
              if p.name not in ("platform", "address_map")]
    return (frozenset(p.name for p in params),
            {p.name: p.default for p in params if p.default is not p.empty})


_PARAMETERS = {kind: _parameters(fn) for kind, fn in TRAFFIC.items()}
#: Traffic kinds whose builder takes the fabric's address map.
_MAPPED = {kind for kind, fn in TRAFFIC.items()
           if "address_map" in inspect.signature(fn).parameters}


@dataclass(frozen=True)
class SimPoint:
    """Everything that shapes one plain simulation, and nothing else.

    ``args`` are the traffic builder's keyword arguments, stored as
    sorted pairs with the builder's defaults filled in; a default
    :class:`MaoConfig` and an empty fault plan are stored as ``None``.
    So two descriptions of one run compare and key alike.
    """

    fabric: FabricKind
    traffic: str
    args: Union[Tuple[Tuple[str, Any], ...], Mapping[str, Any]] = ()
    platform: HbmPlatform = DEFAULT_PLATFORM
    mao: Optional[MaoConfig] = None
    cycles: int = DEFAULT_CYCLES
    outstanding: int = 32
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.traffic not in _PARAMETERS:
            raise ConfigError(f"unknown traffic {self.traffic!r}")
        names, defaults = _PARAMETERS[self.traffic]
        args = {**defaults, **dict(self.args)}
        if args.keys() != names:
            raise ConfigError(f"{self.traffic} traffic takes {sorted(names)}, "
                              f"got {sorted(args)}")
        object.__setattr__(self, "args", tuple(sorted(args.items())))
        if self.mao is not None:
            if self.fabric is not FabricKind.MAO:
                raise ConfigError("a MaoConfig needs the MAO fabric")
            if self.mao == MaoConfig():
                object.__setattr__(self, "mao", None)
        if self.faults is not None and not self.faults:
            object.__setattr__(self, "faults", None)

    def key(self) -> Tuple:
        """The result-store key of this run: a ``sweep_key`` over the
        traffic kind, platform, fabric, builder arguments and a
        non-default ``mao``, then cycles, outstanding and faults.  A
        pattern point keys as it always has, so older stores answer."""
        params = dict(self.args, fabric=self.fabric)
        if self.mao is not None:
            params["mao"] = self.mao
        return (sweep_key(f"{self.traffic}-sim", self.platform, **params),
                ("cycles", self.cycles), ("outstanding", self.outstanding),
                ("faults", repr(self.faults)
                 if self.faults is not None else None))

    def engine(self) -> Engine:
        """Build the fabric, its sources and the engine of this run."""
        fabric = make_fabric(self.fabric, self.platform,
                             **({"config": self.mao} if self.mao else {}))
        args = dict(self.args)
        if self.traffic in _MAPPED:
            args["address_map"] = fabric.address_map
        sources = TRAFFIC[self.traffic](platform=self.platform, **args)
        cfg = SimConfig(cycles=self.cycles,
                        warmup=min(self.cycles // 4, 3_000),
                        outstanding=self.outstanding)
        return Engine(fabric, sources, cfg, faults=self.faults)

    def run(self) -> SimReport:
        """Run once, unmemoized (a pooled sweep's worker body; the parent
        stores the report)."""
        return self.engine().run()


def measure(point: SimPoint, *, cache: Optional[SimCache] = None
            ) -> SimReport:
    """The report of ``point``, memoized in ``cache`` (default: the
    process-wide :data:`~repro.sim.cache.DEFAULT_CACHE`) under its key."""
    cache = cache if cache is not None else DEFAULT_CACHE
    key = point.key()
    hit = cache.lookup(key)
    if hit is not MISS:
        return hit
    report = point.run()
    cache.put(key, report)
    return report


def measure_all(points: Sequence[SimPoint], workers: Optional[int] = None,
                *, cache: Optional[SimCache] = None) -> List[SimReport]:
    """Reports of ``points`` in order, memoized like :func:`measure`:
    stored points answer in the parent, and the rest run on
    :func:`~repro.experiments.parallel.parallel_sweep`."""
    from .parallel import parallel_sweep
    return parallel_sweep(SimPoint.run, points, workers,
                          cache=cache if cache is not None else DEFAULT_CACHE,
                          key_fn=SimPoint.key)


def pct_of_peak(gbps: float, platform: HbmPlatform = DEFAULT_PLATFORM) -> float:
    """Fraction of the theoretical device peak (460.8 GB/s)."""
    return gbps / (platform.device_peak_bytes_per_s / 1e9)
