"""Simulation run configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

from ..errors import ConfigError


def _sanitize_default() -> bool:
    """Sanitizer is off unless ``REPRO_SANITIZE`` enables it globally."""
    return os.environ.get("REPRO_SANITIZE", "0").lower() in (
        "1", "true", "yes", "on")


def _telemetry_default() -> bool:
    """Telemetry is off unless ``REPRO_TELEMETRY`` enables it globally."""
    return os.environ.get("REPRO_TELEMETRY", "0").lower() in (
        "1", "true", "yes", "on")


#: Engine tiers selectable via :attr:`SimConfig.engine` / ``--engine``.
ENGINE_TIERS = ("fast", "legacy")


def _engine_default() -> str:
    """Engine tier from ``REPRO_ENGINE``, or ``"fast"``."""
    return os.environ.get("REPRO_ENGINE", "fast")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run.

    ``cycles`` are fabric-clock (450 MHz) cycles.  Statistics are
    collected only after ``warmup`` cycles so queue fill-up does not bias
    steady-state throughput; latency samples are restricted to
    transactions *issued* inside the measurement window.
    """

    cycles: int = 12_000
    """Total fabric cycles to simulate (12k cycles = 26.7 us)."""

    warmup: int = 2_000
    """Cycles excluded from the measurement window."""

    outstanding: int = 32
    """Outstanding-transaction credit per master (``Not``).  The paper's
    *Single* latency scenario uses 1, the *Burst* scenario 32."""

    engine: str = field(default_factory=_engine_default)
    """Which main-loop tier drives the run: ``"fast"`` (the default
    batched/quiescence-skipping loop) or ``"legacy"`` (the reference
    strictly per-cycle loop).  The fast tier is an *optimization, never
    a model change*: both produce bit-identical
    :class:`~repro.sim.stats.SimReport` results (enforced by the
    differential tests in ``tests/test_engine_fastpath.py``).  Select
    ``"legacy"`` here, via the CLI's ``--engine legacy``, or globally
    with ``REPRO_ENGINE=legacy`` when debugging."""

    sanitize: bool = field(default_factory=_sanitize_default)
    """Attach the runtime invariant sanitizer
    (:class:`~repro.check.sanitizer.Sanitizer`) to the run.  The
    sanitizer is a pure observer — reports stay bit-identical — but it
    costs time, so it is off by default; enable per run here, via the
    CLI's ``--sanitize``, or globally with ``REPRO_SANITIZE=1``."""

    telemetry: bool = field(default_factory=_telemetry_default)
    """Attach a :class:`~repro.telemetry.sampler.Telemetry` sampler to
    the run (reachable afterwards as ``engine.telemetry``).  Like the
    sanitizer it is a pure observer — reports stay bit-identical — and
    when off the engine pays one ``is None`` test per loop iteration.
    Enable per run here, via the CLI's ``--telemetry``, or globally with
    ``REPRO_TELEMETRY=1``."""

    telemetry_interval: int = 256
    """Sampling period of the telemetry layer, in fabric cycles.
    Samples sit on the grid of multiples of this period on every engine
    tier (grid cycles a clock jump skips are filled in from the frozen
    pre-jump state), plus one final sample at the end of the run, so
    lowering this only sharpens the *time resolution* of counter
    tracks, never the run totals."""

    txn_timeout_cycles: Optional[int] = None
    """Per-transaction watchdog: a transaction seeing no completion (or
    NACK) within this many cycles of its issue raises a typed
    :class:`~repro.errors.TransactionTimeout`.  ``None`` disables the
    watchdog (the default for healthy runs)."""

    progress_timeout_cycles: Optional[int] = None
    """Global deadlock watchdog: in-flight work with no completion for
    this many cycles raises :class:`~repro.errors.DeadlockError`.
    Distinguishes deadlock from quiescence — zero in-flight work never
    trips it.  ``None`` disables the watchdog."""

    max_retries: int = 8
    """Re-issue attempts per transaction after a NACK or poisoned read
    before it is abandoned and counted as unrecoverable."""

    retry_backoff_cycles: int = 16
    """Base retry backoff; attempt ``k`` waits ``base * 2**(k-1)``
    cycles, capped at ``retry_backoff_cap``."""

    retry_backoff_cap: int = 1024
    """Upper bound of the exponential retry backoff."""

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_TIERS:
            raise ConfigError(
                f"engine must be one of {ENGINE_TIERS}, got {self.engine!r}")
        if self.cycles <= 0:
            raise ConfigError("cycles must be positive")
        if not 0 <= self.warmup < self.cycles:
            raise ConfigError("warmup must lie inside the run")
        if self.outstanding < 1:
            raise ConfigError("outstanding must be >= 1")
        if self.telemetry_interval < 1:
            raise ConfigError("telemetry_interval must be >= 1")
        if self.txn_timeout_cycles is not None and self.txn_timeout_cycles < 1:
            raise ConfigError("txn_timeout_cycles must be >= 1 (or None)")
        if (self.progress_timeout_cycles is not None
                and self.progress_timeout_cycles < 1):
            raise ConfigError("progress_timeout_cycles must be >= 1 (or None)")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.retry_backoff_cycles < 1:
            raise ConfigError("retry_backoff_cycles must be >= 1")
        if self.retry_backoff_cap < self.retry_backoff_cycles:
            raise ConfigError(
                "retry_backoff_cap must be >= retry_backoff_cycles")
        if (self.txn_timeout_cycles is not None
                and self.retry_backoff_cap >= self.txn_timeout_cycles):
            # A retry parked for its full backoff would sit past the
            # watchdog deadline and be reported as a timeout instead of
            # re-issuing — a silent hang disguised as a fault.
            raise ConfigError(
                f"retry_backoff_cap ({self.retry_backoff_cap}) must be < "
                f"txn_timeout_cycles ({self.txn_timeout_cycles}); a parked "
                f"retry would outlive the transaction watchdog")

    @property
    def measured_cycles(self) -> int:
        return self.cycles - self.warmup

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every field, *including* the env-defaulted
        toggles (``engine``/``sanitize``/``telemetry``) — a dumped
        config replays the run it described, not whatever the loading
        process's environment happens to say.  Round-trips bit-exactly
        through :meth:`from_dict` (hypothesis-tested; the fuzz corpus
        depends on it)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown SimConfig field(s): {sorted(unknown)}")
        return cls(**{k: data[k] for k in data})
