"""Per-run provenance manifest.

One small JSON document answering "what exactly produced this result?":
model version, platform digest, engine path, seeds, config knobs, fault
plan, and cache traffic.  The manifest is what turns a profile artifact
from "a number" into "a number you can re-derive" — pass the same fields
back into the runner and you get a bit-identical run.

Deliberately **no wall-clock timestamp**: runs are deterministic
functions of their inputs (determinism lint rule DL002 bans wall-clock in
simulation code), so two runs of the same point must produce *identical*
manifests — that identity is itself a useful check, and the profile
golden test relies on it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..params import HbmPlatform
from ..sim.cache import MODEL_VERSION, platform_digest
from ..sim.config import SimConfig

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1


def build_manifest(
    experiment: str,
    platform: HbmPlatform,
    cfg: SimConfig,
    seed: Optional[int] = None,
    fault_plan: Optional[Any] = None,
    cache_hits: Optional[int] = None,
    cache_misses: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the provenance record of one run.

    ``fault_plan`` may be a :class:`~repro.faults.plan.FaultPlan` (its
    ``describe()`` summary is embedded) or ``None`` for a healthy run.
    ``extra`` merges caller-specific fields (e.g. the profile point).
    """
    plan_desc: Optional[Any]
    if fault_plan is None:
        plan_desc = None
    elif hasattr(fault_plan, "describe"):
        plan_desc = fault_plan.describe()
    else:
        plan_desc = repr(fault_plan)
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "model_version": MODEL_VERSION,
        "experiment": experiment,
        "platform_digest": platform_digest(platform),
        "platform": {
            "num_pch": platform.num_pch,
            "num_masters": platform.num_masters,
            "fabric_clock_hz": platform.fabric_clock_hz,
            "accel_clock_hz": platform.accel_clock_hz,
        },
        "engine_path": cfg.engine,
        "cycles": cfg.cycles,
        "warmup": cfg.warmup,
        "outstanding": cfg.outstanding,
        "sanitize": cfg.sanitize,
        "telemetry": cfg.telemetry,
        "telemetry_interval": cfg.telemetry_interval,
        "seed": seed,
        "fault_plan": plan_desc,
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
        },
    }
    if extra:
        manifest.update(extra)
    return manifest


def service_manifest(
    endpoint: str,
    platform: HbmPlatform,
    *,
    source: str,
    inputs: Optional[Dict[str, Any]] = None,
    entry: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Provenance record attached to every sweep-service response.

    The serving-tier sibling of :func:`build_manifest`: instead of one
    run's ``SimConfig`` it records *where the answer came from* —
    ``source`` is ``store`` / ``simulated`` / ``deduped`` /
    ``interpolated`` / ``analytic`` — plus the normalized query
    ``inputs`` and, for store-backed answers, the content-addressed
    ``entry`` digest (the basename of the pickle in the shared cache
    directory).  Same determinism contract as :func:`build_manifest`:
    **no wall-clock**, so the same query answered from the same entry
    yields a bit-identical manifest.
    """
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "model_version": MODEL_VERSION,
        "endpoint": endpoint,
        "source": source,
        "platform_digest": platform_digest(platform),
        "platform": {
            "num_pch": platform.num_pch,
            "num_masters": platform.num_masters,
            "fabric_clock_hz": platform.fabric_clock_hz,
            "accel_clock_hz": platform.accel_clock_hz,
        },
        "inputs": dict(inputs or {}),
        "entry": entry,
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """Serialize with sorted keys so equal manifests are equal bytes."""
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
