"""Benchmark of the HBM simulator: end-to-end metrics per workload, and
per-layer metrics from a traced run.

Run from the repository root::

    python3 hbmbench/hbm_bench.py                          # every workload
    python3 hbmbench/hbm_bench.py --workload xlnx-ccra --seed 3
    python3 hbmbench/hbm_bench.py --workload mao-ccra --trace 1

Each workload runs in a fresh interpreter (``workloads.py``) whose
environment has every ``REPRO_*`` variable removed, so a stray
``REPRO_ENGINE`` or ``REPRO_SANITIZE`` cannot change what is measured.
The program under test is imported from ``src/`` next to this directory;
nothing is installed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.  A
detail record (sample counts, tail latency, engine tier, spans of a
traced run) goes to ``--out``, by default under ``.hbmbench-out/``.

This module imports nothing from the program; ``workloads.py`` imports
the metric tables and statistics helpers from here.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".hbmbench-out"

#: Workload name -> why it is in the benchmark (mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "xlnx-ccra": "Table IV CCRA on the vendor fabric: crossing random "
                 "traffic makes lateral-bus arbitration (fabric/links.py) "
                 "the hottest layer",
    "mao-ccra": "the same traffic through the MAO: link arbitration "
                "disappears, the controller and MC staging dominate, so a "
                "links-only change must show no gain here",
    "starve-offline": "hot PCH offline with no degrade: almost no model "
                      "work per cycle, so only the engine's event horizon "
                      "or staging proof can speed it up",
    "fuzz-campaign": "many short conformance cases on all three engine "
                     "tiers with sanitizer, faults and drain: per-run "
                     "set-up and observer cost",
    "sweep-warm": "repro-hbm serve answering store hits and interpolated "
                  "off-grid bursts: the HTTP, store and surface path",
    "sweep-cold": "repro-hbm serve simulating points it has never seen: "
                  "the queue, store write-through and one simulation per "
                  "request",
}

#: End-to-end metric -> (unit, better, bound).  ``bound`` is the share of
#: the parent's median by which a change may worsen the metric.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower", 0.25),
    "latency_p25_ms": ("ms", "lower", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: Per-layer metric -> (unit, better).  Emitted by every ``--trace 1``
#: run; a layer a workload never enters reads 0.
PER_LAYER: Dict[str, tuple] = {
    "fabric.links.self_s": ("s", "lower"),
    "fabric.route.self_s": ("s", "lower"),
    "dram.controller.self_s": ("s", "lower"),
    "dram.pch.self_s": ("s", "lower"),
    "axi.master.self_s": ("s", "lower"),
    "traffic.self_s": ("s", "lower"),
    "sim.stats.self_s": ("s", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "faults.self_s": ("s", "lower"),
    "conformance.self_s": ("s", "lower"),
    "check.self_s": ("s", "lower"),
    "service.self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "external.self_s": ("s", "lower"),
    "external.wait_s": ("s", "lower"),
    "fabric.links.step_calls": ("count", "lower"),
    "fabric.staging_calls": ("count", "lower"),
    "dram.controller.try_accept_calls": ("count", "lower"),
    "dram.controller.step_calls": ("count", "lower"),
    "axi.master.step_calls": ("count", "lower"),
    "sim.stats.record_calls": ("count", "lower"),
    "sim.engine.tier_s.fast": ("s", "lower"),
    "sim.engine.tier_s.vector": ("s", "lower"),
    "sim.engine.tier_s.legacy": ("s", "lower"),
    "fabric.links.grant_stalls": ("count", "lower"),
    "dram.controller.accept_ratio": ("ratio", "higher"),
    "dram.pch.page_hit_ratio": ("ratio", "higher"),
    "axi.master.issued_per_step": ("ratio", "higher"),
    "sim.engine.stepped_frac": ("ratio", "lower"),
    "service.http.handler_p50_ms.store": ("ms", "lower"),
    "service.http.handler_p50_ms.interpolated": ("ms", "lower"),
    "service.http.handler_p50_ms.simulated": ("ms", "lower"),
    "service.http.framing_p50_ms": ("ms", "lower"),
    "service.store.hit_ratio": ("ratio", "higher"),
    "experiments.surface.build_s": ("s", "lower"),
    "model.paper_err_pct": ("%", "lower"),
    "trace.overhead_x": ("x", "lower"),
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Default ``--seconds`` (BENCHMARK.json's ``run_seconds``).
RUN_SECONDS = 8
#: A workload run still going after this many seconds is killed, workers
#: and servers alike.
RUN_TIMEOUT_S = 170


# -- statistics ---------------------------------------------------------------

#: Tail candidates in per mille, highest first.
_TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile with at least ten of ``n`` samples beyond it, or
    ``None`` when even the median has fewer than ten beyond it."""
    for pm in _TAIL_PER_MILLE:
        if n * (1000 - pm) >= 10 * 1000:
            return pm / 10
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# -- launcher -----------------------------------------------------------------


def worker_env() -> Dict[str, str]:
    """The launcher's environment minus every ``REPRO_*`` variable, with
    only this checkout's ``src/`` on the import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_worker(workload: str, seed: int, seconds: int, trace: int,
                 deadline: float, setup_only: bool = False) -> dict:
    """Run ``workloads.py`` once in a fresh process group; return the JSON
    object it prints.  Exits the benchmark if the worker fails or is
    still running at ``deadline`` (a ``time.monotonic()`` value)."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        # The worker may own a server process: take down the whole group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"hbm_bench: {workload} ran past {RUN_TIMEOUT_S}s; killed")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"hbm_bench: {workload} worker exited with "
                 f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """All processes of one workload run; returns the detail record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups: List[float] = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(spawn_worker(workload, seed, seconds, trace,
                                       deadline, setup_only=True)["setup_s"])
    res = spawn_worker(workload, seed, seconds, trace, deadline)
    setups.append(res["setup_s"])
    declared = PER_LAYER if trace else END_TO_END
    values = dict(res["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != set(declared):
        sys.exit(f"hbm_bench: {workload} emitted {sorted(values)}, "
                 f"declared {sorted(declared)}")
    res["metrics"] = {name: {"value": values[name],
                             "unit": declared[name][0]}
                      for name in declared}
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               setup_samples_s=setups)
    return res


def _print_record(rec: dict) -> None:
    name = rec["workload"]
    for metric, mv in rec["metrics"].items():
        print(f"{name:15s} {metric:42s} {mv['value']:>14.6g} {mv['unit']}")
    d = rec["details"]
    tail = (f", p{d['tail_pct']:g} {d['tail_ms']:.3f} ms"
            if d.get("tail_pct") is not None else "")
    print(f"{name:15s} {d['ops']} ops ({d['op_kind']}), "
          f"{d['work_per_s']:.6g} work/s, latency p50 {d['p50_ms']:.3f} ms"
          f"{tail} (host time), host speed x{d['host_scale']:.3f} of "
          f"reference, engine tier {d['engine_tier']!r}, "
          f"attempted {rec['attempted']}, failed {rec['failed']}"
          + (f", paper error {d['paper_err_pct']:.2f}%"
             if "paper_err_pct" in d else ""))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", default=None,
                        help="detail record (default: .hbmbench-out/...)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hbm_bench: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, args.trace)
               for n in names]
    suffix = "-trace" if args.trace else ""
    out = Path(args.out) if args.out else (
        OUT_DIR / f"{args.workload}-s{args.seed}{suffix}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(records, indent=1) + "\n")
    for rec in records:
        _print_record(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v
                   for r in records for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
