"""Worker of the HBM simulator benchmark: one workload in one process.

``hbm_bench.py`` starts this file in a fresh interpreter; run by hand it
takes the same arguments plus ``--spawned-at`` (the launcher's
``time.monotonic()`` at spawn, so ``setup_s`` covers interpreter start
and imports).  It prints exactly one JSON line on standard output.

An untraced run sets the workload up, then repeats its operation until
``--seconds`` have passed and the current round is complete, then runs
the untimed correctness gates.  A traced run (``--trace 1``) runs a
fixed number of operations twice, first untraced and then under
cProfile, and groups the profile's self time by module into layers.
Every reported time is scaled to a reference host speed (:class:`HostClock`).
The program is touched only through its public API and, for the sweep
service, through ``python -m repro serve`` over HTTP.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import queue
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import hbm_bench as hb


class GateFailure(Exception):
    """An output of the program is wrong."""


@dataclass
class Op:
    """One timed operation; doubles as a span whose parent is the run."""

    index: int
    start: float
    end: float
    work: float
    ok: bool


# -- layer attribution --------------------------------------------------------

#: Layer -> source files under ``src/repro/``; the first match wins and
#: the rest of the package counts as ``harness``.
LAYER_FILES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("fabric.links", ("fabric/links.py",)),
    ("fabric.route", ("fabric/", "core/reorder.py", "core/address_map.py")),
    ("dram.controller", ("dram/controller.py",)),
    ("dram.pch", ("dram/pch.py", "dram/bank.py")),
    ("axi.master", ("axi/",)),
    ("traffic", ("traffic/",)),
    ("sim.stats", ("sim/stats.py",)),
    ("sim.engine", ("sim/engine.py", "sim/vector.py")),
    ("faults", ("faults/",)),
    ("conformance", ("conformance/",)),
    ("check", ("check/",)),
    ("service", ("service/",)),
)

#: (file, function) -> per-layer metric counting its calls.
CALL_METRICS = {
    ("fabric/links.py", "step"): "fabric.links.step_calls",
    ("fabric/base.py", "_retry_staged"): "fabric.staging_calls",
    ("dram/controller.py", "try_accept"): "dram.controller.try_accept_calls",
    ("dram/controller.py", "step"): "dram.controller.step_calls",
    ("axi/master.py", "step"): "axi.master.step_calls",
    ("sim/stats.py", "record"): "sim.stats.record_calls",
}

#: (file, function) -> per-layer metric summing its cumulative time.
TIER_METRICS = {
    ("sim/engine.py", "_run_fast"): "sim.engine.tier_s.fast",
    ("sim/vector.py", "run_vector"): "sim.engine.tier_s.vector",
    ("sim/engine.py", "_run_legacy"): "sim.engine.tier_s.legacy",
}

#: Built-ins that block (event-loop polls, lock and thread waits, sleeps):
#: their self time is waiting, not work, and is reported apart.
WAIT_CALLS = ("of 'select.", "of '_thread.", "time.sleep")

_PACKAGE = str(hb.SRC / "repro") + os.sep

#: Every self-time metric, in the order :func:`self_time_metric` knows them.
SELF_TIME_METRICS = ([f"{layer}.self_s" for layer, _ in LAYER_FILES]
                     + ["harness.self_s", "external.self_s",
                        "external.wait_s"])


def _package_path(filename: str) -> Optional[str]:
    """``filename`` relative to ``src/repro/``, or ``None`` outside it."""
    if not filename.startswith(_PACKAGE):
        return None
    return filename[len(_PACKAGE):].replace(os.sep, "/")


def self_time_metric(filename: str, func: str) -> str:
    """The per-layer metric a profile entry's self time belongs to."""
    rel = _package_path(filename)
    if rel is None:
        waits = filename == "~" and any(w in func for w in WAIT_CALLS)
        return "external.wait_s" if waits else "external.self_s"
    for layer, prefixes in LAYER_FILES:
        if rel.startswith(prefixes):
            return f"{layer}.self_s"
    return "harness.self_s"


def profile_metrics(stats: dict) -> Dict[str, float]:
    """Self time per layer, call counts and tier times from a
    ``pstats.Stats(...).stats`` mapping."""
    out: Dict[str, float] = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    for metric in (*CALL_METRICS.values(), *TIER_METRICS.values()):
        out[metric] = 0
    for (filename, _line, func), (_cc, nc, tt, ct, _callers) in stats.items():
        out[self_time_metric(filename, func)] += tt
        key = (_package_path(filename), func)
        if key in CALL_METRICS:
            out[CALL_METRICS[key]] += nc
        if key in TIER_METRICS:
            out[TIER_METRICS[key]] += ct
    return out


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload: set-up, a repeatable operation, correctness gates."""

    op_kind = "op"
    #: The timed loop ends only after a multiple of this many operations,
    #: so every run covers whole rounds of a balanced input mix.
    round_len = 1
    #: Operations in each pass of a traced run.
    trace_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.details: Dict[str, object] = {}
        #: Simulated counts observed from outside the program.
        self.counts: Counter = Counter()

    def setup(self) -> None:
        pass

    def op(self, i: int) -> float:
        """Run operation ``i``; return its work units.  Raises on a wrong
        output."""
        raise NotImplementedError

    def after_op(self, i: int) -> None:
        """Untimed bookkeeping after operation ``i`` succeeded."""

    def check(self) -> None:
        """Untimed correctness gates after the timed operations."""

    def traced(self, run: Callable[[], List[Op]]) -> Tuple[List[Op], dict]:
        prof = cProfile.Profile()
        prof.enable()
        try:
            ops = run()
        finally:
            prof.disable()
        return ops, pstats.Stats(prof).stats

    def snapshot_counts(self) -> None:
        """Freeze what the untraced pass observed into :attr:`counts`."""

    def layer_values(self, counts: Counter,
                     prof: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics this workload observes from outside."""
        return {}

    def teardown(self) -> None:
        pass

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"hbmbench: {what}", file=sys.stderr)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SimPoints(Workload):
    """One simulated point per operation, on the default engine tier; its
    work is the point's simulated fabric cycles."""

    op_kind = "point"
    cycles = 12_000
    warmup = 3_000
    #: Table IV GB/s the mean point is compared with, if any.
    anchor: Optional[float] = None

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.first_report = None
        self.gbps: List[float] = []
        self._last = None

    def setup(self) -> None:
        # Imports and first-construction costs land here, not in point 0.
        self.build(0)

    def build(self, i: int, engine: str = ""):
        """Engine of point ``i``; ``engine=""`` keeps the default tier."""
        raise NotImplementedError

    def config(self, engine: str):
        from repro.sim import SimConfig
        tier = {"engine": engine} if engine else {}
        return SimConfig(cycles=self.cycles, warmup=self.warmup, **tier)

    def op(self, i: int) -> float:
        eng = self.build(i)
        self._last = eng, eng.run()
        return eng.config.cycles

    def after_op(self, i: int) -> None:
        eng, report = self._last
        if i == 0 and self.first_report is None:
            self.first_report = report
        self.gbps.append(report.total_gbps)
        c = self.counts
        for probe in eng.fabric.telemetry_probes():
            name = probe.name
            if name.endswith(".grant_stalls") and name.startswith("link."):
                c["grant_stalls"] += probe.read()
            elif name.endswith(".page_hits"):
                c["page_hits"] += probe.read()
            elif name.endswith(".page_misses"):
                c["page_misses"] += probe.read()
        c["accepts"] += sum(mc.accepts for mc in eng.fabric.mcs)
        c["issued"] += sum(mp.issued for mp in eng.masters)
        c["stepped"] += eng.stepped_cycles
        c["cycles"] += eng.config.cycles

    def check(self) -> None:
        """The first point must equal the legacy reference loop's report."""
        legacy = self.build(0, engine="legacy").run()
        self.gate(legacy == self.first_report,
                  f"point 0 report differs from the legacy engine's "
                  f"(seed {self.seed})")
        if not self.gbps:
            return
        mean = statistics.fmean(self.gbps)
        self.details["mean_gbps"] = mean
        if self.anchor is not None:
            self.details["paper_err_pct"] = (
                abs(mean - self.anchor) / self.anchor * 100)

    def layer_values(self, counts: Counter,
                     prof: Dict[str, float]) -> Dict[str, float]:
        return {
            "fabric.links.grant_stalls": counts["grant_stalls"],
            "dram.controller.accept_ratio": _ratio(
                counts["accepts"], prof["dram.controller.try_accept_calls"]),
            "dram.pch.page_hit_ratio": _ratio(
                counts["page_hits"],
                counts["page_hits"] + counts["page_misses"]),
            "axi.master.issued_per_step": _ratio(
                counts["issued"], prof["axi.master.step_calls"]),
            "sim.engine.stepped_frac": _ratio(counts["stepped"],
                                              counts["cycles"]),
            "model.paper_err_pct": self.details.get("paper_err_pct", 0.0),
        }


class CcraPoints(SimPoints):
    """Table IV CCRA, 2:1, BL16, 12k cycles; traffic seed ``S*1000+i``."""

    fabric = "xlnx"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.experiments.table4_throughput import PAPER_REFERENCE
        xlnx, mao = PAPER_REFERENCE[("CCRA", "Both")]
        self.anchor = xlnx if self.fabric == "xlnx" else mao

    def build(self, i: int, engine: str = ""):
        from repro import make_fabric
        from repro.params import DEFAULT_PLATFORM
        from repro.sim import Engine
        from repro.traffic import make_pattern_sources
        from repro.types import FabricKind, Pattern, TWO_TO_ONE
        fab = make_fabric(FabricKind(self.fabric))
        sources = make_pattern_sources(
            Pattern.CCRA, DEFAULT_PLATFORM, burst_len=16, rw=TWO_TO_ONE,
            address_map=fab.address_map, seed=self.seed * 1000 + i)
        return Engine(fab, sources, self.config(engine))


class XlnxCcra(CcraPoints):
    trace_ops = 2


class MaoCcra(CcraPoints):
    fabric = "mao"
    trace_ops = 3


class StarveOffline(SimPoints):
    """Hot-spot BL8 reads on the MAO to one PCH that goes offline at cycle
    2000 with no degrade remap and no watchdogs; 30k cycles.  Point ``i``
    targets PCH ``(S*1000+i) % 32``."""

    cycles = 30_000
    warmup = 1_000
    trace_ops = 2

    def build(self, i: int, engine: str = ""):
        from repro import make_fabric
        from repro.faults import FaultEvent, FaultKind, FaultPlan
        from repro.params import DEFAULT_PLATFORM
        from repro.sim import Engine
        from repro.traffic import make_hotspot_sources
        from repro.types import FabricKind, READ_ONLY
        pch = (self.seed * 1000 + i) % DEFAULT_PLATFORM.num_pch
        plan = FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=2000, pch=pch)],
                         degrade=False)
        fab = make_fabric(FabricKind.MAO)
        sources = make_hotspot_sources(pch, DEFAULT_PLATFORM, burst_len=8,
                                       rw=READ_ONLY,
                                       address_map=fab.address_map)
        return Engine(fab, sources, self.config(engine), faults=plan)


class FuzzCampaign(Workload):
    """Conformance cases, each on the fast, vector and legacy tiers with the
    sanitizer, watchdogs, faults and drain.  Case ``i`` of block ``b`` is
    core configuration ``k = i mod 12`` (fabric x pattern at the paper's
    defaults) with fault ``(b + k) mod 6`` and traffic seed ``S*1000+b``,
    so every block of 12 covers each fabric, pattern and fault.

    The ``offline-strict`` fault and the broad space's other axes are left
    out: the fuzzer reports findings there on some seeds (see README), and
    a benchmark input must not fail.
    """

    op_kind = "case"
    trace_ops = 24

    def setup(self) -> None:
        from repro.conformance import CORE_DIMS, FAULT_KEYS, ParamSpace
        self.samples = ParamSpace(CORE_DIMS, mode="full").samples()
        self.faults = [k for k in FAULT_KEYS if k != "offline-strict"]
        self.round_len = len(self.samples)

    def case(self, i: int):
        from repro.conformance import FuzzCase
        block, k = divmod(i, len(self.samples))
        sample = dict(self.samples[k],
                      fault=self.faults[(block + k) % len(self.faults)])
        return FuzzCase.from_sample(sample, seed=self.seed * 1000 + block)

    def op(self, i: int) -> float:
        from repro.conformance import run_case
        case = self.case(i)
        result = run_case(case)
        if result.skipped or result.failures:
            raise GateFailure(f"fuzz case {case.label()}: "
                              f"{result.skipped or result.failures}")
        return 1


class Server:
    """One ``repro serve`` process on a fresh store under ``.hbmbench-out``.

    With ``profile`` set it runs under ``serve_profiled.py``, which writes
    the merged per-thread cProfile stats there when the server stops.
    """

    READY_TIMEOUT_S = 120.0
    STOP_TIMEOUT_S = 30.0

    def __init__(self, args: List[str], profile: Optional[str] = None) -> None:
        tmp = hb.OUT_DIR / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.store = tempfile.mkdtemp(prefix="store-", dir=tmp)
        cli = ["serve", "--port", "0", "--store-dir", self.store, *args]
        if profile is None:
            cmd = [sys.executable, "-m", "repro", *cli]
        else:
            cmd = [sys.executable, str(hb.BENCH_DIR / "serve_profiled.py"),
                   profile, *cli]
        self.lines: "queue.Queue[Optional[Tuple[float, str]]]" = queue.Queue()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.url = ""
        self.surface_build_s = 0.0

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.monotonic(), line))
        self.lines.put(None)

    def wait_ready(self) -> str:
        deadline = time.monotonic() + self.READY_TIMEOUT_S
        surface_start = None
        while True:
            left = max(0.0, deadline - time.monotonic())
            item = self.lines.get(timeout=left)
            if item is None:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before listening")
            stamp, line = item
            if line.startswith("precomputing sweep surface"):
                surface_start = stamp
            elif line.startswith("surface ready") and surface_start:
                self.surface_build_s = stamp - surface_start
            elif "listening on http://" in line:
                self.url = line.split("listening on ", 1)[1].strip()
                return self.url

    def stop(self) -> bool:
        """SIGINT, wait, remove the store; ``False`` if it had to be
        killed."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=self.STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=self.STOP_TIMEOUT_S)
        shutil.rmtree(self.store, ignore_errors=True)
        return clean and self.proc.returncode == 0


class SweepService(Workload):
    """Closed loop, one connection: each operation is one ``/v1/sweep``
    request sent after the previous answer arrived."""

    server_args: List[str] = []
    warmup_requests = 0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: Optional[Server] = None
        self.client = None
        self.handler_ms: Dict[str, List[float]] = {}
        self.framing_ms: List[float] = []

    def request(self, i: int) -> Tuple[dict, str]:
        """Query parameters and expected ``source`` of request ``i``."""
        raise NotImplementedError

    def warmup_request(self, j: int) -> Tuple[dict, str]:
        raise NotImplementedError

    def start_server(self, profile: Optional[str] = None) -> None:
        from repro.service.client import ServiceClient
        self.server = Server(self.server_args, profile)
        self.client = ServiceClient(self.server.wait_ready())
        for j in range(self.warmup_requests):
            params, source = self.warmup_request(j)
            ok = False
            try:
                self._send(params, source)
                ok = True
            finally:
                self.gate(ok, f"warm-up request {params} failed")

    def stop_server(self) -> None:
        if self.server is not None:
            self.gate(self.server.stop(), "server did not stop cleanly")
            self.server = None

    def setup(self) -> None:
        self.start_server()

    def _send(self, params: dict, source: str) -> Tuple[float, dict]:
        t0 = time.perf_counter()
        body = self.client.sweep(**params)
        client_ms = (time.perf_counter() - t0) * 1e3
        if body.get("source") != source:
            raise GateFailure(f"{params}: source {body.get('source')!r}, "
                              f"expected {source!r}")
        return client_ms, body

    def op(self, i: int) -> float:
        params, source = self.request(i)
        client_ms, body = self._send(params, source)
        self.handler_ms.setdefault(source, []).append(body["latency_ms"])
        self.framing_ms.append(client_ms - body["latency_ms"])
        return 1

    def traced(self, run: Callable[[], List[Op]]) -> Tuple[List[Op], dict]:
        # The server, not this client, does the work: restart it under the
        # per-thread profiler on a fresh store, so the same requests are
        # answered the same way.
        self.stop_server()
        fd, path = tempfile.mkstemp(suffix=".prof", dir=hb.OUT_DIR / "tmp")
        os.close(fd)
        self.start_server(profile=path)
        try:
            ops = run()
        finally:
            self.stop_server()
        try:
            return ops, pstats.Stats(path).stats
        finally:
            os.unlink(path)

    def snapshot_counts(self) -> None:
        c = self.counts
        for source, values in self.handler_ms.items():
            c[f"service.http.handler_p50_ms.{source}"] = statistics.median(
                values)
        c["service.http.framing_p50_ms"] = statistics.median(self.framing_ms)
        store = self.client.stats()["store"]
        c["service.store.hit_ratio"] = _ratio(
            store["hits"], store["hits"] + store["misses"])
        c["experiments.surface.build_s"] = self.server.surface_build_s

    def layer_values(self, counts: Counter,
                     prof: Dict[str, float]) -> Dict[str, float]:
        return dict(counts)

    def teardown(self) -> None:
        self.stop_server()


class SweepWarm(SweepService):
    """``serve --cycles 2000 --workers 1`` with its start-up surface.  Half
    the requests ask an on-grid burst length (a store hit), half an
    off-grid one (interpolated on the surface); xlnx, 2:1, the pattern
    and burst drawn from the seed.  200 untimed warm-up requests first."""

    op_kind = "warm request"
    trace_ops = 2000
    warmup_requests = 200
    server_args = ["--cycles", "2000", "--workers", "1"]

    def setup(self) -> None:
        from repro.experiments.surface import SURFACE_BURST_LENGTHS
        from repro.types import Pattern
        self.patterns = [p.name for p in Pattern]
        self.on_grid = list(SURFACE_BURST_LENGTHS)
        self.off_grid = [b for b in range(min(self.on_grid) + 1,
                                          max(self.on_grid))
                         if b not in self.on_grid]
        self.rng = random.Random(self.seed)
        self.warm_rng = random.Random(~self.seed)
        self._requests: List[Tuple[dict, str]] = []
        super().setup()

    def _draw(self, rng: random.Random) -> Tuple[dict, str]:
        pattern = rng.choice(self.patterns)
        if rng.random() < 0.5:
            return ({"fabric": "xlnx", "pattern": pattern,
                     "burst": rng.choice(self.on_grid)}, "store")
        return ({"fabric": "xlnx", "pattern": pattern,
                 "burst": rng.choice(self.off_grid)}, "interpolated")

    def request(self, i: int) -> Tuple[dict, str]:
        while len(self._requests) <= i:
            self._requests.append(self._draw(self.rng))
        return self._requests[i]

    def warmup_request(self, j: int) -> Tuple[dict, str]:
        return self._draw(self.warm_rng)


class SweepCold(SweepService):
    """``serve --cycles 2000 --no-surface``.  Each round of 12 requests asks
    every fabric x pattern once (BL16, 2:1) in a seed-shuffled order, at a
    horizon of ``2001 + 25*round + S % 25`` cycles that no earlier request
    used, so every answer is a fresh simulation."""

    op_kind = "cold request"
    round_len = 12
    trace_ops = 12
    warmup_requests = 2
    server_args = ["--cycles", "2000", "--no-surface"]
    COMBOS = [(f, p) for f in ("xlnx", "mao", "ideal")
              for p in ("SCS", "CCS", "SCRA", "CCRA")]

    def request(self, i: int) -> Tuple[dict, str]:
        rnd, k = divmod(i, len(self.COMBOS))
        order = random.Random(self.seed * 1000 + rnd).sample(
            range(len(self.COMBOS)), len(self.COMBOS))
        fabric, pattern = self.COMBOS[order[k]]
        cycles = 2001 + 25 * rnd + self.seed % 25
        return ({"fabric": fabric, "pattern": pattern, "cycles": cycles},
                "simulated")

    def warmup_request(self, j: int) -> Tuple[dict, str]:
        fabric, pattern = self.COMBOS[j]
        return ({"fabric": fabric, "pattern": pattern, "cycles": 1999 - j},
                "simulated")


IMPLEMENTATIONS = {
    "xlnx-ccra": XlnxCcra,
    "mao-ccra": MaoCcra,
    "starve-offline": StarveOffline,
    "fuzz-campaign": FuzzCampaign,
    "sweep-warm": SweepWarm,
    "sweep-cold": SweepCold,
}


# -- host speed ---------------------------------------------------------------

#: The calibration loop's time, in ms, on the 2-core box the bounds were
#: set on.  Every time the benchmark reports is scaled to this host speed.
CAL_REF_MS = 2.5
#: Least host time between two calibration samples in the timed loop.
CAL_INTERVAL_S = 0.25


def _cal_loop() -> int:
    """Fixed interpreter-bound work: dict stores and integer arithmetic."""
    d: Dict[int, int] = {}
    s = 0
    for i in range(20_000):
        d[i & 255] = s
        s += (i * 7) % 13 + len(d)
    return s


class HostClock:
    """Tracks how fast this (shared) host runs Python right now.

    The host's speed drifts by tens of percent over seconds to minutes as
    its neighbours come and go, and it drags every timing with it.  A
    sample is the fastest of three runs of :func:`_cal_loop`, taken between
    operations on the CPU the operations run on.  :attr:`scale` turns host
    seconds into seconds at the reference speed; like the timing metric it
    uses the lower quartile, so both describe the host's faster moments.
    Nothing the program does changes the loop's cost, so a slower program
    still reads slower.
    """

    def __init__(self) -> None:
        self.samples_ms: List[float] = []
        self._last = float("-inf")

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                _cal_loop()
                best = min(best, time.perf_counter() - t0)
            self.samples_ms.append(best * 1e3)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= CAL_INTERVAL_S:
            self.sample()

    @property
    def scale(self) -> float:
        return CAL_REF_MS / hb.percentile(self.samples_ms, 25)


def pin_to_one_cpu() -> None:
    """Run this process and its children (the server) on one CPU, so the
    calibration samples the CPU that does the work."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- runs ---------------------------------------------------------------------


def run_ops(wl: Workload, clock: HostClock, *, n_ops: Optional[int] = None,
            seconds: float = 0.0) -> List[Op]:
    """Run ``n_ops`` operations, or whole rounds until ``seconds`` passed."""
    ops: List[Op] = []
    t0 = time.perf_counter()
    i = 0
    while True:
        clock.maybe_sample()
        start = time.perf_counter()
        try:
            work, ok = wl.op(i), True
        except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
            traceback.print_exc()
            work, ok = 0.0, False
        end = time.perf_counter()
        wl.gate(ok, f"{wl.op_kind} {i} failed")
        if ok:
            wl.after_op(i)
        ops.append(Op(i, start, end, work, ok))
        i += 1
        if n_ops is not None:
            if i >= n_ops:
                return ops
        elif end - t0 >= seconds and i % wl.round_len == 0:
            return ops


def _latency_details(ops: List[Op]) -> dict:
    """Host-time statistics of one pass, unscaled."""
    lat_ms = [(o.end - o.start) * 1e3 for o in ops]
    tail = hb.tail_percentile(len(lat_ms))
    elapsed = ops[-1].end - ops[0].start
    return {"ops": len(ops), "p25_ms": hb.percentile(lat_ms, 25),
            "p50_ms": statistics.median(lat_ms), "tail_pct": tail,
            "tail_ms": None if tail is None else hb.percentile(lat_ms, tail),
            "elapsed_s": elapsed,
            "work_per_s": sum(o.work for o in ops) / elapsed}


def timed_run(wl: Workload, clock: HostClock, seconds: float) -> dict:
    ops = run_ops(wl, clock, seconds=seconds)
    clock.sample(5)
    details = _latency_details(ops)
    wl.check()
    return {"metrics": {"latency_p25_ms": details["p25_ms"] * clock.scale},
            "details": details}


def _spans(name: str, ops: List[Op]) -> List[dict]:
    t0 = ops[0].start
    root = {"name": name, "span_id": f"{name}/0", "parent_id": None,
            "start_s": 0.0, "end_s": ops[-1].end - t0}
    return [root] + [{"name": "op", "span_id": f"{name}/{o.index + 1}",
                      "parent_id": root["span_id"],
                      "start_s": o.start - t0, "end_s": o.end - t0,
                      "ok": o.ok} for o in ops]


def traced_run(wl: Workload, clock: HostClock) -> dict:
    plain = run_ops(wl, clock, n_ops=wl.trace_ops)
    wl.snapshot_counts()
    counts = Counter(wl.counts)
    traced, stats = wl.traced(lambda: run_ops(wl, clock, n_ops=wl.trace_ops))
    clock.sample(5)
    wl.check()
    prof = profile_metrics(stats)
    metrics = {name: 0.0 for name in hb.PER_LAYER}
    metrics.update(prof)
    metrics.update(wl.layer_values(counts, prof))
    for name, (unit, _better) in hb.PER_LAYER.items():
        if unit in ("s", "ms"):
            metrics[name] *= clock.scale
    metrics["trace.overhead_x"] = ((traced[-1].end - traced[0].start)
                                   / (plain[-1].end - plain[0].start))
    return {"metrics": metrics,
            "details": _latency_details(plain),
            "spans": _spans("untraced", plain) + _spans("traced", traced)}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=IMPLEMENTATIONS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = (time.monotonic() if args.spawned_at is None
                  else args.spawned_at)
    pin_to_one_cpu()
    wl = IMPLEMENTATIONS[args.workload](args.seed)
    clock = HostClock()
    record: dict = {}
    try:
        wl.setup()
        setup_s = time.monotonic() - spawned_at
        clock.sample(5)
        if not args.setup_only:
            record.update(traced_run(wl, clock) if args.trace
                          else timed_run(wl, clock, args.seconds))
    finally:
        wl.teardown()
    record.update(setup_s=setup_s * clock.scale, setup_host_s=setup_s)
    if not args.setup_only:
        from repro.sim import SimConfig
        if not args.trace:
            record["metrics"]["peak_rss_mb"] = peak_rss_mb()
        record["details"].update(wl.details, op_kind=wl.op_kind,
                                 engine_tier=SimConfig().engine,
                                 host_scale=clock.scale,
                                 calibration_ms=clock.samples_ms)
        record.update(correct=wl.failed == 0, attempted=wl.attempted,
                      failed=wl.failed)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
