"""Command-line runner: regenerate paper artifacts and query the models.

Usage::

    repro-hbm list
    repro-hbm run fig4 [--cycles 12000]
    repro-hbm all [--cycles 8000] [--out results.txt]
    repro-hbm estimate --pattern CCS --fabric mao --rw 2:1 --burst 16
    repro-hbm advise --pattern CCRA --fabric xlnx --outstanding 4
    repro-hbm chaos --scenario pch-offline [--fabric xlnx] [--seed 0]
    repro-hbm profile fig2 [--trace-out trace.json] [--manifest-out m.json]
    repro-hbm check [--json]               # determinism lint over src/
    repro-hbm fuzz --budget 200 --seed 0   # model-based conformance fuzzing
    repro-hbm fuzz --replay-corpus         # re-run committed fuzz findings
    repro-hbm serve --port 8321            # HTTP estimate/advise/sweep service
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from ..sim.config import ENGINE_TIERS
from ..types import FabricKind, Pattern, RWRatio
from .registry import EXPERIMENTS, get_experiment


def _parse_rw(text: str) -> RWRatio:
    try:
        r, w = text.split(":")
        return RWRatio(int(r), int(w))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected READS:WRITES (e.g. 2:1), got {text!r}") from exc


def _cmd_estimate(args) -> str:
    from ..core.estimator import BandwidthEstimator, EstimateInputs
    est = BandwidthEstimator()
    inputs = EstimateInputs(
        fabric=FabricKind(args.fabric),
        pattern=Pattern[args.pattern],
        rw=args.rw,
        burst_len=args.burst,
        outstanding=args.outstanding,
    )
    e = est.estimate(inputs)
    lines = [
        f"pattern {args.pattern} on {args.fabric}, {args.rw} R:W, BL{args.burst}:",
        f"  estimated bandwidth : {e.total_gbps:8.1f} GB/s "
        f"(RD {e.read_gbps:.1f} / WR {e.write_gbps:.1f})",
        f"  binding constraint  : {e.bottleneck}",
        f"  effective channels  : {e.nch_eff}",
    ]
    for note in e.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def _cmd_advise(args) -> str:
    from ..core.guidelines import DesignDescription, evaluate_guidelines
    design = DesignDescription(
        rw=args.rw,
        burst_len=args.burst,
        outstanding=args.outstanding,
        pattern=Pattern[args.pattern],
        fabric=FabricKind(args.fabric),
    )
    findings = evaluate_guidelines(design)
    return "\n".join(str(f) for f in findings)


def _cmd_chaos(args) -> str:
    from ..faults.chaos import format_report, run_suite
    scenarios = None if args.scenario == "all" else [args.scenario]
    results = run_suite(
        scenarios,
        fabric=FabricKind(args.fabric),
        pattern=Pattern[args.pattern],
        cycles=args.cycles,
        seed=args.seed,
        workers=args.workers,
    )
    return format_report(results)


def _cmd_cache(args) -> tuple:
    """Cache maintenance front end; returns (text, exit code)."""
    from ..sim.cache import SimCache
    cache = SimCache(args.dir)
    if not cache.directory:
        return ("sim cache: no disk directory configured "
                "(set REPRO_SIM_CACHE_DIR or pass --dir)", 1)
    lines = []
    if args.prune:
        if args.max_bytes is None and args.max_age_days is None:
            return ("cache --prune needs --max-bytes and/or "
                    "--max-age-days", 2)
        lines.append(cache.prune(max_bytes=args.max_bytes,
                                 max_age_days=args.max_age_days).summary())
    lines.append(cache.stats().summary())
    return "\n".join(lines), 0


def _cmd_serve(args) -> int:
    """Sweep-service front end: open the store (and optionally build the
    precomputed surface), then serve until interrupted."""
    from ..service.http import run_server
    from ..sim.cache import SimCache
    cache = SimCache(args.store_dir, max_memory_entries=args.mem_entries)
    surface = None
    if not args.no_surface:
        from .surface import build_surface
        print(f"precomputing sweep surface (cycles={args.cycles}, "
              f"workers={args.workers}) ...", flush=True)
        start = time.perf_counter()  # det-lint: allow (display only)
        surface = build_surface(cycles=args.cycles, workers=args.workers,
                                cache=cache)
        elapsed = time.perf_counter() - start  # det-lint: allow
        print(f"surface ready: {len(surface)} samples ({elapsed:.1f}s)",
              flush=True)
    run_server(args.host, args.port, cache=cache, surface=surface,
               workers=args.queue_workers, default_cycles=args.cycles,
               task_timeout=args.task_timeout, isolate=args.isolate)
    return 0


def _cmd_profile(args) -> str:
    # Lazy import: the profiler pulls in the telemetry and traffic layers,
    # which the other subcommands never need.
    from ..telemetry.profile import profile_experiment
    result = profile_experiment(
        args.key,
        cycles=args.cycles,
        interval=args.interval,
        seed=args.seed,
        trace_out=args.trace_out,
        manifest_out=args.manifest_out,
    )
    lines = [result.summary]
    if args.trace_out:
        lines.append(f"wrote Perfetto trace to {args.trace_out} "
                     f"(load at ui.perfetto.dev or chrome://tracing)")
    if args.manifest_out:
        lines.append(f"wrote provenance manifest to {args.manifest_out}")
    return "\n".join(lines)


def _cmd_check(args) -> tuple:
    """Determinism lint front end; returns (text, exit code)."""
    from ..check.findings import render, render_json
    from ..check.lint import default_src_root, lint_tree
    findings = lint_tree(default_src_root())
    rc = 1 if findings else 0
    if args.json:
        return render_json(findings), rc
    summary = f"determinism lint: {len(findings)} finding(s)"
    return (f"{render(findings)}\n{summary}" if findings else summary), rc


def _fuzz_resume_hint(args, journal_path: str) -> str:
    """The exact command that finishes an interrupted campaign."""
    bits = ["repro-hbm fuzz", f"--budget {args.budget}",
            f"--seed {args.seed}"]
    if args.no_minimize:
        bits.append("--no-minimize")
    if args.no_corpus:
        bits.append("--no-corpus")
    if args.corpus_dir:
        bits.append(f"--corpus-dir {args.corpus_dir}")
    bits.append(f"--resume {journal_path}")
    return " ".join(bits)


def _cmd_fuzz(args) -> tuple:
    """Conformance fuzz front end; returns (text, exit code, notes).

    ``text`` is the campaign report (what ``--out`` captures — byte
    identical between a clean run and an interrupted-then-resumed one);
    ``notes`` carry journaling/resume status for stdout only.
    """
    from ..conformance import corpus as corpus_mod
    from ..conformance.driver import run_campaign
    from ..runtime import GracefulShutdown
    corpus_dir = args.corpus_dir or str(corpus_mod.default_corpus_dir())
    if args.replay_corpus:
        entries = corpus_mod.list_entries(corpus_dir)
        lines = corpus_mod.replay(corpus_dir)
        text = "\n".join(
            [f"corpus replay: {len(entries)} entr(ies) from {corpus_dir}"]
            + [f"  FAIL {line}" for line in lines]
            + ([f"  all {len(entries)} entr(ies) pass"] if not lines else []))
        return text, 0 if not lines else 1, []
    journal_path = None if args.no_journal else (args.resume or args.journal)
    with GracefulShutdown() as stop:
        report = run_campaign(
            budget=args.budget, seed=args.seed,
            minimize=not args.no_minimize,
            corpus_dir=corpus_dir if not args.no_corpus else None,
            journal_path=None if args.resume else journal_path,
            resume_from=args.resume,
            max_minutes=args.max_minutes,
            should_stop=stop)
    rc = 0 if report.ok else 1
    notes = []
    if report.resumed:
        notes.append(f"resumed {report.resumed} completed case(s) from "
                     f"journal {args.resume}")
    if report.interrupted or report.deadline_reached:
        why = ("interrupted" if report.interrupted
               else f"wall-clock deadline ({args.max_minutes} min) reached")
        notes.append(
            f"{why}: checkpointed after {len(report.results)} of "
            f"{report.budget} case(s); {report.remaining} remaining")
        if report.journal_path:
            notes.append("resume with: "
                         + _fuzz_resume_hint(args, report.journal_path))
        rc = 130 if report.interrupted else 0
    elif report.journal_path and not args.resume:
        notes.append(f"run journal: {report.journal_path}")
    return report.summary(), rc, notes


def _cmd_list() -> str:
    lines = ["available experiments:"]
    for key in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[key]
        lines.append(f"  {key:<8} {spec.title}")
    return "\n".join(lines)


def _cmd_run(keys: List[str], cycles: Optional[int]) -> str:
    chunks = []
    for key in keys:
        spec = get_experiment(key)
        kwargs = {}
        if cycles is not None and spec.uses_simulation:
            kwargs["cycles"] = cycles
        start = time.perf_counter()  # det-lint: allow (display only)
        table = spec.execute(**kwargs)
        elapsed = time.perf_counter() - start  # det-lint: allow
        chunks.append(f"=== {key}: {spec.title} ({elapsed:.1f}s) ===\n{table}")
    return "\n\n".join(chunks)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-hbm",
        description="Regenerate the tables and figures of 'Fast HBM Access "
                    "with FPGAs' (IPDPSW 2021)")
    # Options shared by every simulation-running subcommand.
    sim_opts = argparse.ArgumentParser(add_help=False)
    sim_opts.add_argument("--no-cache", action="store_true",
                          help="disable the sweep-point result cache")
    sim_opts.add_argument("--engine", choices=list(ENGINE_TIERS),
                          default=None,
                          help="main-loop tier for every simulation: fast "
                               "(default) or legacy (reference per-cycle "
                               "loop; bit-identical results, slower)")
    sim_opts.add_argument("--sanitize", action="store_true",
                          help="attach the runtime invariant sanitizer to "
                               "every simulation (bit-identical results, "
                               "slower; see repro.check)")
    sim_opts.add_argument("--telemetry", action="store_true",
                          help="attach the telemetry sampler to every "
                               "simulation (bit-identical results; see "
                               "repro.telemetry and the profile subcommand)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments")
    p_run = sub.add_parser("run", help="run selected experiments",
                           parents=[sim_opts])
    p_run.add_argument("keys", nargs="+", choices=sorted(EXPERIMENTS))
    p_run.add_argument("--cycles", type=int, default=None,
                       help="simulation horizon in fabric cycles")
    p_run.add_argument("--out", type=str, default=None)
    p_all = sub.add_parser("all", help="run every experiment",
                           parents=[sim_opts])
    p_all.add_argument("--cycles", type=int, default=None)
    p_all.add_argument("--out", type=str, default=None)
    p_rep = sub.add_parser("report", help="write a markdown results report",
                           parents=[sim_opts])
    p_rep.add_argument("keys", nargs="*", metavar="KEY",
                       help=f"experiments to include (default: all of "
                            f"{', '.join(sorted(EXPERIMENTS))})")
    p_rep.add_argument("--cycles", type=int, default=None)
    p_rep.add_argument("--out", type=str, default="results_report.md")
    from ..faults.chaos import SCENARIOS
    p_chaos = sub.add_parser(
        "chaos", help="fault-injection resilience report", parents=[sim_opts])
    p_chaos.add_argument("--scenario", default="all",
                         choices=["all"] + sorted(SCENARIOS),
                         help="fault scenario to run (default: the whole "
                              "suite)")
    p_chaos.add_argument("--fabric", choices=[f.value for f in FabricKind],
                         default="xlnx")
    p_chaos.add_argument("--pattern", choices=[p_.name for p_ in Pattern],
                         default="SCS")
    p_chaos.add_argument("--cycles", type=int, default=6000,
                         help="simulation horizon in fabric cycles")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="traffic and fault-plan seed")
    p_chaos.add_argument("--workers", type=int, default=1,
                         help="scenarios to run in parallel on the "
                              "supervised pool (default: serial)")
    p_chaos.add_argument("--out", type=str, default=None)
    p_prof = sub.add_parser(
        "profile", help="run one experiment's representative point under "
                        "full telemetry; bottleneck report + Perfetto trace",
        parents=[sim_opts])
    p_prof.add_argument("key", choices=sorted(EXPERIMENTS),
                        help="experiment whose representative point to "
                             "profile")
    p_prof.add_argument("--cycles", type=int, default=6000,
                        help="simulation horizon in fabric cycles")
    p_prof.add_argument("--interval", type=int, default=None,
                        help="telemetry sampling interval in fabric cycles "
                             "(default: ~64 samples per run)")
    p_prof.add_argument("--seed", type=int, default=0,
                        help="traffic (and fault-plan) seed")
    p_prof.add_argument("--trace-out", type=str, default=None,
                        help="write a Chrome trace-event / Perfetto JSON "
                             "timeline here")
    p_prof.add_argument("--manifest-out", type=str, default=None,
                        help="write the per-run provenance manifest here")
    p_prof.add_argument("--out", type=str, default=None)
    p_check = sub.add_parser(
        "check", help="determinism lint over the simulator sources")
    p_check.add_argument("--json", action="store_true",
                         help="emit findings as JSON instead of text")
    p_fuzz = sub.add_parser(
        "fuzz", help="model-based conformance fuzzing over the timing / "
                     "fault / fabric space (see repro.conformance)")
    p_fuzz.add_argument("--budget", type=int, default=200,
                        help="number of sampled configurations to run")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (space sampling + traffic)")
    p_fuzz.add_argument("--replay-corpus", action="store_true",
                        help="re-run every committed tests/corpus entry "
                             "instead of fuzzing")
    p_fuzz.add_argument("--corpus-dir", type=str, default=None,
                        help="corpus directory (default: tests/corpus)")
    p_fuzz.add_argument("--no-minimize", action="store_true",
                        help="skip greedy shrinking of failing configs")
    p_fuzz.add_argument("--no-corpus", action="store_true",
                        help="do not write minimized failures to the corpus")
    p_fuzz.add_argument("--journal", type=str, default="fuzz-journal.jsonl",
                        help="durable run journal recording every case as "
                             "it completes (resume an interrupted campaign "
                             "with --resume)")
    p_fuzz.add_argument("--no-journal", action="store_true",
                        help="disable the run journal")
    p_fuzz.add_argument("--resume", type=str, default=None, metavar="JOURNAL",
                        help="resume an interrupted campaign from its "
                             "journal: completed cases are restored "
                             "bit-identically, only the remainder is "
                             "re-simulated")
    p_fuzz.add_argument("--max-minutes", type=float, default=None,
                        help="wall-clock deadline: checkpoint cleanly to "
                             "the journal and exit with a resume hint")
    p_fuzz.add_argument("--out", type=str, default=None)
    p_cache = sub.add_parser(
        "cache", help="sim-result cache maintenance (footprint stats, "
                      "size/age-bounded pruning)")
    p_cache.add_argument("--dir", type=str, default=None,
                         help="cache directory (default: "
                              "REPRO_SIM_CACHE_DIR)")
    p_cache.add_argument("--stats", action="store_true",
                         help="report entry count and byte footprint "
                              "(the default action)")
    p_cache.add_argument("--prune", action="store_true",
                         help="delete entries to fit --max-bytes / "
                              "--max-age-days")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="prune oldest entries until the directory "
                              "fits this many bytes")
    p_cache.add_argument("--max-age-days", type=float, default=None,
                         help="prune entries older than this many days")
    p_serve = sub.add_parser(
        "serve", help="HTTP sweep service: estimate/advise served "
                      "analytically, measured bandwidth from the shared "
                      "result store, the precomputed surface, or an async "
                      "dedup'ing simulation queue (see repro.service)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="TCP port (0 picks a free one)")
    p_serve.add_argument("--cycles", type=int, default=3000,
                         help="simulation horizon for served sweep points "
                              "and the precomputed surface")
    p_serve.add_argument("--store-dir", type=str, default=None,
                         help="shared result-store directory (default: "
                              "REPRO_SIM_CACHE_DIR)")
    p_serve.add_argument("--mem-entries", type=int, default=4096,
                         help="LRU bound of the in-memory store table — a "
                              "long-lived server must not grow without "
                              "limit (0 = unbounded)")
    p_serve.add_argument("--no-surface", action="store_true",
                         help="skip the start-up surface precompute; every "
                              "cold query simulates")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="process workers for the surface precompute")
    p_serve.add_argument("--queue-workers", type=int, default=1,
                         help="concurrent simulation jobs in the serving "
                              "queue")
    p_serve.add_argument("--task-timeout", type=float, default=None,
                         help="per-job timeout in seconds: a job past it "
                              "fails as 'timeout' (with --isolate its "
                              "worker process is killed; without, the "
                              "simulation finishes in the background)")
    p_serve.add_argument("--isolate", action="store_true",
                         help="run each queued simulation once in a fresh "
                              "worker process, so a crashing point fails "
                              "as 'crash' instead of taking the server "
                              "down")
    for name, helptext in (("estimate", "analytical bandwidth estimate"),
                           ("advise", "check a design against the guidelines")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--pattern", choices=[p_.name for p_ in Pattern],
                       default="CCS")
        p.add_argument("--fabric", choices=[f.value for f in FabricKind],
                       default="xlnx")
        p.add_argument("--rw", type=_parse_rw, default=RWRatio(2, 1),
                       help="read:write ratio, e.g. 2:1")
        p.add_argument("--burst", type=int, default=16)
        p.add_argument("--outstanding", type=int, default=32)

    args = parser.parse_args(argv)
    if getattr(args, "no_cache", False):
        os.environ["REPRO_SIM_CACHE"] = "0"
    if getattr(args, "engine", None):
        os.environ["REPRO_ENGINE"] = args.engine
    if getattr(args, "sanitize", False):
        os.environ["REPRO_SANITIZE"] = "1"
    if getattr(args, "telemetry", False):
        os.environ["REPRO_TELEMETRY"] = "1"
    if args.command == "fuzz":
        text, rc, notes = _cmd_fuzz(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        print(text)
        for note in notes:
            print(note)
        return rc
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "profile":
        text = _cmd_profile(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0
    if args.command == "check":
        text, rc = _cmd_check(args)
        print(text)
        return rc
    if args.command == "cache":
        text, rc = _cmd_cache(args)
        print(text)
        return rc
    if args.command == "list":
        print(_cmd_list())
        return 0
    if args.command == "estimate":
        print(_cmd_estimate(args))
        return 0
    if args.command == "advise":
        print(_cmd_advise(args))
        return 0
    if args.command == "chaos":
        text = _cmd_chaos(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0
    if args.command == "report":
        from .report import generate_report
        text = generate_report(args.keys or None, args.cycles)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
        return 0
    keys = sorted(EXPERIMENTS) if args.command == "all" else args.keys
    text = _cmd_run(keys, args.cycles)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
