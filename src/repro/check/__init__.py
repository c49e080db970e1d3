"""Correctness tooling: runtime sanitizer, static analyzer, determinism lint.

Four cooperating passes guard the reproduction against silent modeling
bugs (see DESIGN.md §7):

* :mod:`repro.check.sanitizer` — runtime invariant checks attached to a
  live engine (``SimConfig(sanitize=True)`` / ``--sanitize`` /
  ``REPRO_SANITIZE=1``); near-zero overhead when off.
* :mod:`repro.check.static` — config/topology/fault-plan analysis
  without simulating (``repro-hbm check``).
* :mod:`repro.check.lint` — AST lint forbidding nondeterminism sources
  in ``src/`` (``repro-hbm check --lint``).
* :mod:`repro.check.statecheck` — whole-program observer-purity
  analysis proving the sanitizer, telemetry sampler and conformance
  reference never write simulation state (``repro-hbm check --state``).
"""

from .findings import Finding, Report, render, render_json
from .lint import lint_source, lint_tree
from .sanitizer import CheckedBankSet, Sanitizer
from .statecheck import check_observer_purity
from .static import (WaitGraph, build_wait_graph, check_address_map,
                     check_all, check_config, check_credits,
                     check_experiment, check_fault_plan, check_topology,
                     quick_check)

__all__ = [
    "Finding",
    "Report",
    "render",
    "render_json",
    "check_observer_purity",
    "lint_source",
    "lint_tree",
    "CheckedBankSet",
    "Sanitizer",
    "WaitGraph",
    "build_wait_graph",
    "check_address_map",
    "check_all",
    "check_config",
    "check_credits",
    "check_experiment",
    "check_fault_plan",
    "check_topology",
    "quick_check",
]
