"""Correctness tooling: runtime sanitizer, static analyzer, determinism lint.

Three cooperating passes guard the reproduction against silent modeling
bugs (see DESIGN.md §7):

* :mod:`repro.check.sanitizer` — runtime invariant checks attached to a
  live engine (``SimConfig(sanitize=True)`` / ``--sanitize`` /
  ``REPRO_SANITIZE=1``); near-zero overhead when off.
* :mod:`repro.check.static` — config/topology/fault-plan analysis
  without simulating (``repro-hbm check``).
* :mod:`repro.check.lint` — AST lint forbidding nondeterminism sources
  in ``src/`` (``repro-hbm check --lint``).

That the observers (sanitizer, telemetry sampler) never write simulation
state is checked at run time by ``tests/test_observer_purity.py``
(DESIGN.md §13).
"""

from .findings import Finding, Report, render, render_json
from .lint import lint_source, lint_tree
from .sanitizer import CheckedBankSet, Sanitizer
from .static import (WaitGraph, build_wait_graph, check_address_map,
                     check_all, check_config, check_credits,
                     check_experiment, check_fault_plan, check_topology,
                     quick_check)

__all__ = [
    "Finding",
    "Report",
    "render",
    "render_json",
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
