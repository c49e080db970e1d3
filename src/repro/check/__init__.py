"""Correctness tooling: runtime sanitizer and determinism lint.

Two passes guard the reproduction against silent modeling bugs (see
DESIGN.md §7):

* :mod:`repro.check.sanitizer` — runtime invariant checks attached to a
  live engine (``SimConfig(sanitize=True)`` / ``--sanitize`` /
  ``REPRO_SANITIZE=1``); near-zero overhead when off.
* :mod:`repro.check.lint` — AST lint forbidding nondeterminism sources
  in ``src/`` (``repro-hbm check``).

That the observers (sanitizer, telemetry sampler) never write simulation
state is checked at run time by ``tests/test_observer_purity.py``
(DESIGN.md §13).
"""

from .findings import Finding, render, render_json
from .lint import lint_source, lint_tree
from .sanitizer import CheckedBankSet, Sanitizer

__all__ = [
    "Finding",
    "render",
    "render_json",
    "lint_source",
    "lint_tree",
    "CheckedBankSet",
    "Sanitizer",
]
