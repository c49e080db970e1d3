"""Shared finding type of the ``repro.check`` passes.

Both the static analyzer (:mod:`repro.check.static`) and the determinism
lint (:mod:`repro.check.lint`) report :class:`Finding` records so the CLI
(``repro-hbm check``) can render and gate on them uniformly.  Severities:

* ``error``   — the configuration/code *will* produce wrong or
  non-deterministic results; the check command exits non-zero.
* ``warning`` — legal but suspicious (e.g. credit sizing that starves a
  master below its configured outstanding limit).
* ``info``    — notes worth surfacing (e.g. a check that was skipped
  because the experiment runs no simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One analyzer/lint result."""

    severity: str
    code: str
    message: str
    location: str = ""
    """Where the finding anchors: an experiment key, a config field, or
    ``path:line`` for lint findings."""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        loc = f" ({self.location})" if self.location else ""
        return f"[{self.severity.upper():7s}] {self.code}: {self.message}{loc}"


@dataclass
class Report:
    """Aggregated findings of one ``check`` invocation."""

    findings: List[Finding] = field(default_factory=list)

    def extend(self, more: Sequence[Finding]) -> None:
        self.findings.extend(more)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


def _ordered(findings: Sequence[Finding]) -> List[Finding]:
    rank = {s: i for i, s in enumerate(SEVERITIES)}
    return sorted(findings, key=lambda f: (rank[f.severity], f.code,
                                           f.location, f.message))


def render(findings: Sequence[Finding]) -> str:
    """Deterministic text rendering (sorted by severity, code, location)."""
    return "\n".join(str(f) for f in _ordered(findings))


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable rendering (same ordering as :func:`render`), as
    ``repro-hbm check --json`` prints it."""
    import json
    return json.dumps(
        [{"severity": f.severity, "code": f.code, "message": f.message,
          "location": f.location} for f in _ordered(findings)],
        indent=2, sort_keys=True)
