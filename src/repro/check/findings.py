"""Finding type of the determinism lint (:mod:`repro.check.lint`).

The lint reports :class:`Finding` records, which ``repro-hbm check``
renders as text or JSON.  Every finding is an error: the code *will*
produce non-deterministic results, and the check command exits non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class Finding:
    """One lint result."""

    code: str
    message: str
    location: str
    """Where the finding anchors, as ``path:line``."""

    def __str__(self) -> str:
        return f"[ERROR] {self.code}: {self.message} ({self.location})"


def _ordered(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.code, f.location, f.message))


def render(findings: Sequence[Finding]) -> str:
    """Deterministic text rendering (sorted by code, then location)."""
    return "\n".join(str(f) for f in _ordered(findings))


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable rendering (same ordering as :func:`render`), as
    ``repro-hbm check --json`` prints it; ``severity`` is always
    ``error``."""
    import json
    return json.dumps(
        [{"severity": "error", "code": f.code, "message": f.message,
          "location": f.location} for f in _ordered(findings)],
        indent=2, sort_keys=True)
