"""The replayable fuzz corpus (``tests/corpus/``).

Every failure the fuzz driver minimizes is persisted as one JSON file:
the minimal :class:`~repro.conformance.case.FuzzCase` (with its derived
``SimConfig`` and ``FaultPlan`` embedded for bit-exact replay
validation), the failure that was observed, and the campaign that found
it.  Committed entries are re-run by the tier-1 corpus replay test, so
a past fuzz finding can never silently regress: the entry documents the
bug, the fix makes it pass, and the replay keeps it passing.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from ..errors import ConfigError
from .case import FuzzCase

if TYPE_CHECKING:  # pragma: no cover
    from .driver import Failure


def default_corpus_dir() -> Path:
    """``tests/corpus/`` of the repository this package was loaded from
    (falling back to the working directory for installed trees)."""
    repo_root = Path(__file__).resolve().parents[3]
    candidate = repo_root / "tests" / "corpus"
    if candidate.is_dir():
        return candidate
    return Path.cwd() / "tests" / "corpus"


def entry_name(case: FuzzCase, kind: str) -> str:
    """Stable, content-addressed filename for one corpus entry."""
    digest = hashlib.sha256(
        json.dumps(case.to_dict(), sort_keys=True).encode()).hexdigest()[:10]
    return f"{kind}-{digest}.json"


def write_entry(corpus_dir: Union[str, Path], case: FuzzCase,
                failures: Sequence["Failure"],
                *, seed: int, budget: int) -> str:
    """Persist one minimized failing case; returns the file path."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    kind = failures[0].kind if failures else "unknown"
    payload: Dict[str, Any] = {
        "case": case.to_dict(),
        "failure": {
            "kind": kind,
            "details": [f.detail for f in failures],
        },
        "found_by": {"seed": seed, "budget": budget},
    }
    path = directory / entry_name(case, kind)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def load_entry(path: Union[str, Path]) -> FuzzCase:
    """Rebuild the case of one corpus file (cross-checked bit-exactly
    against its embedded ``SimConfig``/``FaultPlan`` dumps)."""
    with open(path) as fh:
        payload = json.load(fh)
    if "case" not in payload:
        raise ConfigError(f"corpus file {path} has no 'case' object")
    return FuzzCase.from_dict(payload["case"])


def list_entries(corpus_dir: Optional[Union[str, Path]] = None) -> List[Path]:
    """Corpus files, sorted for deterministic replay order."""
    directory = Path(corpus_dir) if corpus_dir is not None \
        else default_corpus_dir()
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.iterdir()
                  if p.suffix == ".json" and p.is_file())


def replay(corpus_dir: Optional[Union[str, Path]] = None) -> List[str]:
    """Re-run every committed corpus entry; returns failure lines
    (empty = every past finding stays fixed)."""
    from .driver import run_case
    lines: List[str] = []
    entries = list_entries(corpus_dir)
    for path in entries:
        case = load_entry(path)
        result = run_case(case)
        if result.skipped:
            lines.append(f"{os.path.basename(path)}: rejected by config "
                         f"validation ({result.skipped}) — entry is stale")
        elif not result.ok:
            for f in result.failures:
                lines.append(f"{os.path.basename(path)}: [{f.kind}] "
                             f"{f.detail}")
    return lines
