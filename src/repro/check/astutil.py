"""Shared AST utilities for the static-analysis passes.

Extracted from :mod:`repro.check.lint` so the determinism lint and the
observer-purity analyzer (:mod:`repro.check.statecheck`) agree on how
attribute chains flatten and how the ``src/repro`` tree is loaded for
whole-program analysis; the lint's per-line pragma scan lives here too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple


def dotted(node: ast.AST) -> Tuple[str, ...]:
    """Flatten an attribute chain to name parts (best effort).

    Sees through :class:`ast.Call` nodes inside the chain, so
    ``random.Random().random`` flattens to
    ``("random", "Random", "random")`` rather than being truncated at
    the intervening call — chains the determinism lint must not lose.
    Unresolvable bases (subscripts, literals) terminate the chain.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            break
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def pragma_lines(source: str, pragma: str) -> Set[int]:
    """1-based line numbers of ``source`` carrying ``pragma``."""
    return {i for i, line in enumerate(source.splitlines(), start=1)
            if pragma in line}


def default_src_root() -> Path:
    """The installed package's source root (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def module_name(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` relative to ``src_root``'s parent
    (``src_root / 'dram/pch.py'`` -> ``'repro.dram.pch'``)."""
    rel = path.relative_to(src_root)
    parts = (src_root.name,) + rel.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def load_sources(root: Optional[Path] = None) -> Dict[str, str]:
    """Read every ``*.py`` under ``root`` (default: the installed
    ``src/repro``), keyed by dotted module name.

    The result is the unit the whole-program analyses operate on —
    tests substitute mutated copies of individual modules to prove the
    analyzer flags seeded drift.
    """
    src_root = root if root is not None else default_src_root()
    sources: Dict[str, str] = {}
    for path in sorted(src_root.rglob("*.py")):
        sources[module_name(path, src_root)] = path.read_text()
    return sources


def parse_sources(sources: Mapping[str, str],
                  ) -> Tuple[Dict[str, ast.Module], Dict[str, str]]:
    """Parse every module; returns ``(trees, syntax_errors)``.

    Unparsable modules land in the error map (module -> message) so the
    caller can surface them instead of silently analyzing less code.
    """
    trees: Dict[str, ast.Module] = {}
    errors: Dict[str, str] = {}
    for name in sorted(sources):
        try:
            trees[name] = ast.parse(sources[name], filename=name)
        except SyntaxError as exc:
            errors[name] = f"line {exc.lineno or 0}: {exc.msg}"
    return trees, errors
