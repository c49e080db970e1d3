"""AST-based determinism lint over the simulator sources.

The reproduction's central claim — same config, same seed, same report,
on either engine loop — only holds if nothing on the simulation path
consults ambient nondeterminism.  This lint walks ``src/`` and forbids
the four ways that property has historically been lost:

* **DL001 — unseeded randomness**: bare ``random.*`` module calls,
  ``numpy.random.default_rng()`` without a seed, ``uuid.uuid4``,
  ``os.urandom``, ``secrets.*``.  Seeded generators
  (``default_rng(seed)``, ``random.Random(seed)``) are fine.
* **DL002 — wall-clock reads**: ``time.time``/``perf_counter``/
  ``monotonic``/``datetime.now`` and friends.  Timing *display* around a
  run is legitimate — annotate the line with ``# det-lint: allow`` to
  acknowledge it.
* **DL003 — iteration-order leaks**: iterating a set literal/``set()``
  call directly (``for x in {...}``) or joining one — set order is
  hash-randomized across runs for str elements.
* **DL004 — mutable default arguments**: ``def f(x=[])`` aliases state
  across calls; sim-state classes have silently shared queues this way.
* **DL005 — float equality**: ``==``/``!=`` against a float literal,
  ``float()`` call, or ``math.inf``/``math.nan`` — cycle math must stay
  integral, and exact float comparison is how drift between the fast
  and legacy engine tiers hides.  Deliberate exact tests (sentinel
  probes, rate == 1.0 fast paths) carry the pragma.

Attribute chains are flattened by :func:`dotted`, which sees through
calls — ``random.Random().random()`` is still an unseeded-RNG chain even
though an ``ast.Call`` sits mid-chain.

Run via ``repro-hbm check`` or the pytest gate
(``tests/test_check_lint.py``); CI runs both.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Set, Tuple

from .findings import Finding

__all__ = ["PRAGMA", "default_src_root", "dotted", "lint_paths",
           "lint_source", "lint_tree"]

#: Per-line suppression marker.
PRAGMA = "det-lint: allow"

_RANDOM_FUNCS = {
    "random", "randint", "randrange", "shuffle", "choice", "choices",
    "sample", "uniform", "gauss", "normalvariate", "betavariate", "seed",
    "getrandbits",
}
_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}
_ENTROPY = {("uuid", "uuid4"), ("uuid", "uuid1"), ("os", "urandom")}

#: Float sentinels whose ``==``/``!=`` comparison DL005 flags.
_FLOAT_SENTINELS = {("math", "inf"), ("math", "nan")}


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


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, allowed_lines: set) -> None:
        self.path = path
        self.allowed = allowed_lines
        self.findings: List[Finding] = []

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if line in self.allowed:
            return
        self.findings.append(Finding(code, message, f"{self.path}:{line}"))

    # -- DL001 / DL002: calls ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted(node.func)
        if len(chain) >= 2:
            head, tail = chain[0], chain[-1]
            pair = (chain[-2], tail)
            if head == "random" and tail in _RANDOM_FUNCS:
                self._report(node, "DL001",
                             f"unseeded stateful RNG: random.{tail}()")
            elif head == "secrets":
                self._report(node, "DL001",
                             f"entropy source: secrets.{tail}()")
            elif pair in _ENTROPY:
                self._report(node, "DL001",
                             f"entropy source: {'.'.join(pair)}()")
            elif tail == "default_rng" and not node.args and not node.keywords:
                self._report(node, "DL001",
                             "numpy default_rng() without a seed")
            elif pair in _WALL_CLOCK:
                self._report(node, "DL002",
                             f"wall-clock read: {'.'.join(pair)}()")
        elif chain == ("default_rng",) and not node.args and not node.keywords:
            self._report(node, "DL001", "default_rng() without a seed")
        self.generic_visit(node)

    # -- DL003: set iteration order ------------------------------------------

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def _check_iter(self, node: ast.AST, it: ast.AST) -> None:
        if self._is_set_expr(it):
            self._report(node, "DL003",
                         "iteration over a set: order is hash-randomized; "
                         "wrap in sorted()")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    # -- DL004: mutable default args -----------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for d in defaults:
            mutable = isinstance(d, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                and d.func.id in ("list", "dict", "set"))
            if mutable:
                self._report(d, "DL004",
                             f"mutable default argument in {node.name}()")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- DL005: float equality -----------------------------------------------

    @classmethod
    def _is_floaty(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return cls._is_floaty(node.operand)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            return True
        return dotted(node)[-2:] in _FLOAT_SENTINELS

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                    self._is_floaty(left) or self._is_floaty(right)):
                self._report(node, "DL005",
                             "float equality comparison: cycle math must "
                             "stay integral (restructure, or acknowledge a "
                             f"deliberate exact test with '# {PRAGMA}')")
                break
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text."""
    allowed = pragma_lines(source, PRAGMA)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("DL000", f"syntax error: {exc.msg}",
                        f"{path}:{exc.lineno or 0}")]
    visitor = _Visitor(path, allowed)
    visitor.visit(tree)
    return visitor.findings


def lint_paths(paths: Iterable[Path],
               root: Optional[Path] = None) -> List[Finding]:
    """Lint a set of files; locations are reported relative to ``root``."""
    findings: List[Finding] = []
    for p in sorted(paths):
        rel = str(p.relative_to(root)) if root else str(p)
        findings.extend(lint_source(p.read_text(), rel))
    return findings


def lint_tree(root: Path) -> List[Finding]:
    """Lint every ``*.py`` under ``root`` (the ``src/`` gate)."""
    return lint_paths(root.rglob("*.py"), root=root.parent)
