"""Observer-purity static analysis (``repro-hbm check --state``).

The observer layers (:mod:`repro.check.sanitizer`,
:mod:`repro.telemetry.sampler`, :mod:`repro.conformance.reference`)
promise bit-identical reports whether they are attached or not, so they
must never write simulation state.  This module proves that statically,
over AST copies of the real sources (also folded into ``check --all``
and run pre-validation):

**SC003 — observer-writes-sim-state.**  An interprocedural write-set
analysis over the call graph: starting from each observer entry point
(sanitizer hooks, telemetry sampling hooks, the conformance reference
model), taint flows from simulation objects (hook parameters, the
observer's ``engine``/``_inner`` attributes) through aliases, attribute
and subscript reads, and resolved calls; any attribute/subscript store
on a tainted base, ``setattr`` on a tainted object, or mutating method
call on a tainted receiver is a finding.  Known-intentional delegations
(the :class:`~repro.check.sanitizer.CheckedBankSet` pass-through) are
allowlisted in :data:`PURITY_ALLOW`.  Calls the analysis cannot resolve
(first-class probe lambdas) are assumed pure — the documented limit of
the proof.

The analysis runs on a ``{module: source}`` mapping so the seeded
mutation self-tests (``tests/test_check_statecheck.py``) can inject a
hidden observer write into copies of the real sources and assert that
SC003 fires.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .astutil import dotted, load_sources, parse_sources
from .findings import Finding

__all__ = [
    "OBSERVERS",
    "PURITY_ALLOW",
    "check_observer_purity",
    "render_state_report",
]

#: Container methods that mutate their receiver in place.
_MUTATOR_NAMES = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "pop", "popleft", "popitem", "push", "clear", "remove",
    "discard", "setdefault", "sort", "reverse", "rotate",
})

#: ``heapq`` functions that mutate their first argument.
_HEAP_MUTATORS = frozenset({"heappush", "heappop", "heapreplace",
                            "heappushpop"})

#: Builtins whose call result is a plain scalar (never a sim object).
_SCALAR_BUILTINS = frozenset({
    "len", "int", "float", "str", "bool", "abs", "round", "repr",
    "format", "hash", "id", "isinstance", "issubclass", "any", "all",
    "sum", "divmod", "ord", "chr",
})


# ---------------------------------------------------------------------------
# observer tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObserverSpec:
    """One observer layer whose reachable code must be write-free."""

    module: str
    cls: Optional[str]
    entries: Tuple[str, ...]
    #: Attributes of the observer that point INTO the simulation.
    sim_attrs: FrozenSet[str] = frozenset()


OBSERVERS: Tuple[ObserverSpec, ...] = (
    ObserverSpec("repro.check.sanitizer", "Sanitizer",
                 ("on_issue", "on_complete", "after_batch", "finish",
                  "check_drained"),
                 frozenset({"engine"})),
    ObserverSpec("repro.check.sanitizer", "CheckedBankSet",
                 ("access",), frozenset({"_inner"})),
    ObserverSpec("repro.telemetry.sampler", "Telemetry",
                 ("sample", "note_jump", "finish"),
                 frozenset({"engine"})),
    ObserverSpec("repro.conformance.reference", None, ("predict", "check")),
)

#: (module, enclosing qualname, called method) -> reason.  Call sites the
#: purity analysis must accept although the receiver is simulation state.
PURITY_ALLOW: Dict[Tuple[str, str, str], str] = {
    ("repro.check.sanitizer", "CheckedBankSet.access", "access"):
        "checked pass-through: the proxy performs the engine's own bank "
        "access on its behalf, then validates the resulting row state",
}


# ---------------------------------------------------------------------------
# module index
# ---------------------------------------------------------------------------

class _ModuleInfo:
    """Parsed module plus the lookup tables the purity analysis uses."""

    def __init__(self, name: str, tree: ast.Module) -> None:
        self.name = name
        self.classes: Dict[str, ast.ClassDef] = {}
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.methods: Dict[Tuple[str, str], ast.FunctionDef] = {}
        self.imports: Dict[str, Tuple[str, str]] = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        self.methods[(node.name, sub.name)] = sub
            elif isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_import(name, node)
                if target is not None:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        self.imports[local] = (target, alias.name)


def _resolve_import(module: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute module an ``ImportFrom`` pulls from (best effort)."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    if node.level > len(parts):
        return None
    base = parts[:len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


def _module_path(name: str, all_names: Iterable[str]) -> str:
    """Pseudo source path of a module (``repro.dram.pch`` ->
    ``repro/dram/pch.py``; packages map to their ``__init__.py``)."""
    prefix = name + "."
    base = name.replace(".", "/")
    if any(other.startswith(prefix) for other in all_names):
        return base + "/__init__.py"
    return base + ".py"


def _index(sources: Mapping[str, str],
           ) -> Tuple[Dict[str, _ModuleInfo], List[Finding]]:
    trees, errors = parse_sources(sources)
    findings = [Finding("error", "SC000", f"unparsable module: {msg}",
                        _module_path(mod, sources))
                for mod, msg in sorted(errors.items())]
    index = {name: _ModuleInfo(name, tree) for name, tree in trees.items()}
    return index, findings


# ---------------------------------------------------------------------------
# SC003 — observer purity
# ---------------------------------------------------------------------------

class _PurityContext:
    """Lexical position of the statement being analyzed."""

    __slots__ = ("info", "cls", "func", "entry", "sim_attrs")

    def __init__(self, info: _ModuleInfo, cls: Optional[str], func: str,
                 entry: str, sim_attrs: FrozenSet[str]) -> None:
        self.info = info
        self.cls = cls
        self.func = func
        self.entry = entry
        self.sim_attrs = sim_attrs

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.func}" if self.cls else self.func


class _PurityAnalyzer:
    """Taint-based interprocedural write-set analysis (see module doc)."""

    _MAX_DEPTH = 10

    def __init__(self, index: Mapping[str, _ModuleInfo],
                 all_modules: Iterable[str]) -> None:
        self.index = index
        self.all_modules = list(all_modules)
        self.findings: List[Finding] = []
        self.traced: Set[Tuple[str, str, FrozenSet[str], str]] = set()
        # method name -> defining (module, class) pairs, for resolving
        # calls on tainted receivers.
        self.methods_by_name: Dict[str, List[Tuple[_ModuleInfo, str,
                                                   ast.FunctionDef]]] = {}
        for info in index.values():
            for (cls, mname), node in info.methods.items():
                if mname.startswith("__"):
                    continue
                self.methods_by_name.setdefault(mname, []).append(
                    (info, cls, node))

    # -- entry ----------------------------------------------------------------

    def run_entry(self, spec: ObserverSpec) -> Optional[str]:
        """Analyze one observer; returns an error message when an entry
        point is missing (the OBSERVERS table went stale)."""
        info = self.index.get(spec.module)
        if info is None:
            return f"module {spec.module} not found"
        missing = []
        for entry in spec.entries:
            node = (info.methods.get((spec.cls, entry)) if spec.cls
                    else info.functions.get(entry))
            if node is None:
                missing.append(entry)
                continue
            env: Dict[str, str] = {}
            params = [a.arg for a in node.args.args]
            if spec.cls and params and params[0] == "self":
                env["self"] = "observer"
                params = params[1:]
            for p in params:
                env[p] = "t"
            ctx = _PurityContext(info, spec.cls, entry,
                                 (f"{spec.cls}.{entry}" if spec.cls
                                  else entry), spec.sim_attrs)
            self._walk(node.body, env, ctx, depth=0)
        if missing:
            where = spec.cls or spec.module
            return f"entry point(s) {', '.join(missing)} missing on {where}"
        return None

    # -- taint ----------------------------------------------------------------

    def _tainted(self, node: ast.expr, env: Dict[str, str],
                 ctx: _PurityContext) -> bool:
        if isinstance(node, ast.Name):
            return env.get(node.id) == "t"
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Name) and base.id == "self"
                    and env.get("self") == "observer"):
                return node.attr in ctx.sim_attrs
            return self._tainted(base, env, ctx)
        if isinstance(node, ast.Subscript):
            return self._tainted(node.value, env, ctx)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "getattr" and node.args:
                    return self._tainted(node.args[0], env, ctx)
                if func.id in _SCALAR_BUILTINS:
                    return False
            if isinstance(func, ast.Attribute):
                # Method-call results inherit the *receiver's* taint
                # only: a lookup into an owned container keyed by a
                # tainted scalar (`self._lanes.get((txn.master, ...))`)
                # returns an owned value.
                return self._tainted(func.value, env, ctx)
            parts: List[ast.expr] = list(node.args)
            parts.extend(kw.value for kw in node.keywords)
            return any(self._tainted(p, env, ctx) for p in parts)
        if isinstance(node, (ast.BoolOp,)):
            return any(self._tainted(v, env, ctx) for v in node.values)
        if isinstance(node, ast.IfExp):
            return (self._tainted(node.body, env, ctx)
                    or self._tainted(node.orelse, env, ctx))
        if isinstance(node, ast.BinOp):
            return (self._tainted(node.left, env, ctx)
                    or self._tainted(node.right, env, ctx))
        if isinstance(node, ast.UnaryOp):
            return self._tainted(node.operand, env, ctx)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._tainted(e, env, ctx) for e in node.elts)
        if isinstance(node, ast.Dict):
            return any(self._tainted(v, env, ctx)
                       for v in node.values if v is not None)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return any(self._tainted(g.iter, env, ctx)
                       for g in node.generators)
        if isinstance(node, ast.Starred):
            return self._tainted(node.value, env, ctx)
        if isinstance(node, ast.NamedExpr):
            return self._tainted(node.value, env, ctx)
        return False

    # -- findings -------------------------------------------------------------

    def _violation(self, node: ast.AST, ctx: _PurityContext,
                   desc: str) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(Finding(
            "error", "SC003",
            f"observer-reachable write to simulation state: {desc} "
            f"(reached from {ctx.entry}; observers must be pure)",
            f"{_module_path(ctx.info.name, self.all_modules)}:{line}"))

    # -- statement walk -------------------------------------------------------

    def _walk(self, body: Sequence[ast.stmt], env: Dict[str, str],
              ctx: _PurityContext, depth: int) -> None:
        for stmt in body:
            for expr in _stmt_exprs(stmt):
                for call in ast.walk(expr):
                    if isinstance(call, ast.Call):
                        self._handle_call(call, env, ctx, depth)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = stmt.value
                taint = (value is not None
                         and self._tainted(value, env, ctx))
                for target in _assign_targets(stmt):
                    self._bind_target(stmt, target, taint, env, ctx)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and self._tainted(target.value, env, ctx):
                        self._violation(
                            stmt, ctx,
                            f"del on a simulation object in {ctx.qualname}")
            elif isinstance(stmt, ast.For):
                t = self._tainted(stmt.iter, env, ctx)
                for target in (stmt.target.elts
                               if isinstance(stmt.target,
                                             (ast.Tuple, ast.List))
                               else [stmt.target]):
                    if isinstance(target, ast.Name):
                        env[target.id] = "t" if t else ""
                self._walk(stmt.body, env, ctx, depth)
                self._walk(stmt.orelse, env, ctx, depth)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._walk(stmt.body, env, ctx, depth)
                self._walk(stmt.orelse, env, ctx, depth)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    if isinstance(item.optional_vars, ast.Name):
                        env[item.optional_vars.id] = (
                            "t" if self._tainted(item.context_expr, env, ctx)
                            else "")
                self._walk(stmt.body, env, ctx, depth)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, env, ctx, depth)
                for handler in stmt.handlers:
                    if handler.name:
                        env[handler.name] = ""
                    self._walk(handler.body, env, ctx, depth)
                self._walk(stmt.orelse, env, ctx, depth)
                self._walk(stmt.finalbody, env, ctx, depth)

    def _bind_target(self, stmt: ast.stmt, target: ast.expr, taint: bool,
                     env: Dict[str, str], ctx: _PurityContext) -> None:
        if isinstance(target, ast.Name):
            if isinstance(stmt, ast.Assign) or (
                    isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None):
                env[target.id] = "t" if taint else ""
            return
        if isinstance(target, ast.Attribute):
            if self._tainted(target.value, env, ctx):
                self._violation(
                    stmt, ctx,
                    f"attribute store '.{target.attr} = ...' on a "
                    f"simulation object in {ctx.qualname}")
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if self._tainted(base, env, ctx):
                self._violation(
                    stmt, ctx,
                    f"subscript store into a simulation container in "
                    f"{ctx.qualname}")

    # -- calls ----------------------------------------------------------------

    def _handle_call(self, call: ast.Call, env: Dict[str, str],
                     ctx: _PurityContext, depth: int) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in ("setattr", "delattr") and call.args \
                    and self._tainted(call.args[0], env, ctx):
                self._violation(call, ctx,
                                f"{name}() on a simulation object in "
                                f"{ctx.qualname}")
                return
            if name in _HEAP_MUTATORS and call.args \
                    and self._tainted(call.args[0], env, ctx):
                self._violation(call, ctx,
                                f"{name}() into a simulation heap in "
                                f"{ctx.qualname}")
                return
            self._recurse_named(name, call, env, ctx, depth)
            return
        if not isinstance(func, ast.Attribute):
            return
        recv, mname = func.value, func.attr
        if (isinstance(recv, ast.Name) and recv.id == "self"
                and env.get("self") == "observer" and ctx.cls is not None):
            target = ctx.info.methods.get((ctx.cls, mname))
            if target is not None:
                self._recurse(ctx.info, ctx.cls, target, call, env, ctx,
                              depth, self_binding="observer")
                return
        chain = dotted(func)
        if len(chain) == 2 and chain[0] == "heapq" \
                and chain[1] in _HEAP_MUTATORS and call.args \
                and self._tainted(call.args[0], env, ctx):
            self._violation(call, ctx,
                            f"heapq.{chain[1]}() into a simulation heap "
                            f"in {ctx.qualname}")
            return
        if not self._tainted(recv, env, ctx):
            return
        allow_key = (ctx.info.name, ctx.qualname, mname)
        if allow_key in PURITY_ALLOW:
            return
        candidates = self.methods_by_name.get(mname, ())
        if candidates:
            for cinfo, ccls, cnode in candidates:
                self._recurse(cinfo, ccls, cnode, call, env, ctx, depth,
                              self_binding="t")
        elif mname in _MUTATOR_NAMES:
            self._violation(call, ctx,
                            f".{mname}() on a simulation container in "
                            f"{ctx.qualname}")

    def _recurse_named(self, name: str, call: ast.Call,
                       env: Dict[str, str], ctx: _PurityContext,
                       depth: int) -> None:
        """Follow a plain-name call to a same-module or imported
        function (classes — fresh instances — are skipped)."""
        info, node = ctx.info, ctx.info.functions.get(name)
        if node is None:
            imported = ctx.info.imports.get(name)
            if imported is None:
                return
            target_info = self.index.get(imported[0])
            if target_info is None or imported[1] in target_info.classes:
                return
            node = target_info.functions.get(imported[1])
            if node is None:
                return
            info = target_info
        self._recurse(info, None, node, call, env, ctx, depth,
                      self_binding=None)

    def _recurse(self, info: _ModuleInfo, cls: Optional[str],
                 node: ast.FunctionDef, call: ast.Call,
                 env: Dict[str, str], ctx: _PurityContext, depth: int,
                 self_binding: Optional[str]) -> None:
        if depth >= self._MAX_DEPTH:
            return
        params = [a.arg for a in node.args.args]
        new_env: Dict[str, str] = {}
        if self_binding is not None and params and params[0] == "self":
            new_env["self"] = self_binding
            params = params[1:]
        for i, p in enumerate(params):
            if i < len(call.args):
                if self._tainted(call.args[i], env, ctx):
                    new_env[p] = "t"
        for kw in call.keywords:
            if kw.arg in params and self._tainted(kw.value, env, ctx):
                new_env[kw.arg] = "t"
        key = (info.name, f"{cls}.{node.name}" if cls else node.name,
               frozenset(k for k, v in new_env.items() if v in ("t",
                                                                "observer")),
               new_env.get("self", ""))
        if key in self.traced:
            return
        self.traced.add(key)
        sim_attrs = ctx.sim_attrs if new_env.get("self") == "observer" \
            else frozenset()
        sub_ctx = _PurityContext(info, cls, node.name, ctx.entry, sim_attrs)
        self._walk(node.body, new_env, sub_ctx, depth + 1)


def _assign_targets(node: ast.stmt) -> List[ast.expr]:
    if isinstance(node, ast.Assign):
        out: List[ast.expr] = []
        for t in node.targets:
            out.extend(t.elts if isinstance(t, (ast.Tuple, ast.List))
                       else [t])
        return out
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _stmt_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions evaluated *by* a statement itself (compound
    bodies are walked separately, so calls are scanned exactly once)."""
    out: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        out.append(stmt.value)
        out.extend(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        if stmt.value is not None:
            out.append(stmt.value)
        out.append(stmt.target)
    elif isinstance(stmt, ast.Expr):
        out.append(stmt.value)
    elif isinstance(stmt, ast.Return) and stmt.value is not None:
        out.append(stmt.value)
    elif isinstance(stmt, ast.For):
        out.append(stmt.iter)
    elif isinstance(stmt, (ast.If, ast.While)):
        out.append(stmt.test)
    elif isinstance(stmt, ast.Raise):
        if stmt.exc is not None:
            out.append(stmt.exc)
        if stmt.cause is not None:
            out.append(stmt.cause)
    elif isinstance(stmt, ast.Assert):
        out.append(stmt.test)
        if stmt.msg is not None:
            out.append(stmt.msg)
    elif isinstance(stmt, ast.With):
        out.extend(item.context_expr for item in stmt.items)
    elif isinstance(stmt, ast.Delete):
        out.extend(stmt.targets)
    return out


def check_observer_purity(sources: Optional[Mapping[str, str]] = None,
                          ) -> List[Finding]:
    """SC003: nothing reachable from an observer writes sim state."""
    if sources is None:
        sources = load_sources()
    index, findings = _index(sources)
    analyzer = _PurityAnalyzer(index, sources.keys())
    for spec in OBSERVERS:
        problem = analyzer.run_entry(spec)
        if problem is not None:
            findings.append(Finding(
                "error", "SC003",
                f"observer table is stale: {problem}",
                _module_path(spec.module, sources)))
    seen: Set[Finding] = set()
    for f in analyzer.findings:
        if f not in seen:
            seen.add(f)
            findings.append(f)
    return findings


def render_state_report(findings: Sequence[Finding], modules: int) -> str:
    """Deterministic text report for ``repro-hbm check --state``."""
    from .findings import render
    entries = sum(len(spec.entries) for spec in OBSERVERS)
    lines = [
        f"state analyzer: {modules} modules",
        f"  observer purity: {entries} entry points traced "
        f"interprocedurally",
    ]
    if findings:
        lines.append(render(findings))
        errors = sum(1 for f in findings if f.severity == "error")
        lines.append(f"state check: {len(findings)} finding(s), "
                     f"{errors} error(s)")
    else:
        lines.append("state check: observers write no simulation state "
                     "(no findings)")
    return "\n".join(lines)
