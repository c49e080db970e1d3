"""Whole-program state-coverage & observer-purity static analysis.

The two engine tiers (fast / legacy) are only bit-identical if two
structural properties hold that no dynamic oracle checks until a fuzz
campaign happens to reach the broken configuration:

* the struct-of-arrays adapters (:mod:`repro.dram.soa`,
  :mod:`repro.fabric.soa`) must mirror **every** mutable field of the
  components they capture/refresh/restore, and fold them into the
  ``soa_digest`` fingerprint the cross-engine state tests compare;
* the observer layers (:mod:`repro.check.sanitizer`,
  :mod:`repro.telemetry.sampler`, :mod:`repro.conformance.reference`)
  must never write simulation state.

This module proves both statically, over AST copies of the real
sources (``repro-hbm check --state``; wired into run pre-validation):

**SC001 — uncovered-state-field.**  The field inventory infers each
component's mutable-state set: attributes assigned or container-mutated
on ``self`` outside ``__init__``, plus attributes other modules write
onto component instances (fault injector, engine drain, watchdog
wiring).
A field is *sim-state* unless every mutating line carries the
``# statecheck: derived`` pragma (recomputed state, e.g.
``MasterPort.exhausted``) or the field has an :data:`ALLOWLIST` entry
with a reason.  Every sim-state field must be read by its SoA adapter's
``refresh`` (``capture`` delegates to it) — directly, through a
one-level alias, or through a ``getattr`` loop over a resolvable name
tuple — and the adapter's ``arrays()`` must iterate ``__slots__`` so
the digest covers it.

**SC002 — stale-allowlist-entry.**  An :data:`ALLOWLIST` entry whose
(class, field) no longer names a mutable field is reported, so the
table can only shrink back in step with the code.

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

The analyses run on a ``{module: source}`` mapping so the seeded
mutation self-tests (``tests/test_check_statecheck.py``) can inject a
synthetic field or a hidden observer write into copies of the real
sources and assert the right SC00x fires.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .astutil import dotted, load_sources, parse_sources, pragma_lines
from .findings import Finding

__all__ = [
    "ALLOWLIST",
    "COMPONENTS",
    "DERIVED_PRAGMA",
    "OBSERVERS",
    "PURITY_ALLOW",
    "StateStats",
    "check_observer_purity",
    "check_state",
    "check_state_coverage",
    "component_inventory",
    "render_state_report",
    "state_stats",
]

#: Marks every mutation line of a field that is *derived* (recomputable)
#: rather than sim-state the SoA image must carry.
DERIVED_PRAGMA = "statecheck: derived"

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

#: Modules whose attribute writes are the capture/restore mechanism
#: itself and therefore never count as state mutation.
_ADAPTER_MODULES = frozenset({"repro.dram.soa", "repro.fabric.soa"})


# ---------------------------------------------------------------------------
# component / adapter / observer tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentSpec:
    """One simulated component class and the SoA adapter covering it."""

    module: str
    cls: str
    adapter_module: Optional[str] = None
    adapter_cls: Optional[str] = None
    #: For nested components: the attribute of the adapter's item that
    #: holds this object (``PseudoChannel.banks`` -> :class:`BankSet`).
    via: Optional[str] = None


COMPONENTS: Tuple[ComponentSpec, ...] = (
    ComponentSpec("repro.dram.pch", "PseudoChannel",
                  "repro.dram.soa", "DramStateSoA"),
    ComponentSpec("repro.dram.bank", "BankSet",
                  "repro.dram.soa", "DramStateSoA", via="banks"),
    ComponentSpec("repro.dram.pch", "PchCounters",
                  "repro.dram.soa", "DramStateSoA", via="counters"),
    ComponentSpec("repro.dram.controller", "MemoryController",
                  "repro.fabric.soa", "McStateSoA"),
    ComponentSpec("repro.fabric.links", "ArbOutput",
                  "repro.fabric.soa", "ArbStateSoA"),
    ComponentSpec("repro.fabric.links", "Fifo"),
    ComponentSpec("repro.fabric.links", "SharedBus"),
    ComponentSpec("repro.axi.master", "MasterPort",
                  "repro.fabric.soa", "MasterStateSoA"),
)

#: Mutable fields deliberately outside the SoA image, with the reason.
#: SC002 reports entries that stop naming a mutable field.
ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("Fifo", "items"):
        "occupancy is a live due signal (pending_in / fifo lengths); the "
        "flit queue itself is scalar-only between event horizons",
    ("ArbOutput", "in_flight"):
        "fingerprinted via the inflight_len/inflight_head projections; "
        "the deque itself stays scalar",
    ("SharedBus", "busy_until"):
        "lateral bus meter: shared-bus stalls keep an every-cycle due, "
        "so the scalar is always fresh when captured",
    ("MemoryController", "queues"):
        "fingerprinted via the queue_len projection; contents stay "
        "scalar between event horizons",
    ("MemoryController", "_pending"):
        "fingerprinted via the pending_len/pending_head projections",
    ("MemoryController", "_seq"):
        "heap tiebreaker, strictly derived from accept order",
    ("MemoryController", "degrade_offline"):
        "fault plane: set only by fault events, to which every loop "
        "clamps its jumps",
    ("MasterPort", "_staged"):
        "fingerprinted via the staged projection; the staged txn object "
        "is re-submitted scalar-side",
    ("MasterPort", "_retry"):
        "fingerprinted via the retry_len/retry_head projections",
    ("MasterPort", "_retry_seq"):
        "heap tiebreaker, strictly derived from NACK order",
    ("MasterPort", "draining"):
        "engine drain-phase flag, toggled outside the stepped region",
    ("MasterPort", "on_issue"):
        "observer/watchdog wiring, not simulation state",
    ("PseudoChannel", "fault"):
        "fault plane: set only by fault events, to which every loop "
        "clamps its jumps",
    ("PseudoChannel", "banks"):
        "rebound only by sanitizer attach (CheckedBankSet proxy); the "
        "bank state behind it is captured field by field",
}


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
    """Parsed module plus the lookup tables every analysis shares."""

    def __init__(self, name: str, source: str, tree: ast.Module) -> None:
        self.name = name
        self.tree = tree
        self.derived_lines = pragma_lines(source, DERIVED_PRAGMA)
        self.classes: Dict[str, ast.ClassDef] = {}
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.methods: Dict[Tuple[str, str], ast.FunctionDef] = {}
        self.imports: Dict[str, Tuple[str, str]] = {}
        self.consts: Dict[str, Tuple[str, ...]] = _str_tuple_consts(tree.body)
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


def _str_tuple_consts(body: Sequence[ast.stmt]) -> Dict[str, Tuple[str, ...]]:
    """``NAME = ("a", "b", ...)`` constants in a class/module body."""
    consts: Dict[str, Tuple[str, ...]] = {}
    for node in body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if (isinstance(target, ast.Name) and isinstance(value, ast.Tuple)
                and all(isinstance(e, ast.Constant)
                        and isinstance(e.value, str) for e in value.elts)):
            consts[target.id] = tuple(e.value for e in value.elts)
    return consts


def _module_path(name: str, all_names: Iterable[str]) -> str:
    """Pseudo source path of a module (``repro.dram.soa`` ->
    ``repro/dram/soa.py``; packages map to their ``__init__.py``)."""
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
    index = {name: _ModuleInfo(name, sources[name], tree)
             for name, tree in trees.items()}
    return index, findings


# ---------------------------------------------------------------------------
# helpers of the field analysis
# ---------------------------------------------------------------------------

def _self_root_field(node: ast.expr) -> Optional[str]:
    """The ``self`` field a store target lands in: ``self.f`` or
    ``self.f[k]...[j]`` root in ``f``.  ``self.f.g`` does NOT — that
    mutates the *referenced* object, which the external-write scan
    attributes to the owning class by field name."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _target_field(node: ast.expr) -> Optional[Tuple[str, bool]]:
    """(field, base_is_self) of an attribute-store target, peeling
    subscripts: ``x.f[k] = v`` mutates ``f`` of ``x``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    is_self = isinstance(base, ast.Name) and base.id == "self"
    return node.attr, is_self


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


def _local_field_aliases(func: ast.FunctionDef) -> Dict[str, str]:
    """Locals bound from an *item* of a ``self`` container field
    (``q = self.queues[li]``): one-level alias resolution for
    container-mutation attribution.  Plain ``x = self.f`` aliases are
    deliberately excluded — mutating through them touches the referenced
    object (``dest = self.dest; dest.append(...)`` fills a Fifo, not an
    ArbOutput field), which the referenced class's own inventory owns."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(func):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Subscript)):
            continue
        root = _self_root_field(node.value)
        if root is not None:
            aliases[node.targets[0].id] = root
    return aliases


# ---------------------------------------------------------------------------
# SC001 / SC002 — field inventory -> SoA coverage
# ---------------------------------------------------------------------------

@dataclass
class FieldInfo:
    """Inventory record of one mutable component field."""

    mutated_at: List[Tuple[str, int]] = field(default_factory=list)
    derived: bool = True  # every mutation line carries the pragma
    external: bool = False

    def note(self, module: str, line: int, pragma: bool) -> None:
        self.mutated_at.append((module, line))
        if not pragma:
            self.derived = False


def _candidate_fields(cls: ast.ClassDef) -> Set[str]:
    """Attributes a class can hold: ``__slots__``, dataclass
    annotations, and every ``self.x`` assignment."""
    fields: Set[str] = set()
    for node in cls.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__slots__"
                and isinstance(node.value, (ast.Tuple, ast.List))):
            fields.update(e.value for e in node.value.elts
                          if isinstance(e, ast.Constant)
                          and isinstance(e.value, str))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            fields.add(node.target.id)
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in _assign_targets(node):
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    fields.add(target.attr)
    return fields


def _class_mutations(info: _ModuleInfo, cls: ast.ClassDef,
                     ) -> Dict[str, FieldInfo]:
    """Fields a class mutates on ``self`` outside ``__init__``."""
    mutated: Dict[str, FieldInfo] = {}

    def note(name: str, line: int) -> None:
        mutated.setdefault(name, FieldInfo()).note(
            info.name, line, line in info.derived_lines)

    for method in (n for n in cls.body
                   if isinstance(n, ast.FunctionDef)
                   and n.name != "__init__"):
        aliases = _local_field_aliases(method)
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in _assign_targets(node):
                    root = _self_root_field(target)
                    if root is not None and not isinstance(target, ast.Name):
                        note(root, node.lineno)
                    elif isinstance(target, ast.Subscript):
                        base = target.value
                        while isinstance(base, ast.Subscript):
                            base = base.value
                        if (isinstance(base, ast.Name)
                                and base.id in aliases):
                            note(aliases[base.id], node.lineno)
            elif isinstance(node, ast.Call):
                chain = dotted(node.func)
                if len(chain) >= 3 and chain[0] == "self" \
                        and chain[-1] in _MUTATOR_NAMES:
                    note(chain[1], node.lineno)
                elif (len(chain) == 2 and chain[0] in aliases
                      and chain[-1] in _MUTATOR_NAMES):
                    note(aliases[chain[0]], node.lineno)
                elif chain and chain[-1] in _HEAP_MUTATORS and node.args:
                    root = _self_root_field(node.args[0])
                    if root is not None:
                        note(root, node.lineno)
                    elif (isinstance(node.args[0], ast.Name)
                          and node.args[0].id in aliases):
                        note(aliases[node.args[0].id], node.lineno)
    return mutated


def _external_writes(index: Mapping[str, _ModuleInfo],
                     ) -> Dict[str, List[Tuple[str, int]]]:
    """Attribute stores on non-``self`` bases, across the whole tree
    (engine drain flags, watchdog wiring, fault injection)."""
    writes: Dict[str, List[Tuple[str, int]]] = {}
    for name, info in sorted(index.items()):
        if name in _ADAPTER_MODULES:
            continue
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in _assign_targets(node):
                    hit = _target_field(target)
                    if hit is not None and not hit[1]:
                        writes.setdefault(hit[0], []).append(
                            (name, node.lineno))
    return writes


def _adapter_coverage(info: _ModuleInfo, adapter: ast.ClassDef,
                      ) -> Dict[str, Set[str]]:
    """Fields ``refresh`` reads, keyed by path: ``""`` for the item
    itself, an attribute name for one-level nested objects."""
    refresh = next((n for n in adapter.body
                    if isinstance(n, ast.FunctionDef)
                    and n.name == "refresh"), None)
    coverage: Dict[str, Set[str]] = {"": set()}
    if refresh is None:
        return coverage
    class_consts = _str_tuple_consts(adapter.body)

    # The item variable: second target of `for i, item in enumerate(seq)`
    # or the target of a plain `for item in seq` over the parameter.
    params = {a.arg for a in refresh.args.args} - {"self"}
    items: Set[str] = set()
    name_loops: Dict[str, Tuple[str, ...]] = {}

    def const_of(expr: ast.expr) -> Optional[Tuple[str, ...]]:
        if isinstance(expr, ast.Name):
            return info.consts.get(expr.id) or class_consts.get(expr.id)
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            return class_consts.get(expr.attr) or info.consts.get(expr.attr)
        return None

    for node in ast.walk(refresh):
        if not isinstance(node, ast.For):
            continue
        it = node.iter
        target = node.target
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "enumerate" and it.args):
            it = it.args[0]
            if isinstance(target, ast.Tuple) and len(target.elts) == 2:
                target = target.elts[1]
        if isinstance(target, ast.Name):
            if isinstance(it, ast.Name) and it.id in params:
                items.add(target.id)
            else:
                const = const_of(it)
                if const is not None:
                    name_loops[target.id] = const

    aliases: Dict[str, str] = {}  # local -> attr of the item it aliases
    for node in ast.walk(refresh):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in items):
            aliases[node.targets[0].id] = node.value.attr

    def bucket_of(base: ast.expr) -> Optional[str]:
        if not isinstance(base, ast.Name):
            return None
        if base.id in items:
            return ""
        return aliases.get(base.id)

    for node in ast.walk(refresh):
        if isinstance(node, ast.Attribute):
            bucket = bucket_of(node.value)
            if bucket is not None:
                coverage.setdefault(bucket, set()).add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2):
            bucket = bucket_of(node.args[0])
            if bucket is None:
                continue
            arg = node.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                coverage.setdefault(bucket, set()).add(arg.value)
            elif isinstance(arg, ast.Name) and arg.id in name_loops:
                coverage.setdefault(bucket, set()).update(name_loops[arg.id])
    for attr in aliases.values():
        coverage.setdefault("", set()).add(attr)
    return coverage


def _arrays_folds_slots(adapter: ast.ClassDef) -> bool:
    """True when ``arrays()`` iterates ``__slots__`` (so everything
    ``refresh`` writes lands in ``soa_digest``)."""
    arrays = next((n for n in adapter.body
                   if isinstance(n, ast.FunctionDef) and n.name == "arrays"),
                  None)
    if arrays is None:
        return False
    return any(isinstance(n, ast.Attribute) and n.attr == "__slots__"
               for n in ast.walk(arrays))


def component_inventory(sources: Optional[Mapping[str, str]] = None,
                        ) -> Dict[str, Dict[str, FieldInfo]]:
    """Mutable-field inventory per component class (exposed for tests
    and the DESIGN walkthrough)."""
    if sources is None:
        sources = load_sources()
    index, _ = _index(sources)
    external = _external_writes(index)
    inventory: Dict[str, Dict[str, FieldInfo]] = {}
    for spec in COMPONENTS:
        info = index.get(spec.module)
        cls = info.classes.get(spec.cls) if info is not None else None
        if info is None or cls is None:
            inventory[spec.cls] = {}
            continue
        mutated = _class_mutations(info, cls)
        candidates = _candidate_fields(cls)
        for fname in candidates & external.keys():
            rec = mutated.setdefault(fname, FieldInfo())
            rec.external = True
            rec.derived = False
            for mod, line in external[fname]:
                rec.mutated_at.append((mod, line))
        inventory[spec.cls] = mutated
    return inventory


def check_state_coverage(
        sources: Optional[Mapping[str, str]] = None, *,
        allowlist: Optional[Mapping[Tuple[str, str], str]] = None,
        ) -> List[Finding]:
    """SC001/SC002: every sim-state field is SoA-covered and digested."""
    if sources is None:
        sources = load_sources()
    if allowlist is None:
        allowlist = ALLOWLIST
    index, findings = _index(sources)
    external = _external_writes(index)
    mutable_by_cls: Dict[str, Set[str]] = {}
    coverage_cache: Dict[Tuple[str, str], Dict[str, Set[str]]] = {}
    checked_adapters: Set[Tuple[str, str]] = set()

    for spec in COMPONENTS:
        info = index.get(spec.module)
        cls = info.classes.get(spec.cls) if info is not None else None
        if info is None or cls is None:
            findings.append(Finding(
                "error", "SC001",
                f"component {spec.cls} not found in {spec.module}; the "
                f"COMPONENTS table is stale", _module_path(spec.module,
                                                           sources)))
            continue
        mutated = _class_mutations(info, cls)
        candidates = _candidate_fields(cls)
        for fname in candidates & external.keys():
            rec = mutated.setdefault(fname, FieldInfo())
            rec.external = True
            rec.derived = False
            for mod, line in external[fname]:
                rec.mutated_at.append((mod, line))
        mutable_by_cls[spec.cls] = set(mutated)

        covered: Set[str] = set()
        if spec.adapter_module is not None:
            key = (spec.adapter_module, spec.adapter_cls or "")
            if key not in coverage_cache:
                ainfo = index.get(spec.adapter_module)
                anode = (ainfo.classes.get(spec.adapter_cls or "")
                         if ainfo is not None else None)
                if ainfo is None or anode is None:
                    findings.append(Finding(
                        "error", "SC001",
                        f"SoA adapter {spec.adapter_cls} not found in "
                        f"{spec.adapter_module}",
                        _module_path(spec.adapter_module, sources)))
                    coverage_cache[key] = {"": set()}
                else:
                    coverage_cache[key] = _adapter_coverage(ainfo, anode)
                    if key not in checked_adapters:
                        checked_adapters.add(key)
                        if not _arrays_folds_slots(anode):
                            findings.append(Finding(
                                "error", "SC001",
                                f"{spec.adapter_cls}.arrays() does not "
                                f"iterate __slots__: refreshed state can "
                                f"escape soa_digest",
                                _module_path(spec.adapter_module, sources)))
            covered = coverage_cache[key].get(spec.via or "", set())

        for fname in sorted(mutated):
            rec = mutated[fname]
            if rec.derived or fname in covered:
                continue
            if (spec.cls, fname) in allowlist:
                continue
            where = sorted(set(rec.mutated_at))[0]
            adapter = (f"{spec.adapter_cls}.refresh"
                       if spec.adapter_cls else "any SoA adapter")
            findings.append(Finding(
                "error", "SC001",
                f"sim-state field {spec.cls}.{fname} is mutated but not "
                f"captured by {adapter}: the SoA state image will drift "
                f"silently; cover it, mark every mutation "
                f"'# {DERIVED_PRAGMA}', or allowlist it with a reason",
                f"{_module_path(where[0], sources)}:{where[1]}"))

    for (cls_name, fname), _reason in sorted(allowlist.items()):
        if fname not in mutable_by_cls.get(cls_name, set()):
            findings.append(Finding(
                "error", "SC002",
                f"stale allowlist entry {cls_name}.{fname}: no such "
                f"mutable field — remove the entry so the table tracks "
                f"the code", f"{cls_name}.{fname}"))
    return findings


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


# ---------------------------------------------------------------------------
# combined front end
# ---------------------------------------------------------------------------

@dataclass
class StateStats:
    """Counts the CLI report surfaces (what the analysis covered)."""

    modules: int = 0
    components: int = 0
    sim_state_fields: int = 0
    covered_fields: int = 0
    allowlisted_fields: int = 0
    derived_fields: int = 0
    observer_entries: int = 0


def state_stats(sources: Optional[Mapping[str, str]] = None) -> StateStats:
    """Coverage statistics of one analysis run (for the CLI report)."""
    if sources is None:
        sources = load_sources()
    inventory = component_inventory(sources)
    stats = StateStats(
        modules=len(sources),
        components=len(COMPONENTS),
        observer_entries=sum(len(s.entries) for s in OBSERVERS),
    )
    for spec in COMPONENTS:
        mutated = inventory.get(spec.cls, {})
        for fname, rec in mutated.items():
            if rec.derived:
                stats.derived_fields += 1
            elif (spec.cls, fname) in ALLOWLIST:
                stats.allowlisted_fields += 1
            else:
                stats.covered_fields += 1
            stats.sim_state_fields += 1
    return stats


def check_state(sources: Optional[Mapping[str, str]] = None,
                ) -> List[Finding]:
    """Both analyses over one source tree (default: ``src/repro``)."""
    if sources is None:
        sources = load_sources()
    return check_state_coverage(sources) + check_observer_purity(sources)


def render_state_report(findings: Sequence[Finding],
                        stats: StateStats) -> str:
    """Deterministic text report for ``repro-hbm check --state``."""
    from .findings import render
    lines = [
        f"state analyzer: {stats.modules} modules, "
        f"{stats.components} component classes",
        f"  state coverage: {stats.sim_state_fields} mutable fields "
        f"({stats.covered_fields} SoA-covered, "
        f"{stats.allowlisted_fields} allowlisted, "
        f"{stats.derived_fields} derived)",
        f"  observer purity: {stats.observer_entries} entry points traced "
        f"interprocedurally",
    ]
    if findings:
        lines.append(render(findings))
        errors = sum(1 for f in findings if f.severity == "error")
        lines.append(f"state check: {len(findings)} finding(s), "
                     f"{errors} error(s)")
    else:
        lines.append("state check: engine tiers cannot silently drift "
                     "(no findings)")
    return "\n".join(lines)
