"""Interprocedural flow analysis: the substrate under RPR008–RPR010.

The per-file rules (:mod:`repro.lint.rules`) see one AST at a time; the
cross-engine parity contracts cannot be checked that way — whether the
fused batched engine reads the same config knobs as the scalar path, and
whether a random draw traces back to :mod:`repro.sim.rng`, are properties
of *flows across modules*.  This module builds the minimal interprocedural
substrate those rules need:

**Per-module symbol tables** — classes, methods, module functions and the
import-alias table of every module under the package root, parsed once
(the engine shares its AST cache).

**Abstract values with provenance** — expressions resolve to a small
union-of-atoms domain: instances of known classes, instances of the
tracked config dataclasses, blessed/suppressed RNG generators, and
function parameters.  Every resolution also carries the set of
``(ConfigClass, field)`` reads it performed, so an instance binding like
``self.model = ExecutionTimeModel(config.costs, ...)`` *remembers* that
dereferencing it depends on ``SystemConfig.costs`` — the mechanism that
lets ``sim/batch.py``'s ``model._t_warm`` count as a read of
``ProtocolCosts.t_warm_us``.

**Instance-binding tables** — ``self.X = expr`` assignments across each
class (bases merged, subclass wins), resolved to a fixpoint so bindings
that reference other classes' bindings (``self.model = system.model``)
converge.

**A call graph** — typed edges where the receiver resolves (method lookup
through the base-class chain, plus virtual-dispatch expansion to subclass
overrides, so ``view.random_choice(...)`` reaches the dispatcher's
drawing implementation), name-matched fallback edges otherwise, and
constructor edges for calls of known classes.  Call sites record their
already-resolved argument values, which is what lets RPR009 trace a
generator *parameter* back through every caller.

On top of it, three project rules (explicit paths, like RPR004/005, so
fixture tests can point them at mutated copies):

* :func:`check_config_read_parity` — RPR008
* :func:`check_rng_provenance` — RPR009
* :func:`check_metrics_schema_parity` — RPR010 (purely structural; needs
  only ``sim/metrics.py``, ``sim/batch.py`` and the golden files)
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Set, Tuple,
)

from .config import (
    BLESSED_RNG_CLASS,
    CONFIG_CLASSES,
    RNG_DRAW_METHODS,
    RNG_EXEMPT_RELPATHS,
    SCALAR_PATH_RELPATHS,
    is_result_affecting,
)
from .findings import Finding
from .rules import ImportTable
from .suppressions import suppressed_codes

__all__ = [
    "ProjectIndex",
    "build_project_index",
    "check_config_read_parity",
    "check_metrics_schema_parity",
    "check_rng_provenance",
]

# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------
# An atom is one alternative for what an expression may be:
#   ("cfg", cls)        instance of a tracked config dataclass
#   ("inst", cls)       instance of a known project class
#   ("cls", cls)        the class object itself
#   ("rng", origin)     a generator; origin in {"blessed", "suppressed",
#                       "unblessed"}
#   ("param", key, name) the value of parameter `name` of function `key`
Atom = Tuple[str, ...]
#: One recorded config read: (config class name, attribute name).
Read = Tuple[str, str]
#: (alternatives, config reads performed while resolving)
Value = Tuple[FrozenSet[Atom], FrozenSet[Read]]

_EMPTY: Value = (frozenset(), frozenset())

_RNG_OK = ("blessed", "suppressed")


def _merge(*values: Value) -> Value:
    atoms: Set[Atom] = set()
    reads: Set[Read] = set()
    for a, r in values:
        atoms |= a
        reads |= r
    return frozenset(atoms), frozenset(reads)


# ----------------------------------------------------------------------
# Symbol tables
# ----------------------------------------------------------------------
@dataclass
class ClassInfo:
    name: str
    relpath: str
    node: ast.ClassDef
    bases: Tuple[str, ...]
    methods: Dict[str, ast.FunctionDef]
    #: AnnAssign field name -> (lineno, annotation expr)
    fields: Dict[str, Tuple[int, Optional[ast.expr]]]


@dataclass
class ModuleInfo:
    relpath: str
    path: Path
    tree: ast.Module
    imports: ImportTable
    functions: Dict[str, ast.FunctionDef]
    classes: Dict[str, ClassInfo]
    #: Lines carrying a ``repro-lint: ignore[RPR001]`` suppression —
    #: an *audited* RNG construction point for provenance purposes.
    rng_suppressed_lines: FrozenSet[int]


@dataclass
class _FuncRecord:
    key: str                    # "Class.meth" or "relpath::func"
    relpath: str
    owner: Optional[str]        # class name for methods
    node: ast.FunctionDef
    is_static: bool
    is_classmethod: bool


@dataclass
class _CallSite:
    relpath: str
    line: int
    caller_key: str
    #: whether the callee's leading self/cls is bound to the receiver
    bound: bool
    arg_values: Tuple[Value, ...]
    kwarg_values: Mapping[str, Value]


@dataclass
class _DrawSite:
    relpath: str
    line: int
    col: int
    method: str
    receiver: Value
    caller_key: str


class ProjectIndex:
    """Symbol tables, bindings, call graph and extracted facts for one
    package tree.  Build via :func:`build_project_index`."""

    def __init__(self, package_root: Path) -> None:
        self.package_root = Path(package_root)
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, _FuncRecord] = {}
        #: bare function/method name -> keys defining it (fallback edges)
        self.by_name: Dict[str, List[str]] = {}
        self.subclasses: Dict[str, Set[str]] = {}
        #: config class -> attr -> lineno (fields + properties + methods)
        self.config_attrs: Dict[str, Dict[str, int]] = {}
        #: (cls, attr) -> same-class attrs its body reads (for methods and
        #: properties of config classes; transitive closure)
        self.config_attr_closure: Dict[Read, FrozenSet[str]] = {}
        #: class -> attr -> Value (own ``self.X = ...`` bindings only;
        #: query through :meth:`binding` for the merged base-chain view)
        self.bindings: Dict[str, Dict[str, Value]] = {}
        # Facts extracted by the analysis pass:
        self.callsites: Dict[str, List[_CallSite]] = {}
        self.draw_sites: List[_DrawSite] = []
        self.edges: Dict[str, Set[str]] = {}
        self.has_draw: Dict[str, bool] = {}
        #: relpath -> (cls, attr) -> (line, col) of the first read site
        self.reads: Dict[str, Dict[Read, Tuple[int, int]]] = {}

    # ---------------- class machinery ----------------
    def mro(self, cls: str) -> List[str]:
        """Base-class linearization by name (BFS, self first)."""
        out: List[str] = []
        queue = [cls]
        while queue:
            name = queue.pop(0)
            if name in out or name not in self.classes:
                continue
            out.append(name)
            queue.extend(self.classes[name].bases)
        return out

    def all_subclasses(self, cls: str) -> Set[str]:
        out: Set[str] = set()
        queue = [cls]
        while queue:
            for sub in self.subclasses.get(queue.pop(), ()):
                if sub not in out:
                    out.add(sub)
                    queue.append(sub)
        return out

    def find_method(self, cls: str, name: str) -> Optional[str]:
        """Key of ``name`` looked up through ``cls``'s base chain."""
        for c in self.mro(cls):
            if name in self.classes[c].methods:
                return f"{c}.{name}"
        return None

    def binding(self, cls: str, attr: str) -> Optional[Value]:
        """Instance binding of ``attr`` for ``cls`` (base chain merged,
        most-derived definition wins)."""
        for c in self.mro(cls):
            value = self.bindings.get(c, {}).get(attr)
            if value is not None:
                return value
        return None


def _iter_stmts(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements in lexical order, descending into compound statements
    but not into nested function/class definitions."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for sub in (getattr(stmt, "body", None), getattr(stmt, "orelse", None),
                    getattr(stmt, "finalbody", None)):
            if sub:
                yield from _iter_stmts(sub)
        for handler in getattr(stmt, "handlers", ()) or ():
            yield from _iter_stmts(handler.body)


def _walk_expr(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function bodies."""
    queue: List[ast.AST] = [node]
    while queue:
        cur = queue.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            queue.append(child)


def _decorator_names(node: ast.FunctionDef) -> Set[str]:
    out: Set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            out.add(target.id)
        elif isinstance(target, ast.Attribute):
            out.add(target.attr)
    return out


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


# ----------------------------------------------------------------------
# Index construction
# ----------------------------------------------------------------------
def build_project_index(
    package_root: Path,
    trees: Optional[Mapping[Path, ast.Module]] = None,
    sources: Optional[Mapping[Path, str]] = None,
) -> ProjectIndex:
    """Parse/inventory every module under ``package_root`` and run the
    whole-project analysis (bindings fixpoint + extraction pass).

    ``trees``/``sources`` are optional pre-parsed caches keyed by
    *resolved* path — the lint engine passes its shared per-file cache so
    nothing is parsed twice.
    """
    root = Path(package_root)
    index = ProjectIndex(root)
    trees = trees or {}
    sources = sources or {}
    for path in sorted(root.rglob("*.py")):
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
        resolved = path.resolve()
        source = sources.get(resolved)
        tree = trees.get(resolved)
        if tree is None:
            try:
                if source is None:
                    source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except (OSError, UnicodeDecodeError, SyntaxError):
                continue  # RPR000 is reported by the engine, not here
        if source is None:
            try:
                source = path.read_text()
            except (OSError, UnicodeDecodeError):
                source = ""
        rng_lines = frozenset(
            line for line, codes in suppressed_codes(source).items()
            if "RPR001" in codes
        ) if "repro-lint" in source else frozenset()
        module = ModuleInfo(
            relpath=relpath, path=path, tree=tree,
            imports=ImportTable(tree), functions={}, classes={},
            rng_suppressed_lines=rng_lines,
        )
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                module.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                methods: Dict[str, ast.FunctionDef] = {}
                fields: Dict[str, Tuple[int, Optional[ast.expr]]] = {}
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[item.name] = item
                    elif isinstance(item, ast.AnnAssign) and \
                            isinstance(item.target, ast.Name):
                        fields[item.target.id] = (item.lineno,
                                                  item.annotation)
                info = ClassInfo(
                    name=stmt.name, relpath=relpath, node=stmt,
                    bases=_base_names(stmt), methods=methods, fields=fields,
                )
                module.classes[stmt.name] = info
                # First definition wins on (rare) bare-name collisions.
                index.classes.setdefault(stmt.name, info)
        index.modules[relpath] = module

    for info in index.classes.values():
        for base in info.bases:
            index.subclasses.setdefault(base, set()).add(info.name)
        for name, node in info.methods.items():
            decorators = _decorator_names(node)
            record = _FuncRecord(
                key=f"{info.name}.{name}", relpath=info.relpath,
                owner=info.name, node=node,
                is_static="staticmethod" in decorators,
                is_classmethod="classmethod" in decorators,
            )
            index.functions[record.key] = record
            index.by_name.setdefault(name, []).append(record.key)
    for module in index.modules.values():
        for name, node in module.functions.items():
            record = _FuncRecord(
                key=f"{module.relpath}::{name}", relpath=module.relpath,
                owner=None, node=node, is_static=False, is_classmethod=False,
            )
            index.functions[record.key] = record
            index.by_name.setdefault(name, []).append(record.key)

    _collect_config_attrs(index)
    analyzer = _Analyzer(index)
    analyzer.solve_bindings()
    analyzer.extract()
    return index


def _collect_config_attrs(index: ProjectIndex) -> None:
    """Field/property/method inventory of the tracked config classes plus
    the same-class read closure of derived attributes (a read of
    ``l1_reload_us`` *is* a read of the fields its body touches)."""
    for cls in CONFIG_CLASSES:
        info = index.classes.get(cls)
        if info is None:
            continue
        attrs: Dict[str, int] = {}
        direct: Dict[str, Set[str]] = {}
        for name, (lineno, _ann) in info.fields.items():
            attrs[name] = lineno
        for name, node in info.methods.items():
            if name.startswith("__"):
                continue
            attrs[name] = node.lineno
        index.config_attrs[cls] = attrs
        for name, node in info.methods.items():
            if name.startswith("__"):
                continue
            reads: Set[str] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and \
                        isinstance(sub.value, ast.Name) and \
                        sub.value.id == "self" and sub.attr in attrs:
                    reads.add(sub.attr)
            direct[name] = reads
        # Transitive closure down to plain fields.
        for name in direct:
            seen: Set[str] = set()
            queue = list(direct[name])
            while queue:
                attr = queue.pop()
                if attr in seen:
                    continue
                seen.add(attr)
                queue.extend(direct.get(attr, ()))
            index.config_attr_closure[(cls, name)] = frozenset(seen)


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
class _Analyzer:
    """Two passes over every function: a bindings fixpoint (``self.X =``
    assignments resolved until stable) and a fact-extraction pass
    (config reads, call sites, draw sites, call-graph edges)."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.recording: Optional[Dict[Read, Tuple[int, int]]] = None
        self._ret_memo: Dict[str, FrozenSet[Atom]] = {}
        self._ret_active: Set[str] = set()

    # ---------------- environments ----------------
    def initial_env(self, record: _FuncRecord,
                    module: ModuleInfo) -> Dict[str, Value]:
        env: Dict[str, Value] = {}
        args = record.node.args
        params = list(args.posonlyargs) + list(args.args) + \
            list(args.kwonlyargs)
        for i, arg in enumerate(params):
            atoms: Set[Atom] = set()
            if i == 0 and record.owner and not record.is_static:
                if record.is_classmethod:
                    atoms.add(("cls", record.owner))
                else:
                    atoms.add(("inst", record.owner))
                env[arg.arg] = (frozenset(atoms), frozenset())
                continue
            atoms.add(("param", record.key, arg.arg))
            atoms |= self.annotation_atoms(arg.annotation)
            if not any(a[0] in ("cfg", "inst", "cls") for a in atoms):
                if arg.arg in ("config", "cfg") and \
                        "SystemConfig" in self.index.classes:
                    atoms.add(("cfg", "SystemConfig"))
                elif arg.arg == "system" and \
                        "NetworkProcessingSystem" in self.index.classes:
                    atoms.add(("inst", "NetworkProcessingSystem"))
            env[arg.arg] = (frozenset(atoms), frozenset())
        return env

    def annotation_atoms(self, ann: Optional[ast.expr]) -> Set[Atom]:
        """Atoms for a known-class annotation, unwrapping ``Optional``/
        ``Union``/``"ForwardRef"`` spellings."""
        if ann is None:
            return set()
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return set()
        if isinstance(ann, ast.Subscript):
            base = ann.value
            base_name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else "")
            if base_name in ("Optional", "Union"):
                inner = ann.slice
                parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
                out: Set[Atom] = set()
                for part in parts:
                    out |= self.annotation_atoms(part)
                return out
            return set()
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self.annotation_atoms(ann.left) | \
                self.annotation_atoms(ann.right)
        name = None
        if isinstance(ann, ast.Name):
            name = ann.id
        elif isinstance(ann, ast.Attribute):
            name = ann.attr
        if name is None:
            return set()
        if name in CONFIG_CLASSES and name in self.index.config_attrs:
            return {("cfg", name)}
        if name in self.index.classes:
            return {("inst", name)}
        return set()

    def class_atoms(self, name: str) -> Set[Atom]:
        if name in CONFIG_CLASSES and name in self.index.config_attrs:
            # Calling a config class constructs a config instance; the
            # bare name is still usable as a callee.
            return {("cls", name)}
        if name in self.index.classes:
            return {("cls", name)}
        return set()

    def return_summary(self, key: str) -> FrozenSet[Atom]:
        """Atoms a call of function ``key`` may evaluate to: its return
        annotation plus its resolved ``return`` expressions (which is how
        an identity-style helper like ``def _rng(rng): return rng``
        passes its parameter atoms through).  Memoized; recursion-safe.
        Reads are deliberately *not* propagated — the callee's own file
        gets credited by its own extraction pass."""
        if key in self._ret_memo:
            return self._ret_memo[key]
        if key in self._ret_active:
            return frozenset()
        record = self.index.functions.get(key)
        if record is None:
            return frozenset()
        module = self.index.modules.get(record.relpath)
        if module is None:
            return frozenset()
        self._ret_active.add(key)
        saved_recording, self.recording = self.recording, None
        try:
            atoms: Set[Atom] = set(
                self.annotation_atoms(record.node.returns))
            env = self.initial_env(record, module)
            for stmt in _iter_stmts(record.node.body):
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    atoms |= self.resolve(stmt.value, env, module)[0]
                    continue
                value_expr: Optional[ast.expr] = None
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    value_expr, targets = stmt.value, stmt.targets
                elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                    value_expr, targets = stmt.value, [stmt.target]
                if value_expr is None:
                    continue
                value = self.resolve(value_expr, env, module)
                for target in targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = value
        finally:
            self.recording = saved_recording
            self._ret_active.discard(key)
        result = frozenset(atoms)
        self._ret_memo[key] = result
        return result

    # ---------------- resolution ----------------
    def resolve(self, node: ast.expr, env: Dict[str, Value],
                module: ModuleInfo) -> Value:
        index = self.index
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            atoms = self.class_atoms(node.id)
            if atoms:
                return (frozenset(atoms), frozenset())
            resolved = module.imports.resolve(node)
            if resolved:
                tail = resolved.rsplit(".", 1)[-1]
                atoms = self.class_atoms(tail)
                if atoms:
                    return (frozenset(atoms), frozenset())
            return _EMPTY
        if isinstance(node, ast.Attribute):
            return self._resolve_attribute(node, env, module)
        if isinstance(node, ast.Call):
            return self._resolve_call(node, env, module)
        if isinstance(node, ast.IfExp):
            test = self.resolve(node.test, env, module)
            body = self.resolve(node.body, env, module)
            orelse = self.resolve(node.orelse, env, module)
            merged = _merge(body, orelse)
            return (merged[0], merged[1] | test[1])
        if isinstance(node, ast.BoolOp):
            return _merge(*(self.resolve(v, env, module)
                            for v in node.values))
        if isinstance(node, ast.BinOp):
            # Arithmetic yields a number, not an instance: keep only the
            # operands' config reads (``self._pen_cold = self._delta1 +
            # self._delta2`` reads both reload transients).
            return (frozenset(), _merge(self.resolve(node.left, env, module),
                                        self.resolve(node.right, env, module))[1])
        if isinstance(node, (ast.Subscript, ast.Starred)):
            # Conflate container and element: a list of X resolves to X.
            return self.resolve(node.value, env, module)
        if isinstance(node, ast.NamedExpr):
            return self.resolve(node.value, env, module)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            elt = self.resolve(node.elt, env, module)
            reads: Set[Read] = set(elt[1])
            for gen in node.generators:
                reads |= self.resolve(gen.iter, env, module)[1]
            return (elt[0], frozenset(reads))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _merge(*(self.resolve(e, env, module)
                            for e in node.elts)) if node.elts else _EMPTY
        return _EMPTY

    def _record(self, read: Read, node: ast.AST) -> None:
        if self.recording is not None and read not in self.recording:
            self.recording[read] = (getattr(node, "lineno", 1),
                                    getattr(node, "col_offset", 0))

    def _resolve_attribute(self, node: ast.Attribute, env: Dict[str, Value],
                           module: ModuleInfo) -> Value:
        base = self.resolve(node.value, env, module)
        atoms: Set[Atom] = set()
        reads: Set[Read] = set(base[1])
        attr = node.attr
        resolved_any = False
        for atom in base[0]:
            kind = atom[0]
            if kind == "cfg":
                cls = atom[1]
                cls_attrs = self.index.config_attrs.get(cls, {})
                if attr in cls_attrs:
                    read = (cls, attr)
                    reads.add(read)
                    self._record(read, node)
                    resolved_any = True
                    # A config field whose annotation is itself a config
                    # class (SystemConfig.costs -> ProtocolCosts).
                    info = self.index.classes.get(cls)
                    if info is not None and attr in info.fields:
                        atoms |= {
                            a if a[0] != "inst" else ("cfg", a[1])
                            if a[1] in CONFIG_CLASSES else a
                            for a in self.annotation_atoms(
                                info.fields[attr][1])
                        }
            elif kind == "inst":
                cls = atom[1]
                if cls == BLESSED_RNG_CLASS:
                    atoms.add(("rng", "blessed"))
                    resolved_any = True
                    continue
                binding = self.index.binding(cls, attr)
                if binding is not None:
                    atoms |= binding[0]
                    reads |= binding[1]
                    # Dereferencing a provenance-carrying binding *is* a
                    # read of the config fields its initializer touched,
                    # credited to the dereferencing file (the mechanism
                    # that lets batch.py's ``model._t_warm`` count as
                    # reading ``ProtocolCosts.t_warm_us``).
                    for read in binding[1]:
                        self._record(read, node)
                    resolved_any = True
            elif kind == "rng":
                # Attribute chains below a generator stay generator-ish
                # (RandomStreams accessors, bound draw methods like
                # ``sched_int = rngs.scheduling.integers``).
                atoms.add(atom)
                resolved_any = True
        if not resolved_any and attr == "config" and \
                "SystemConfig" in self.index.config_attrs:
            # Fallback: `.config` is idiomatically the SystemConfig.
            atoms.add(("cfg", "SystemConfig"))
        return (frozenset(atoms), frozenset(reads))

    def _callee_keys(self, node: ast.Call, env: Dict[str, Value],
                     module: ModuleInfo,
                     caller: Optional[_FuncRecord]) -> Tuple[
                         List[Tuple[str, bool]], Value]:
        """Resolve a call's possible targets.

        Returns ``([(func_key, receiver_bound)], func_value)`` where
        ``receiver_bound`` says the callee's leading self/cls is bound to
        the receiver (method/constructor calls).
        """
        index = self.index
        func = node.func
        targets: List[Tuple[str, bool]] = []
        if isinstance(func, ast.Name):
            value = self.resolve(func, env, module)
            for atom in value[0]:
                if atom[0] == "cls":
                    key = index.find_method(atom[1], "__init__")
                    if key:
                        targets.append((key, True))
            if not targets:
                record = module.functions.get(func.id)
                if record is not None:
                    targets.append((f"{module.relpath}::{func.id}", False))
                else:
                    resolved = module.imports.resolve(func)
                    tail = resolved.rsplit(".", 1)[-1] if resolved else func.id
                    for key in index.by_name.get(tail, []):
                        rec = index.functions[key]
                        if rec.owner is None:
                            targets.append((key, False))
            return targets, value
        if not isinstance(func, ast.Attribute):
            return targets, _EMPTY
        attr = func.attr
        # super().m(...) binds within the enclosing class's base chain.
        if isinstance(func.value, ast.Call) and \
                isinstance(func.value.func, ast.Name) and \
                func.value.func.id == "super" and caller and caller.owner:
            for base in index.classes[caller.owner].bases:
                key = index.find_method(base, attr)
                if key:
                    targets.append((key, True))
            return targets, _EMPTY
        base = self.resolve(func.value, env, module)
        typed = False
        for atom in base[0]:
            if atom[0] in ("inst", "cls"):
                key = index.find_method(atom[1], attr)
                if key:
                    typed = True
                    targets.append((key, True))
                    # Virtual dispatch: overrides in subclasses.
                    for sub in index.all_subclasses(atom[1]):
                        if attr in index.classes[sub].methods:
                            targets.append((f"{sub}.{attr}", True))
            elif atom[0] == "cfg":
                key = index.find_method(atom[1], attr)
                if key:
                    typed = True
                    targets.append((key, True))
        if not typed and not attr.startswith("__"):
            for key in index.by_name.get(attr, []):
                rec = index.functions[key]
                bound = rec.owner is not None and not rec.is_static
                targets.append((key, bound))
        return targets, base

    def _resolve_call(self, node: ast.Call, env: Dict[str, Value],
                      module: ModuleInfo) -> Value:
        index = self.index
        func = node.func
        atoms: Set[Atom] = set()
        reads: Set[Read] = set()
        # Argument evaluation contributes provenance.
        for arg in node.args:
            reads |= self.resolve(arg, env, module)[1]
        for kw in node.keywords:
            reads |= self.resolve(kw.value, env, module)[1]
        if isinstance(func, ast.Name):
            value = self.resolve(func, env, module)
            reads |= value[1]
            for atom in value[0]:
                if atom[0] == "cls":
                    if atom[1] in CONFIG_CLASSES and \
                            atom[1] in index.config_attrs:
                        atoms.add(("cfg", atom[1]))
                    else:
                        atoms.add(("inst", atom[1]))
                elif atom[0] == "rng":
                    # Calling a bound draw method (``sched_int(...)``)
                    # yields data, not a generator — but the call is
                    # rng-derived, which is all RPR009 needs to know.
                    atoms.add(atom)
            resolved = module.imports.resolve(func)
            if resolved and resolved.startswith("numpy.random") and \
                    resolved.endswith(("default_rng", "RandomState")):
                atoms.add(self._construction_atom(node, module))
            if not atoms:
                # Plain function call: flow atoms out of the callee's
                # return expressions.
                if func.id in module.functions:
                    atoms |= self.return_summary(
                        f"{module.relpath}::{func.id}")
                else:
                    tail = resolved.rsplit(".", 1)[-1] if resolved \
                        else func.id
                    for key in self.index.by_name.get(tail, []):
                        if self.index.functions[key].owner is None:
                            atoms |= self.return_summary(key)
            return (frozenset(atoms), frozenset(reads))
        if isinstance(func, ast.Attribute):
            base = self._resolve_attribute(func, env, module)
            reads |= base[1]
            for atom in base[0]:
                if atom[0] == "rng":
                    atoms.add(atom)
            resolved = module.imports.resolve(func)
            if resolved and resolved.startswith("numpy.random") and \
                    resolved.endswith(("default_rng", "RandomState")):
                atoms.add(self._construction_atom(node, module))
            # Method-call results via return annotations + return-
            # expression summaries.
            recv = self.resolve(func.value, env, module)
            for atom in recv[0]:
                if atom[0] in ("inst", "cls"):
                    key = index.find_method(atom[1], func.attr)
                    if key:
                        atoms |= self.return_summary(key)
            return (frozenset(atoms), frozenset(reads))
        return (frozenset(atoms), frozenset(reads))

    def _construction_atom(self, node: ast.Call,
                           module: ModuleInfo) -> Atom:
        if module.relpath in RNG_EXEMPT_RELPATHS or \
                node.lineno in module.rng_suppressed_lines:
            return ("rng", "suppressed")
        return ("rng", "unblessed")

    # ---------------- pass 1: bindings fixpoint ----------------
    def solve_bindings(self) -> None:
        index = self.index
        # Pre-extract (class, method, attr, value-expr, env-relevant
        # statements) so each round only re-resolves binding expressions.
        sites: List[Tuple[str, _FuncRecord, ModuleInfo]] = []
        for info in index.classes.values():
            module = index.modules.get(info.relpath)
            if module is None:
                continue
            for name in info.methods:
                record = index.functions[f"{info.name}.{name}"]
                sites.append((info.name, record, module))
        for _ in range(4):
            changed = False
            # Summaries may depend on bindings still converging.
            self._ret_memo.clear()
            for cls, record, module in sites:
                env = self.initial_env(record, module)
                for stmt in _iter_stmts(record.node.body):
                    value_expr: Optional[ast.expr] = None
                    targets: List[ast.expr] = []
                    if isinstance(stmt, ast.Assign):
                        value_expr, targets = stmt.value, stmt.targets
                    elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                        value_expr, targets = stmt.value, [stmt.target]
                    if value_expr is None:
                        continue
                    value = self.resolve(value_expr, env, module)
                    for target in targets:
                        if isinstance(target, ast.Name):
                            env[target.id] = value
                        elif isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == "self":
                            table = index.bindings.setdefault(cls, {})
                            old = table.get(target.attr, _EMPTY)
                            new = _merge(old, value)
                            if new != old:
                                table[target.attr] = new
                                changed = True
            if not changed:
                break

    # ---------------- pass 2: extraction ----------------
    def extract(self) -> None:
        index = self.index
        self._ret_memo.clear()
        for module in index.modules.values():
            # Module-level statements (rare but cheap).
            self._extract_body(None, module, iter(module.tree.body),
                               env={}, caller_key=f"{module.relpath}::")
            for record in index.functions.values():
                if record.relpath != module.relpath:
                    continue
                env = self.initial_env(record, module)
                self._extract_body(record, module,
                                   _iter_stmts(record.node.body), env,
                                   record.key)

    def _extract_body(self, record: Optional[_FuncRecord],
                      module: ModuleInfo, stmts: Iterable[ast.stmt],
                      env: Dict[str, Value], caller_key: str) -> None:
        index = self.index
        self.recording = index.reads.setdefault(module.relpath, {})
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for sub in _walk_expr(stmt):
                if isinstance(sub, ast.Attribute) and \
                        isinstance(sub.ctx, ast.Load):
                    self.resolve(sub, env, module)
                elif isinstance(sub, ast.Call):
                    self._extract_call(sub, env, module, record, caller_key)
            # Sequential environment update.
            value_expr: Optional[ast.expr] = None
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                value_expr, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                value_expr, targets = stmt.value, [stmt.target]
            if value_expr is not None:
                value = self.resolve(value_expr, env, module)
                for target in targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = value
        self.recording = None

    def _extract_call(self, node: ast.Call, env: Dict[str, Value],
                      module: ModuleInfo, record: Optional[_FuncRecord],
                      caller_key: str) -> None:
        index = self.index
        targets, _ = self._callee_keys(node, env, module, record)
        if targets:
            arg_values = tuple(self.resolve(a, env, module)
                               for a in node.args
                               if not isinstance(a, ast.Starred))
            kwarg_values = {
                kw.arg: self.resolve(kw.value, env, module)
                for kw in node.keywords if kw.arg is not None
            }
            for key, bound in targets:
                index.callsites.setdefault(key, []).append(_CallSite(
                    relpath=module.relpath, line=node.lineno,
                    caller_key=caller_key, bound=bound,
                    arg_values=arg_values, kwarg_values=kwarg_values,
                ))
                index.edges.setdefault(caller_key, set()).add(key)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in RNG_DRAW_METHODS:
            receiver = self.resolve(func.value, env, module)
            # Definitively non-RNG receivers (known class/config
            # instances with no rng/param alternative) are not draws.
            atoms = receiver[0]
            non_rng = atoms and all(
                a[0] in ("inst", "cls", "cfg") for a in atoms)
            if not non_rng:
                index.draw_sites.append(_DrawSite(
                    relpath=module.relpath, line=node.lineno,
                    col=node.col_offset, method=func.attr,
                    receiver=receiver, caller_key=caller_key,
                ))
                index.has_draw[caller_key] = True


# ----------------------------------------------------------------------
# Shared helpers for the rules
# ----------------------------------------------------------------------
def _as_index(package_root: Path,
              index: Optional[ProjectIndex]) -> ProjectIndex:
    if index is not None:
        return index
    return build_project_index(Path(package_root))


def _finding(path: Path, line: int, col: int, code: str,
             message: str) -> Finding:
    return Finding(path=str(path), line=line, col=col, code=code,
                   message=message)


def _module_declaration(module: ModuleInfo, name: str,
                        ) -> Tuple[Optional[Dict[str, str]], int]:
    """A module-level ``NAME = {...}`` string->string dict literal,
    returning ``(dict or None, lineno)``."""
    for stmt in module.tree.body:
        target = None
        value = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name):
            target, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name) and stmt.value is not None:
            target, value = stmt.target.id, stmt.value
        if target != name or value is None:
            continue
        try:
            literal = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            return None, stmt.lineno
        if isinstance(literal, dict) and all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in literal.items()):
            return literal, stmt.lineno
        return None, stmt.lineno
    return None, 1


def _module_tuple_names(module: ModuleInfo, name: str) -> Optional[Set[str]]:
    """Names inside a module-level ``NAME = (ClassA, ClassB, ...)``."""
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                stmt.targets[0].id == name and \
                isinstance(stmt.value, (ast.Tuple, ast.List)):
            return {e.id for e in stmt.value.elts if isinstance(e, ast.Name)}
    return None


def _expand_reads(index: ProjectIndex,
                  reads: Iterable[Read]) -> FrozenSet[Read]:
    """Close a read set over derived config attributes (properties and
    methods pull in the fields their bodies touch)."""
    out: Set[Read] = set()
    for cls, attr in reads:
        out.add((cls, attr))
        for sub in index.config_attr_closure.get((cls, attr), ()):
            out.add((cls, sub))
    return frozenset(out)


# ----------------------------------------------------------------------
# RPR008 — config-read parity
# ----------------------------------------------------------------------
_BATCH_DECL = "_BATCH_IRRELEVANT_FIELDS"
_BATCH_RELPATH = "sim/batch.py"


def check_config_read_parity(
    package_root: Path,
    *,
    index: Optional[ProjectIndex] = None,
) -> List[Finding]:
    """RPR008: every config field the scalar path reads must be read by
    the fused batched engine too, or be declared batch-irrelevant (with a
    reason) in ``sim/batch.py``'s ``_BATCH_IRRELEVANT_FIELDS``."""
    index = _as_index(package_root, index)
    batch = index.modules.get(_BATCH_RELPATH)
    if batch is None:
        return []  # no batched engine in this tree — nothing to compare
    findings: List[Finding] = []

    declared, decl_line = _module_declaration(batch, _BATCH_DECL)
    if declared is None:
        findings.append(_finding(
            batch.path, decl_line, 0, "RPR008",
            f"sim/batch.py must declare {_BATCH_DECL} as a literal "
            "dict mapping 'ConfigClass.field' to the reason the fused "
            "engine never reads it (may be empty)"))
        declared = {}

    scalar_sites: Dict[Read, Tuple[str, int, int]] = {}
    for relpath in SCALAR_PATH_RELPATHS:
        for read, (line, col) in index.reads.get(relpath, {}).items():
            scalar_sites.setdefault(read, (relpath, line, col))
    scalar = _expand_reads(index, scalar_sites)
    batched = _expand_reads(index, index.reads.get(_BATCH_RELPATH, {}))

    known_attrs = index.config_attrs
    for key, reason in sorted(declared.items()):
        cls, _, attr = key.partition(".")
        if cls not in known_attrs or attr not in known_attrs[cls]:
            findings.append(_finding(
                batch.path, decl_line, 0, "RPR008",
                f"stale {_BATCH_DECL} entry {key!r}: not a known "
                "config field"))
            continue
        if not reason.strip():
            findings.append(_finding(
                batch.path, decl_line, 0, "RPR008",
                f"{_BATCH_DECL} entry {key!r} has an empty reason — "
                "declarations must say why the field is batch-irrelevant"))
        if (cls, attr) in batched:
            findings.append(_finding(
                batch.path, decl_line, 0, "RPR008",
                f"stale {_BATCH_DECL} entry {key!r}: the batched engine "
                "does read this field now"))
        elif (cls, attr) not in scalar:
            findings.append(_finding(
                batch.path, decl_line, 0, "RPR008",
                f"stale {_BATCH_DECL} entry {key!r}: the scalar path no "
                "longer reads this field"))

    declared_reads = {tuple(k.partition(".")[::2]) for k in declared}
    for read in sorted(scalar - batched):
        if read in declared_reads:
            continue
        # Derived attrs whose underlying fields are all covered don't
        # need separate parity (reading `l1_reload_us` is covered when
        # its closure fields are read on the batched side).
        closure = index.config_attr_closure.get(read)
        if closure and all((read[0], f) in batched for f in closure):
            continue
        site = scalar_sites.get(read)
        if site is None:
            # Read reached only through closure expansion; anchor at the
            # attribute that pulled it in.
            for direct, loc in scalar_sites.items():
                if direct[0] == read[0] and read[1] in \
                        index.config_attr_closure.get(direct, ()):
                    site = loc
                    break
        if site is None:
            continue
        relpath, line, col = site
        module = index.modules[relpath]
        findings.append(_finding(
            module.path, line, col, "RPR008",
            f"{read[0]}.{read[1]} is read in the scalar path "
            f"({relpath}:{line}) but never by the fused batched engine; "
            f"read it in sim/batch.py or add it to {_BATCH_DECL} with a "
            "reason"))
    return findings


# ----------------------------------------------------------------------
# RPR009 — RNG provenance + policy fallback coverage
# ----------------------------------------------------------------------
_FALLBACK_DECL = "_SCALAR_FALLBACK_POLICIES"
_FUSED_DECL = "_FUSED_POLICIES"
_POLICY_REGISTRIES = ("LOCKING_POLICIES", "IPS_POLICIES")
_POLICIES_RELPATH = "core/policies.py"
_TRACE_DEPTH = 10


def _classify_rng(index: ProjectIndex, value: Value,
                  seen: Set[Tuple[str, str]],
                  depth: int) -> List[str]:
    """Why ``value`` is not a blessed generator ([] = it is, or cannot be
    shown otherwise).  Parameters recurse through recorded call sites."""
    atoms = value[0]
    if any(a[0] == "rng" and a[1] in _RNG_OK for a in atoms):
        return []
    problems: List[str] = []
    params = [a for a in atoms if a[0] == "param"]
    if any(a == ("rng", "unblessed") for a in atoms):
        problems.append("a generator constructed outside sim/rng.py "
                        "without an audited RPR001 suppression")
    if not params:
        if not problems:
            problems.append("a receiver that does not trace back to "
                            "repro.sim.rng.RandomStreams")
        return problems
    if depth <= 0:
        return []  # depth cap: cannot prove a problem — stay silent
    for atom in params:
        key, name = atom[1], atom[2]
        if (key, name) in seen:
            continue
        seen.add((key, name))
        record = index.functions.get(key)
        if record is None:
            continue
        args = record.node.args
        params_list = [a.arg for a in
                       list(args.posonlyargs) + list(args.args)]
        kwonly = [a.arg for a in args.kwonlyargs]
        for site in index.callsites.get(key, ()):
            if not is_result_affecting(site.relpath):
                continue  # externally seeded harness input
            names = params_list[1:] if (site.bound and params_list and
                                        params_list[0] in ("self", "cls")
                                        ) else params_list
            arg_value: Optional[Value] = None
            if name in names and names.index(name) < len(site.arg_values):
                arg_value = site.arg_values[names.index(name)]
            elif name in site.kwarg_values:
                arg_value = site.kwarg_values[name]
            elif name in kwonly and name in site.kwarg_values:
                arg_value = site.kwarg_values[name]
            if arg_value is None:
                continue  # default used, or *args forwarding — unprovable
            for problem in _classify_rng(index, arg_value, seen, depth - 1):
                problems.append(
                    f"{problem} (flowing into parameter {name!r} of "
                    f"{key} at {site.relpath}:{site.line})")
    return problems


def check_rng_provenance(
    package_root: Path,
    *,
    index: Optional[ProjectIndex] = None,
) -> List[Finding]:
    """RPR009: draw sites in result-affecting code must trace to the
    blessed derivation point, and every RNG-consuming registered policy
    must be fused in ``sim/batch.py`` or declared a scalar fallback."""
    index = _as_index(package_root, index)
    findings: List[Finding] = []

    # ---- half A: draw-site provenance --------------------------------
    for site in index.draw_sites:
        if not is_result_affecting(site.relpath):
            continue
        if site.relpath in RNG_EXEMPT_RELPATHS:
            continue
        problems = _classify_rng(index, site.receiver, set(), _TRACE_DEPTH)
        if problems:
            module = index.modules[site.relpath]
            findings.append(_finding(
                module.path, site.line, site.col, "RPR009",
                f"RNG draw .{site.method}() uses {problems[0]}; every "
                "result-affecting draw must derive from "
                "repro.sim.rng.RandomStreams"))

    # ---- half B: policy fused/fallback coverage ----------------------
    policies_mod = index.modules.get(_POLICIES_RELPATH)
    batch = index.modules.get(_BATCH_RELPATH)
    if policies_mod is None or batch is None:
        return findings

    registered: Dict[str, int] = {}
    for stmt in policies_mod.tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            target = stmt.targets[0] if isinstance(stmt, ast.Assign) \
                else stmt.target
            value = stmt.value
            if isinstance(target, ast.Name) and \
                    target.id in _POLICY_REGISTRIES and \
                    isinstance(value, ast.Dict):
                for v in value.values:
                    if isinstance(v, ast.Name):
                        registered[v.id] = v.lineno

    fused = _module_tuple_names(batch, _FUSED_DECL) or set()

    declared, decl_line = _module_declaration(batch, _FALLBACK_DECL)
    if declared is None:
        findings.append(_finding(
            batch.path, decl_line, 0, "RPR009",
            f"sim/batch.py must declare {_FALLBACK_DECL} as a literal "
            "dict naming each RNG-consuming policy that deliberately "
            "falls back to the scalar engine, with the reason"))
        declared = {}

    consumes: Dict[str, bool] = {}
    for cls in registered:
        start: Set[str] = set()
        for c in index.mro(cls):
            for m in index.classes[c].methods:
                start.add(f"{c}.{m}")
        seen: Set[str] = set()
        queue = list(start)
        drew = False
        while queue and not drew:
            key = queue.pop()
            if key in seen:
                continue
            seen.add(key)
            if index.has_draw.get(key):
                drew = True
                break
            queue.extend(index.edges.get(key, ()))
        consumes[cls] = drew

    for cls, reason in sorted(declared.items()):
        if cls not in registered:
            findings.append(_finding(
                batch.path, decl_line, 0, "RPR009",
                f"stale {_FALLBACK_DECL} entry {cls!r}: not a "
                "registered policy"))
            continue
        if not reason.strip():
            findings.append(_finding(
                batch.path, decl_line, 0, "RPR009",
                f"{_FALLBACK_DECL} entry {cls!r} has an empty reason"))
        if cls in fused:
            findings.append(_finding(
                batch.path, decl_line, 0, "RPR009",
                f"contradictory {_FALLBACK_DECL} entry {cls!r}: the "
                "policy is fused in sim/batch.py"))

    for cls, lineno in sorted(registered.items()):
        if consumes.get(cls) and cls not in fused and cls not in declared:
            findings.append(_finding(
                policies_mod.path, lineno, 0, "RPR009",
                f"policy {cls!r} consumes scheduling RNG but has no "
                "fused batched path and is not named in sim/batch.py's "
                f"{_FALLBACK_DECL}; fuse it or declare the scalar "
                "fallback with a reason"))
    return findings


# ----------------------------------------------------------------------
# RPR010 — metrics schema parity
# ----------------------------------------------------------------------
_GOLDEN_DECL = "_GOLDEN_UNCOVERED_KEYS"


def _parse_module(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text(), filename=str(path))
    except (OSError, UnicodeDecodeError, SyntaxError):
        return None


def _class_def(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == name:
            return stmt
    return None


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _self_mutations(func: ast.FunctionDef) -> Set[str]:
    """Attributes of ``self`` assigned/augmented anywhere in ``func``,
    excluding pure method calls."""
    out: Set[str] = set()
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                out.add(target.attr)
    return out


def _col_extends(func: ast.FunctionDef) -> List[str]:
    """Names of ``self._col_*`` lists extended, in call order."""
    out: List[str] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "extend" and \
                isinstance(node.func.value, ast.Attribute) and \
                isinstance(node.func.value.value, ast.Name) and \
                node.func.value.value.id == "self" and \
                node.func.value.attr.startswith("_col_"):
            out.append(node.func.value.attr)
    return out


def _dict_literal_keys(func: ast.FunctionDef) -> List[str]:
    keys: List[str] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for k in node.keys:
                if isinstance(k, ast.Constant) and isinstance(k.value, str):
                    keys.append(k.value)
    return keys


def _golden_row_keys(goldens_dir: Path) -> Set[str]:
    keys: Set[str] = set()

    def walk(obj: object) -> None:
        if isinstance(obj, dict):
            rows = obj.get("rows")
            if isinstance(rows, list):
                for row in rows:
                    if isinstance(row, dict):
                        keys.update(k for k in row if isinstance(k, str))
            for value in obj.values():
                walk(value)
        elif isinstance(obj, list):
            for value in obj:
                walk(value)

    for path in sorted(Path(goldens_dir).glob("*.json")):
        try:
            walk(json.loads(path.read_text()))
        except (OSError, UnicodeDecodeError, ValueError):
            continue
    return keys


def check_metrics_schema_parity(
    metrics_py: Path,
    batch_py: Path,
    goldens_dir: Path,
) -> List[Finding]:
    """RPR010: the scalar fold and the batched columnar fold-back must
    produce the same summary schema, and every summary-table key must be
    pinned by at least one golden field or declared uncovered."""
    findings: List[Finding] = []
    metrics_py, batch_py = Path(metrics_py), Path(batch_py)
    tree = _parse_module(metrics_py)
    if tree is None:
        return [_finding(metrics_py, 1, 0, "RPR010",
                         "cannot parse sim/metrics.py")]

    record_cls = _class_def(tree, "PacketRecord")
    collector = _class_def(tree, "MetricsCollector")
    summary_cls = _class_def(tree, "SimulationSummary")
    if record_cls is None or collector is None or summary_cls is None:
        return [_finding(metrics_py, 1, 0, "RPR010",
                         "sim/metrics.py must define PacketRecord, "
                         "MetricsCollector and SimulationSummary")]

    record_fields = [
        stmt.target.id for stmt in record_cls.body
        if isinstance(stmt, ast.AnnAssign) and
        isinstance(stmt.target, ast.Name)
    ]

    # (a) _ROW_FIELDS mirrors PacketRecord field order.
    row_fields: Optional[List[str]] = None
    row_fields_line = collector.lineno
    for stmt in collector.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                stmt.targets[0].id == "_ROW_FIELDS":
            row_fields_line = stmt.lineno
            try:
                literal = ast.literal_eval(stmt.value)
                row_fields = [str(v) for v in literal]
            except (ValueError, SyntaxError):
                row_fields = None
    if row_fields is None:
        findings.append(_finding(
            metrics_py, row_fields_line, 0, "RPR010",
            "MetricsCollector._ROW_FIELDS must be a literal tuple of "
            "column names"))
    elif row_fields != record_fields:
        findings.append(_finding(
            metrics_py, row_fields_line, 0, "RPR010",
            f"_ROW_FIELDS {tuple(row_fields)} does not match the "
            f"PacketRecord field order {tuple(record_fields)}"))

    # (b) scalar flush and batched extend_columns feed identical columns.
    flush = _method(collector, "_flush_block")
    extend = _method(collector, "extend_columns")
    n_cols = len(record_fields)
    if flush is None or extend is None:
        findings.append(_finding(
            metrics_py, collector.lineno, 0, "RPR010",
            "MetricsCollector must define both _flush_block (scalar "
            "fold) and extend_columns (batched fold-back)"))
    else:
        scalar_cols = _col_extends(flush)
        batched_cols = _col_extends(extend)
        if scalar_cols != batched_cols:
            missing = sorted(set(scalar_cols) ^ set(batched_cols))
            findings.append(_finding(
                metrics_py, extend.lineno, 0, "RPR010",
                "scalar fold (_flush_block) and batched fold-back "
                f"(extend_columns) extend different columns: "
                f"{missing} differ"))
        extend_params = [a.arg for a in extend.args.args[1:]]
        if len(extend_params) != n_cols:
            findings.append(_finding(
                metrics_py, extend.lineno, 0, "RPR010",
                f"extend_columns takes {len(extend_params)} column "
                f"arguments but PacketRecord has {n_cols} fields"))

    # (c) counter parity: per-event hooks vs fold_batch_counts.
    on_arrival = _method(collector, "on_arrival")
    on_completion = _method(collector, "on_completion")
    fold = _method(collector, "fold_batch_counts")
    if on_arrival is not None and on_completion is not None and \
            fold is not None:
        scalar_counters = (_self_mutations(on_arrival) |
                           _self_mutations(on_completion))
        batched_counters = _self_mutations(fold)
        if scalar_counters != batched_counters:
            diff = sorted(scalar_counters ^ batched_counters)
            findings.append(_finding(
                metrics_py, fold.lineno, 0, "RPR010",
                "per-event hooks (on_arrival/on_completion) and "
                "fold_batch_counts mutate different counters: "
                f"{diff} differ"))

    # (d) summarize() constructs complete summaries.
    summary_fields: List[str] = []
    defaulted: Set[str] = set()
    for stmt in summary_cls.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            summary_fields.append(stmt.target.id)
            if stmt.value is not None:
                defaulted.add(stmt.target.id)
    summarize = _method(collector, "summarize")
    if summarize is not None:
        for node in ast.walk(summarize):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "SimulationSummary":
                passed = {kw.arg for kw in node.keywords
                          if kw.arg is not None}
                required = set(summary_fields) - defaulted
                missing = sorted(required - passed)
                if missing:
                    findings.append(_finding(
                        metrics_py, node.lineno, 0, "RPR010",
                        "summarize() builds a SimulationSummary without "
                        f"{missing}; both engines' folds flow through "
                        "this constructor, so every non-defaulted field "
                        "must be passed"))

    # (e) the batched engine calls the fold-back with full-width rows.
    batch_tree = _parse_module(batch_py)
    if batch_tree is not None:
        for node in ast.walk(batch_tree):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            n_args = len(node.args) + len(node.keywords)
            if node.func.attr == "extend_columns" and n_args != n_cols:
                findings.append(_finding(
                    batch_py, node.lineno, 0, "RPR010",
                    f"extend_columns called with {n_args} columns; the "
                    f"record schema has {n_cols}"))
            if node.func.attr == "fold_batch_counts" and n_args != 4:
                findings.append(_finding(
                    batch_py, node.lineno, 0, "RPR010",
                    f"fold_batch_counts called with {n_args} args; the "
                    "counter fold takes 4"))

    # (f) every summary-table key is golden-covered or declared.
    declared: Dict[str, str] = {}
    decl_line = 1
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                stmt.targets[0].id == _GOLDEN_DECL:
            decl_line = stmt.lineno
            try:
                literal = ast.literal_eval(stmt.value)
            except (ValueError, SyntaxError):
                literal = None
            if isinstance(literal, dict):
                declared = {str(k): str(v) for k, v in literal.items()}
            break
    else:
        findings.append(_finding(
            metrics_py, 1, 0, "RPR010",
            f"sim/metrics.py must declare {_GOLDEN_DECL}: a literal dict "
            "naming each summary-table key no golden pins, with the "
            "reason it stays unpinned"))

    golden_keys = _golden_row_keys(goldens_dir)
    table_keys: List[Tuple[str, int]] = []
    for method_name in ("row", "reordering_row"):
        method = _method(summary_cls, method_name)
        if method is not None:
            for key in _dict_literal_keys(method):
                table_keys.append((key, method.lineno))
    for key, lineno in table_keys:
        if key not in golden_keys and key not in declared:
            findings.append(_finding(
                metrics_py, lineno, 0, "RPR010",
                f"summary key {key!r} appears in no golden field and is "
                f"not declared in {_GOLDEN_DECL}; an unpinned key is an "
                "unchecked metric"))
    produced = {k for k, _ in table_keys}
    for key, reason in sorted(declared.items()):
        if key not in produced:
            findings.append(_finding(
                metrics_py, decl_line, 0, "RPR010",
                f"stale {_GOLDEN_DECL} entry {key!r}: no summary table "
                "produces this key"))
        elif key in golden_keys:
            findings.append(_finding(
                metrics_py, decl_line, 0, "RPR010",
                f"stale {_GOLDEN_DECL} entry {key!r}: the goldens do "
                "cover this key now"))
        if not reason.strip():
            findings.append(_finding(
                metrics_py, decl_line, 0, "RPR010",
                f"{_GOLDEN_DECL} entry {key!r} has an empty reason"))
    return findings
