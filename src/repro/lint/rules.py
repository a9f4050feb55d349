"""Per-file AST rules: RPR001 (determinism), RPR002 (ordering),
RPR003 (units), RPR006 (pickle-safe process targets), RPR007
(no per-event scalar dispatch in batched hot-path modules).

Each rule is an :class:`ast.NodeVisitor` producing :class:`Finding`
objects.  They share :class:`ImportTable`, a whole-module import-alias
resolver, so ``np.random.default_rng`` and
``from numpy.random import default_rng`` are recognized as the same call
target.

Design notes
------------
RPR001 flags *calls* into ``numpy.random`` (constructing or drawing
randomness), not mere attribute references: annotations and
``isinstance(rng, np.random.Generator)`` checks are legitimate.  The
stdlib ``random`` module is banned at import, since the package never has
a reason to touch it.  Wall-clock reads are banned only in
result-affecting code (the CLI and runner legitimately time themselves).

RPR002 tracks set-valued *local names* per scope (not just literal
``for x in {...}``), so the real-world pattern ``procs = {...}; for p in
procs:`` is caught.  ``sorted(...)`` around the source clears the hazard.

RPR003 checks names at binding sites only (parameters, assignment
targets, loop targets, fields) — call sites inherit discipline from their
definitions — and flags ``+``/``-`` between operands whose names carry
*different* unit suffixes.

RPR007 guards the batched engine's reason to exist: inside the modules
listed in ``HOT_PATH_BATCH_RELPATHS``, a call to one of the per-event
scalar APIs (``component_penalty_us``, ``schedule_call``, the metrics
hooks, ...) is flagged even though it would be perfectly *correct* — one
scalar model call or calendar insertion per packet quietly reverts the
array core to per-event dispatch, which no functional test can catch.
Matched by attribute/function name (the hot-path modules are few and
idiomatic, so name matching is precise there); legitimate exceptions
carry a suppression comment explaining why.

RPR013 protects the lease coordinator's injectable clock seam: inside
the modules listed in ``CLOCK_SEAM_RELPATHS`` (lease bookkeeping,
transport, coordinator loop), *calling* a wall-clock function directly is
flagged — lease-expiry arithmetic must flow through the clock passed via
``DistributedOptions.clock``, so tests can drive time with a fake and
chaos runs replay without sleeping.  Referencing ``time.monotonic``
without calling it (the seam's default value) is deliberately allowed.

RPR006 keeps worker entrypoints pickle-safe: the ``target=`` of a
``Process(...)`` or ``<ctx>.Process(...)`` call must be a module-level
function.  A lambda or a function nested inside another function cannot
be pickled to a worker — with the fork start method it may appear to
work locally and then break under spawn.  The callee is matched by name
(``Process``, bare or as an attribute), which covers
``multiprocessing.Process`` and every start-method context's
``ctx.Process`` without needing type inference.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Union

from .config import (
    FORBIDDEN_WALLCLOCK,
    HOT_PATH_SCALAR_CALLS,
    NUMPY_RANDOM_PREFIX,
    TIME_WORDS,
    UNIT_SUFFIXES,
    UNITLESS_SUFFIXES,
)
from .findings import Finding

__all__ = [
    "ImportTable",
    "ClockSeamRule",
    "DeterminismRule",
    "HotPathBatchRule",
    "OrderingRule",
    "PickleSafetyRule",
    "UnitsRule",
    "run_file_rules",
]

#: numpy.random attributes that are types/infrastructure, not draws.
_NUMPY_RANDOM_TYPES = frozenset({
    "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


class ImportTable:
    """Alias -> dotted module/attribute path for one module's imports."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.aliases[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        self.aliases[top] = top
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module is not None:
                for alias in node.names:
                    bound = alias.asname if alias.asname is not None else alias.name
                    self.aliases[bound] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted path of a Name/Attribute chain, through import aliases."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


class _BaseRule(ast.NodeVisitor):
    def __init__(self, path: str, imports: ImportTable,
                 result_affecting: bool, rng_exempt: bool) -> None:
        self.path = path
        self.imports = imports
        self.result_affecting = result_affecting
        self.rng_exempt = rng_exempt
        self.findings: List[Finding] = []

    def emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        ))


# ----------------------------------------------------------------------
# RPR001 — determinism
# ----------------------------------------------------------------------
class DeterminismRule(_BaseRule):
    """Forbid ambient randomness everywhere and wall clocks in
    result-affecting code."""

    def visit_Import(self, node: ast.Import) -> None:
        if not self.rng_exempt:
            for alias in node.names:
                top = alias.name.split(".", 1)[0]
                if top == "random":
                    self.emit(node, "RPR001",
                              "import of the stdlib `random` module; draw from "
                              "a seeded generator via repro.sim.rng instead")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.rng_exempt and node.level == 0 and node.module is not None:
            module = node.module
            if module == "random" or module.startswith("random."):
                self.emit(node, "RPR001",
                          "import from the stdlib `random` module; draw from "
                          "a seeded generator via repro.sim.rng instead")
            elif module == NUMPY_RANDOM_PREFIX or \
                    module.startswith(NUMPY_RANDOM_PREFIX + "."):
                drawn = [a.name for a in node.names
                         if a.name not in _NUMPY_RANDOM_TYPES]
                if drawn:
                    self.emit(node, "RPR001",
                              f"import of numpy.random draw function(s) "
                              f"{', '.join(sorted(drawn))} outside repro.sim.rng")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.imports.resolve(node.func)
        if resolved is not None:
            if not self.rng_exempt and (
                resolved.startswith(NUMPY_RANDOM_PREFIX + ".")
                and resolved.rsplit(".", 1)[1] not in _NUMPY_RANDOM_TYPES
            ):
                self.emit(node, "RPR001",
                          f"call to {resolved} constructs/draws NumPy "
                          "randomness outside repro.sim.rng")
            elif not self.rng_exempt and resolved.startswith("random."):
                self.emit(node, "RPR001",
                          f"call to stdlib {resolved}; use a seeded generator "
                          "from repro.sim.rng")
            elif self.result_affecting and resolved in FORBIDDEN_WALLCLOCK:
                self.emit(node, "RPR001",
                          f"call to {resolved} reads the host clock/entropy "
                          "inside result-affecting code")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR002 — ordering hazards
# ----------------------------------------------------------------------
_FS_LISTING_CALLS = frozenset({
    "os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob",
})
_FS_LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})


#: Builtins whose result does not depend on argument iteration order —
#: iterating an unordered source directly inside them is safe.
_ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all",
})


class OrderingRule(_BaseRule):
    """Flag iteration over unordered sources in result-affecting code."""

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        #: stack of per-scope maps: name -> True if last bound to a set.
        self._scopes: List[Dict[str, bool]] = [{}]
        #: >0 while visiting args of sorted()/set()/sum()/... calls.
        self._order_insensitive_depth = 0

    # -- scope management ------------------------------------------------
    def _enter_scope(self) -> None:
        self._scopes.append({})

    def _exit_scope(self) -> None:
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    # -- set-expression detection ---------------------------------------
    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.Name):
            return self._scopes[-1].get(node.id, False)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _bind(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        if isinstance(target, ast.Name):
            is_set = value is not None and self._is_set_expr(value)
            self._scopes[-1][target.id] = is_set
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and \
                    len(value.elts) == len(target.elts):
                for t, v in zip(target.elts, value.elts):
                    self._bind(t, v)
            else:
                for t in target.elts:
                    self._bind(t, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._bind(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._bind(node.target, node.value)

    # -- iteration checks ------------------------------------------------
    def _hazard(self, iter_node: ast.expr) -> Optional[str]:
        if not self.result_affecting:
            return None
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            return "iteration over a set literal/comprehension"
        if isinstance(iter_node, ast.Call):
            func = iter_node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"iteration over {func.id}(...)"
            resolved = self.imports.resolve(func)
            if resolved in _FS_LISTING_CALLS:
                return f"iteration over {resolved}(...) (directory order is " \
                       "filesystem-dependent)"
            if isinstance(func, ast.Attribute) and \
                    func.attr in _FS_LISTING_METHODS:
                return f"iteration over .{func.attr}(...) (directory order " \
                       "is filesystem-dependent)"
        if isinstance(iter_node, ast.Name) and \
                self._scopes[-1].get(iter_node.id, False):
            return f"iteration over set-valued name {iter_node.id!r}"
        if isinstance(iter_node, ast.BinOp) and self._is_set_expr(iter_node):
            return "iteration over a set expression"
        return None

    def _check_iter(self, iter_node: ast.expr) -> None:
        if self._order_insensitive_depth > 0:
            return
        reason = self._hazard(iter_node)
        if reason is not None:
            self.emit(iter_node, "RPR002",
                      f"{reason}; wrap in sorted(...) to fix the order")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)
        self._bind(node.target, None)

    def _visit_comprehension(self, node: Union[
            ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp]) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        # set.pop() removes an arbitrary element.
        if self.result_affecting and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "pop" and not node.args \
                and isinstance(node.func.value, ast.Name) \
                and self._scopes[-1].get(node.func.value.id, False):
            self.emit(node, "RPR002",
                      f"{node.func.value.id}.pop() removes an arbitrary "
                      "set element")
        if isinstance(node.func, ast.Name) and \
                node.func.id in _ORDER_INSENSITIVE_CONSUMERS:
            self._order_insensitive_depth += 1
            self.generic_visit(node)
            self._order_insensitive_depth -= 1
        else:
            self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR003 — units discipline
# ----------------------------------------------------------------------
def _time_word_in(name: str) -> Optional[str]:
    for comp in name.lower().split("_"):
        for word in TIME_WORDS:
            if comp == word or comp == word + "s":
                return word
    return None


def _has_unit_suffix(name: str) -> bool:
    lowered = name.lower()
    return lowered.endswith(UNIT_SUFFIXES) or lowered.endswith(UNITLESS_SUFFIXES)


def _unit_of_name(name: str) -> Optional[str]:
    lowered = name.lower()
    for suffix in sorted(UNIT_SUFFIXES, key=len, reverse=True):
        if lowered.endswith(suffix):
            return suffix
    return None


class UnitsRule(_BaseRule):
    """Time-valued names must carry unit suffixes; +/- must not mix them."""

    _SKIP_NAMES = frozenset({"self", "cls", "_"})

    def _check_name(self, name: str, node: ast.AST) -> None:
        if not self.result_affecting or name in self._SKIP_NAMES:
            return
        word = _time_word_in(name)
        if word is not None and not _has_unit_suffix(name):
            self.emit(node, "RPR003",
                      f"time-valued name {name!r} (contains {word!r}) lacks a "
                      f"unit suffix; rename to e.g. {name}_us")

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._check_name(target.id, target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt)
        elif isinstance(target, ast.Starred):
            self._check_target(target.value)

    # -- binding sites ---------------------------------------------------
    def _check_args(self, args: ast.arguments) -> None:
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                every.append(extra)
        for arg in every:
            self._check_name(arg.arg, arg)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_args(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_args(node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_args(node.args)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def _visit_comprehension(self, node: Union[
            ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp]) -> None:
        for gen in node.generators:
            self._check_target(gen.target)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- mixed-unit arithmetic ------------------------------------------
    def _operand_unit(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return _unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return _unit_of_name(node.attr)
        return None

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.result_affecting and isinstance(node.op, (ast.Add, ast.Sub)):
            left = self._operand_unit(node.left)
            right = self._operand_unit(node.right)
            if left is not None and right is not None and left != right:
                self.emit(node, "RPR003",
                          f"arithmetic mixes unit suffixes {left!r} and "
                          f"{right!r}; convert explicitly first")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR006 — pickle-safe process targets
# ----------------------------------------------------------------------
class PickleSafetyRule(_BaseRule):
    """``Process(target=...)`` targets must be module-level functions
    (lambdas and nested defs cannot be pickled to a worker)."""

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        #: names of functions defined inside another function's body.
        self._nested_defs: Set[str] = set()

    def visit_Module(self, node: ast.Module) -> None:
        self._collect_nested(node, inside_function=False)
        self.generic_visit(node)

    def _collect_nested(self, node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    self._nested_defs.add(child.name)
                self._collect_nested(child, True)
            else:
                self._collect_nested(child, inside_function)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = (func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute) else None)
        if callee == "Process":
            for kw in node.keywords:
                if kw.arg != "target":
                    continue
                if isinstance(kw.value, ast.Lambda):
                    self.emit(node, "RPR006",
                              "lambda passed as Process(target=...); worker "
                              "processes can only unpickle module-level "
                              "functions")
                elif isinstance(kw.value, ast.Name) and \
                        kw.value.id in self._nested_defs:
                    self.emit(node, "RPR006",
                              f"nested function {kw.value.id!r} passed as "
                              "Process(target=...); move it to module level "
                              "so worker processes can unpickle it")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR007 — no per-event scalar dispatch in batched hot-path modules
# ----------------------------------------------------------------------
class HotPathBatchRule(_BaseRule):
    """Flag calls to per-event scalar APIs inside modules whose purpose
    is batched/array execution (``HOT_PATH_BATCH_RELPATHS``).

    A per-packet ``model.component_penalty_us(...)`` or
    ``sim.schedule_call(...)`` in the fused core is functionally
    indistinguishable from the batch path (bit-identity is the core's
    contract), so only a structural rule can keep the O(events) Python
    dispatch from creeping back in.
    """

    _BANNED = frozenset(HOT_PATH_SCALAR_CALLS)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name in self._BANNED:
            self.emit(node, "RPR007",
                      f"per-event scalar call {name}() in a batched hot-path "
                      "module; resolve penalties with the inline memo ladder "
                      "and the model's penalty_fill() kernel, fold metrics "
                      "with extend_columns/"
                      "fold_batch_counts, or fold wholesale at the end of "
                      "the run")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR013 — injectable clock seam in the coordinator/lease logic
# ----------------------------------------------------------------------
class ClockSeamRule(_BaseRule):
    """Flag direct wall-clock *calls* inside the distributed backend's
    time-sensitive modules (``CLOCK_SEAM_RELPATHS``).

    Lease expiry is arithmetic over timestamps; if any of it reads
    ``time.monotonic()`` inline, unit tests must sleep real seconds to
    see an expiry and a chaos replay's timing depends on the host.  All
    time must enter through the injected clock (``DistributedOptions
    .clock`` / the ``LeaseTable`` clock argument).  Only ``ast.Call``
    nodes are flagged: passing ``time.monotonic`` *by reference* as the
    seam's default is the sanctioned idiom.
    """

    _BANNED = frozenset(FORBIDDEN_WALLCLOCK)

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.imports.resolve(node.func)
        if resolved is not None and resolved in self._BANNED:
            self.emit(node, "RPR013",
                      f"direct wall-clock call {resolved}() in "
                      "coordinator/lease logic; route time through the "
                      "injectable clock seam (DistributedOptions.clock) so "
                      "lease expiry is testable with a fake clock and chaos "
                      "runs replay without real sleeps")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Driver for one file
# ----------------------------------------------------------------------
def run_file_rules(path: str, source: str, *, result_affecting: bool,
                   rng_exempt: bool, hot_path: bool = False,
                   clock_seam: bool = False,
                   tree: Optional[ast.Module] = None) -> List[Finding]:
    """Run every per-file rule; syntax errors become a single
    pseudo-finding so a broken file fails loudly rather than silently
    passing.  ``tree`` lets the engine pass an already-parsed AST so each
    file is parsed exactly once across all rules."""
    if tree is None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [Finding(path=path, line=exc.lineno or 1,
                            col=(exc.offset or 1) - 1, code="RPR000",
                            message=f"syntax error: {exc.msg}")]
    imports = ImportTable(tree)
    findings: List[Finding] = []
    rule_classes: List[type] = [DeterminismRule, OrderingRule, UnitsRule,
                                PickleSafetyRule]
    if hot_path:
        rule_classes.append(HotPathBatchRule)
    if clock_seam:
        rule_classes.append(ClockSeamRule)
    for rule_cls in rule_classes:
        rule = rule_cls(path, imports, result_affecting, rng_exempt)
        rule.visit(tree)
        findings.extend(rule.findings)
    return findings
