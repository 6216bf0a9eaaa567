"""Reference summariser: a second ``ast.NodeVisitor`` walk per module.

Before the summariser became a participant of the rule walker's one
walk, :func:`repro.devtools.analysis.summaries.summarize_module` walked
each module again with this visitor, which keeps its own scope,
function-record and lock stacks.  ``_Summarizer`` and
``summarize_module`` are kept verbatim as the oracle of
``test_summary_differential.py``: the one-walk summariser must give
byte-identical summaries.  The helpers that did not change are imported
from ``src/``; the executor table is ``reference_prepasses``' walker.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.devtools.analysis.summaries import (
    ANALYSIS_VERSION,
    _CONSTRUCTION_METHODS,
    _MUTATING_METHODS,
    _FunctionRecord,
    _iter_components,
    _lockish,
    _module_globals,
    _range_len_target,
    _resolve_relative,
    module_name_for,
)
from repro.devtools.registry import (
    attr_name,
    call_name,
    dotted_name,
    walk_module,
)
from repro.devtools.rules.determinism import (
    _CLOCK_SUFFIXES,
    _NP_GLOBAL_FNS,
    _numpy_aliases,
    _unordered_core,
)

from tests.devtools import reference_prepasses

_UNSEEDED_BIT_GENERATORS = frozenset(
    {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
)


def _executor_kinds(nodes: List[ast.AST]) -> Dict[str, str]:
    """The summariser's executor table (``reference_prepasses``' walker
    over the tree, which ``walk_module`` lists first)."""
    return reference_prepasses._executor_kinds(nodes[0])


class _Summarizer(ast.NodeVisitor):
    def __init__(self, module: str, is_package: bool, tree: ast.Module,
                 hot_names: Tuple[str, ...], nodes: List[ast.AST],
                 numpy_aliases: Tuple[Set[str], Set[str]]):
        self.module = module
        self.is_package = is_package
        self.hot_names = frozenset(hot_names)
        self.imports: Dict[str, str] = {}
        self.defs: List[str] = []
        self.classes: List[str] = []
        self.globals = _module_globals(tree)
        self.functions: List[_FunctionRecord] = []
        self._np_modules, self._np_random = numpy_aliases
        self._pools = _executor_kinds(nodes)
        self._scope: List[Tuple[str, str]] = []   # (kind, name)
        self._fn_stack: List[_FunctionRecord] = []
        self._lock_stack: List[str] = []          # all lock-guard withs
        self._sync_lock_stack: List[str] = []     # sync (non-async) only
        #: Generator expressions feeding ``np.fromiter(...)`` — that is
        #: the sanctioned array-construction pass, not a scalar loop.
        self._fromiter_genexps: set = set()

    # -- naming helpers -------------------------------------------------
    def _qualname(self, name: str) -> str:
        return ".".join([n for _, n in self._scope] + [name])

    def _current_class(self) -> Optional[str]:
        for kind, name in reversed(self._scope):
            if kind == "class":
                return name
        return None

    def _fn(self) -> Optional[_FunctionRecord]:
        return self._fn_stack[-1] if self._fn_stack else None

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.imports[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.imports.setdefault(root, root)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level > 0:
            base = _resolve_relative(self.module, self.is_package,
                                     node.level, node.module)
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            target = f"{base}.{alias.name}" if base else alias.name
            self.imports[alias.asname or alias.name] = target
        self.generic_visit(node)

    # -- scopes ---------------------------------------------------------
    def _visit_function(self, node, is_async: bool) -> None:
        record = _FunctionRecord(self._qualname(node.name), node.lineno,
                                 is_async)
        self.defs.append(record.qualname)
        self.functions.append(record)
        self._scope.append(("function", node.name))
        self._fn_stack.append(record)
        self.generic_visit(node)
        self._fn_stack.pop()
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, is_async=True)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(self._qualname(node.name))
        self._scope.append(("class", node.name))
        self.generic_visit(node)
        self._scope.pop()

    def visit_Global(self, node: ast.Global) -> None:
        fn = self._fn()
        if fn is not None:
            fn.global_decls.update(node.names)
        self.generic_visit(node)

    # -- locks / awaits -------------------------------------------------
    def _visit_with(self, node, is_async: bool) -> None:
        locks = [desc for item in node.items
                 for desc in [_lockish(item.context_expr)] if desc]
        for desc in locks:
            self._lock_stack.append(desc)
            if not is_async:
                self._sync_lock_stack.append(desc)
        self.generic_visit(node)
        for desc in locks:
            self._lock_stack.pop()
            if not is_async:
                self._sync_lock_stack.pop()

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node, is_async=False)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node, is_async=True)

    def visit_Await(self, node: ast.Await) -> None:
        fn = self._fn()
        if fn is not None and self._sync_lock_stack:
            fn.lock_awaits.append([node.lineno, self._sync_lock_stack[-1]])
        self.generic_visit(node)

    # -- returns (unordered-iteration escape) ---------------------------
    def visit_Return(self, node: ast.Return) -> None:
        fn = self._fn()
        if fn is not None and node.value is not None:
            core = _unordered_core(node.value)
            if core is not None:
                desc = dotted_name(core)
                if desc is None and isinstance(core, ast.Call):
                    desc = call_name(core) or attr_name(core) or "set"
                elif desc is None:
                    desc = "set"
                fn.sources.append(
                    ["unordered", f"returns {desc} iteration order",
                     node.lineno])
        self.generic_visit(node)

    # -- loops ----------------------------------------------------------
    def _record_loop(self, iterable: ast.AST, lineno: int) -> None:
        fn = self._fn()
        if fn is None:
            return
        target = _range_len_target(iterable)
        if target is not None:
            fn.loops.append([f"range(len({target}))", lineno, "rangelen"])
            return
        desc, parts = _iter_components(iterable)
        if desc and any(part.lower() in self.hot_names for part in parts):
            fn.loops.append([desc, lineno, "hot"])

    def visit_For(self, node: ast.For) -> None:
        self._record_loop(node.iter, node.lineno)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._record_loop(node.iter, node.lineno)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        if id(node) not in self._fromiter_genexps:
            self._record_loop(node.generators[0].iter, node.lineno)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- mutations ------------------------------------------------------
    def _state_key(self, target: ast.AST,
                   rebinding: bool) -> Optional[str]:
        """``global:NAME`` / ``self:Class.attr`` for a mutation target."""
        fn = self._fn()
        if isinstance(target, ast.Name):
            if fn is not None and target.id in fn.global_decls:
                return f"global:{target.id}"
            if not rebinding and target.id in self.globals:
                # In-place mutation (subscript/method) of a module
                # global needs no `global` declaration.
                return f"global:{target.id}"
            return None
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            cls = self._current_class()
            if cls is None:
                return None
            leaf = (fn.qualname.rsplit(".", 1)[-1]
                    if fn is not None else "")
            if rebinding and leaf in _CONSTRUCTION_METHODS:
                return None
            return f"self:{cls}.{target.attr}"
        return None

    def _record_mutation(self, key: Optional[str], lineno: int) -> None:
        fn = self._fn()
        if fn is None or key is None:
            return
        guarded = 1 if self._lock_stack else 0
        fn.mutations.append([key, lineno, guarded])

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._record_mutation(
                    self._state_key(target.value, rebinding=False),
                    node.lineno)
            else:
                self._record_mutation(
                    self._state_key(target, rebinding=True), node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Subscript):
            key = self._state_key(target.value, rebinding=False)
        else:
            key = self._state_key(target, rebinding=True)
        self._record_mutation(key, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._record_mutation(
                    self._state_key(target.value, rebinding=False),
                    node.lineno)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------
    def _classify_rng(self, name: str, nargs: int) -> Optional[str]:
        parts = name.split(".")
        fn = None
        if (len(parts) == 3 and parts[0] in self._np_modules
                and parts[1] == "random"):
            fn = parts[2]
        elif len(parts) == 2 and parts[0] in self._np_random:
            fn = parts[1]
        if fn in _NP_GLOBAL_FNS:
            return f"{name} (numpy global RNG)"
        if fn == "default_rng" and nargs == 0:
            return f"{name}() without a seed"
        if fn in _UNSEEDED_BIT_GENERATORS and nargs == 0:
            return f"{name}() without a seed"
        # stdlib random through the import alias map
        expanded = self._expand(name)
        if expanded == "random" or expanded.startswith("random."):
            return f"{name} (stdlib random)"
        return None

    def _classify_clock(self, name: str) -> Optional[str]:
        # The alias map turns `from time import time` into `time.time`,
        # so (unlike the per-file DET003 bare-name heuristic) a local
        # helper that happens to be called `time` is not a source.
        expanded = self._expand(name)
        for candidate in (name, expanded):
            if any(candidate == suffix or candidate.endswith("." + suffix)
                   for suffix in _CLOCK_SUFFIXES):
                return name
        return None

    def _expand(self, name: str) -> str:
        parts = name.split(".")
        target = self.imports.get(parts[0])
        if target is None:
            return name
        return ".".join([target] + parts[1:])

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._fn()
        name = call_name(node)
        if fn is not None and name is not None:
            nargs = len(node.args) + len(node.keywords)
            fn.calls.append([name, node.lineno, nargs])
            rng = self._classify_rng(name, nargs)
            if rng is not None:
                fn.sources.append(["rng", rng, node.lineno])
            else:
                clock = self._classify_clock(name)
                if clock is not None:
                    fn.sources.append(
                        ["clock", f"{clock}(...)", node.lineno])
        if fn is not None:
            self._record_executor_ref(node, name, fn)
            self._record_method_mutation(node, fn)
        if name is not None and name.endswith("fromiter"):
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    self._fromiter_genexps.add(id(arg))
        self.generic_visit(node)

    def _record_executor_ref(self, node: ast.Call, name: Optional[str],
                             fn: _FunctionRecord) -> None:
        # loop.run_in_executor(executor, callee, *args)
        if name is not None and name.endswith("run_in_executor") \
                and len(node.args) >= 2:
            callee = dotted_name(node.args[1])
            if callee:
                receiver = dotted_name(node.args[0])
                kind = self._pools.get(receiver or "", "thread")
                fn.executor_refs.append([kind, callee, node.lineno])
            return
        attribute = attr_name(node)
        if attribute in {"submit", "map"} and node.args:
            receiver = dotted_name(node.func.value)  # type: ignore
            kind = None
            if receiver in self._pools:
                kind = self._pools[receiver]
            elif isinstance(node.func.value, ast.Call):  # type: ignore
                inline = call_name(node.func.value) or ""  # type: ignore
                if inline.endswith("ProcessPoolExecutor"):
                    kind = "process"
                elif inline.endswith("ThreadPoolExecutor"):
                    kind = "thread"
            if kind is not None:
                callee = dotted_name(node.args[0])
                if callee:
                    fn.executor_refs.append([kind, callee, node.lineno])
            return
        # ProcessPoolExecutor(initializer=fn): sanctioned per-worker
        # priming — recorded with its own kind so CONC003 can skip it.
        if name is not None and name.endswith("ProcessPoolExecutor"):
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    callee = dotted_name(keyword.value)
                    if callee:
                        fn.executor_refs.append(
                            ["process_init", callee, node.lineno])

    def _record_method_mutation(self, node: ast.Call,
                                fn: _FunctionRecord) -> None:
        attribute = attr_name(node)
        if attribute not in _MUTATING_METHODS:
            return
        receiver = node.func.value  # type: ignore[union-attr]
        key = self._state_key(receiver, rebinding=False)
        self._record_mutation(key, node.lineno)


def summarize_module(relpath: str, tree: ast.Module,
                     hot_names: Tuple[str, ...],
                     module: Optional[Tuple[str, bool]] = None,
                     nodes: Optional[List[ast.AST]] = None,
                     numpy_aliases: Optional[Tuple[Set[str], Set[str]]]
                     = None) -> Dict[str, Any]:
    """The analysis summary of one parsed module (see module docstring).

    ``module`` is :func:`module_name_for`'s answer for ``relpath``,
    ``nodes`` :func:`~repro.devtools.registry.walk_module`'s list for
    ``tree`` and ``numpy_aliases`` the module's numpy aliases; the lint
    passes the ones its module rules used, and each is derived when not
    given.
    """
    module, is_package = module or module_name_for(Path(relpath))
    if nodes is None:
        nodes = walk_module(tree)
    if numpy_aliases is None:
        numpy_aliases = _numpy_aliases(nodes)
    visitor = _Summarizer(module, is_package, tree, hot_names, nodes,
                          numpy_aliases)
    visitor.visit(tree)
    return {
        "analysis_version": ANALYSIS_VERSION,
        "module": module,
        "path": relpath,
        "imports": dict(sorted(visitor.imports.items())),
        "defs": visitor.defs,
        "classes": visitor.classes,
        "module_globals": visitor.globals,
        "functions": [record.as_dict() for record in visitor.functions],
    }
