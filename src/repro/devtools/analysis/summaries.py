"""Per-module analysis summaries — the unit of whole-program linting.

One :func:`summarize_module` call distils a parsed module into a plain
JSON-able dict of the facts the interprocedural rules need:

* **namespace** — the functions/classes the module defines (dotted
  qualnames, ``Class.method`` / ``outer.inner``), its import alias map
  (with relative imports resolved against the module name), and its
  top-level mutable-looking globals;
* **call edges** — every dotted-callee call each function makes, plus
  the callables it hands to thread/process executors;
* **taint facts** — nondeterminism sources per function (unseeded RNG
  including bare ``PCG64()``-style bit generators the per-file DET001
  rule cannot see, wall-clock/entropy reads, ``return``-ed set/dict-view
  ordering);
* **perf facts** — per-element loops over corpus/route/topology-shaped
  structures and ``range(len(...))`` index walks;
* **concurrency facts** — mutations of module-level or instance state
  (with or without a ``with <lock>:`` guard) and ``await`` expressions
  evaluated while a *synchronous* lock is held.

Summaries are pure values: byte-stable under ``json.dumps(sort_keys)``
and a function of (source, ANALYSIS_VERSION, extraction config), which
is exactly what makes the on-disk module cache sound.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.engine import Walker
from repro.devtools.registry import (
    attr_name,
    call_name,
    dotted_name,
    parent_of,
    walk_module,
)
# Shared with the per-file rules so both layers agree on what counts
# as a nondeterminism source and on which names hold which executor.
from repro.devtools.rules.determinism import (
    _clock_call,
    _numpy_aliases,
    _numpy_rng_call,
    _unordered_core,
)
from repro.devtools.rules.pickling import (
    _FUNCTION_TYPES,
    _executor_bindings,
    _executor_kind,
    _pool_kind,
)

#: The module cache's entry layout version.  Edits to extraction or to
#: any rule need no bump: the cache key's code digest covers them.
ANALYSIS_VERSION = 2

#: Method calls that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "add", "update", "pop", "popitem", "clear", "extend",
    "insert", "remove", "discard", "setdefault", "move_to_end",
    "appendleft", "popleft", "sort", "reverse",
})

#: Constructors whose callee name marks a lock object.
_LOCK_NAME_MARKER = "lock"

#: ``self.x = ...`` inside these methods is object construction, not a
#: shared-state mutation (nothing else can see the instance yet).
_CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def module_name_for(path: Path) -> Tuple[str, bool]:
    """``(dotted module name, is_package)`` for a python file.

    Walks up through ``__init__.py``-bearing directories so the name
    matches what ``import`` would bind — ``src/repro/pipeline/cache.py``
    becomes ``repro.pipeline.cache`` without hardcoding any layout.
    """
    path = Path(path)
    is_package = path.name == "__init__.py"
    parts: List[str] = [] if is_package else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:  # a stray __init__.py with no package parent
        parts = [path.parent.name]
    return ".".join(parts), is_package


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: Optional[str]) -> str:
    """Absolute dotted target of a ``from ...x import y`` statement."""
    base = module.split(".")
    if not is_package:
        base = base[:-1]
    drop = level - 1
    if drop:
        base = base[:len(base) - drop] if drop < len(base) else []
    prefix = ".".join(base)
    if target:
        return f"{prefix}.{target}" if prefix else target
    return prefix


def _lockish(expr: ast.AST) -> Optional[str]:
    """A description of ``expr`` when it looks like a lock, else None.

    Matches by name: any Name/Attribute chain or call whose dotted name
    contains ``lock`` (``self._lock``, ``asyncio.Lock()``,
    ``EntryLock(root, key)``, ``cache.entry_lock(k)``).
    """
    name = dotted_name(expr)
    if name is None and isinstance(expr, ast.Call):
        name = call_name(expr)
    if name is not None and _LOCK_NAME_MARKER in name.lower():
        return name
    return None


def _held_locks(node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """``(with statement, lock description)`` for every lock the
    ``with``/``async with`` blocks around ``node`` hold, innermost first
    (within one statement, last item first), along the parent links of
    :func:`walk_module` and across defs: a def in a ``with lock:`` body
    runs under it."""
    parent = parent_of(node)
    while parent is not None:
        if isinstance(parent, (ast.With, ast.AsyncWith)):
            for item in reversed(parent.items):
                desc = _lockish(item.context_expr)
                if desc:
                    yield parent, desc
        parent = parent_of(parent)


def _iter_components(expr: ast.AST) -> Tuple[Optional[str], List[str]]:
    """``(description, name components)`` of a loop's iterable.

    Descends ``.items()/.values()/.keys()`` calls to their receiver so
    ``corpus.paths.items()`` yields components ``[corpus, paths]``.
    """
    suffix = ""
    if isinstance(expr, ast.Call) and attr_name(expr) in {
        "items", "values", "keys"
    }:
        suffix = f".{expr.func.attr}()"
        expr = expr.func.value  # type: ignore[union-attr]
    name = dotted_name(expr)
    if name is None:
        return None, []
    parts = [part for part in name.split(".") if part != "self"]
    return name + suffix, parts


def _range_len_target(expr: ast.AST) -> Optional[str]:
    """The ``x`` of a ``range(len(x))`` iterable, else None."""
    if not (isinstance(expr, ast.Call) and call_name(expr) == "range"
            and len(expr.args) == 1):
        return None
    inner = expr.args[0]
    if (isinstance(inner, ast.Call) and call_name(inner) == "len"
            and len(inner.args) == 1):
        return dotted_name(inner.args[0]) or "<expr>"
    return None


class _FunctionRecord:
    """Mutable accumulator for one function's facts."""

    __slots__ = ("qualname", "lineno", "is_async", "calls",
                 "executor_refs", "sources", "loops", "mutations",
                 "lock_awaits", "global_decls")

    def __init__(self, qualname: str, lineno: int, is_async: bool):
        self.qualname = qualname
        self.lineno = lineno
        self.is_async = is_async
        self.calls: List[List[Any]] = []          # [name, lineno, nargs]
        self.executor_refs: List[List[Any]] = []  # [kind, callee, lineno]
        self.sources: List[List[Any]] = []        # [kind, detail, lineno]
        self.loops: List[List[Any]] = []          # [desc, lineno, kind]
        self.mutations: List[List[Any]] = []      # [state, lineno, guarded]
        self.lock_awaits: List[List[Any]] = []    # [lineno, lock desc]
        self.global_decls: set = set()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "is_async": self.is_async,
            "calls": self.calls,
            "executor_refs": self.executor_refs,
            "sources": self.sources,
            "loops": self.loops,
            "mutations": self.mutations,
            "lock_awaits": self.lock_awaits,
        }


def _module_globals(tree: ast.Module) -> List[str]:
    """Top-level names bound by assignment (module state candidates)."""
    names: List[str] = []

    def scan(body) -> None:
        for node in body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.append(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value:
                    names.append(node.target.id)
            elif isinstance(node, (ast.If, ast.Try)):
                scan(node.body)
                scan(getattr(node, "orelse", []))

    scan(tree.body)
    return sorted(set(names))


class _Summarizer:
    """One module's summary, built as an unregistered participant of
    the :class:`~repro.devtools.engine.Walker`'s walk: with the module
    rules on a lint's cache miss, alone in :func:`summarize_module`.

    The enclosing def's record, the qualname and the class come from
    ``walker.scope_stack`` (a lambda's facts go to its enclosing def);
    lock guards come from the parent links :func:`walk_module` set.
    """

    interests = (ast.Import, ast.ImportFrom, ast.FunctionDef,
                 ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Await,
                 ast.Return, ast.For, ast.AsyncFor, ast.ListComp,
                 ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Assign,
                 ast.AugAssign, ast.Delete, ast.Call)

    def __init__(self, relpath: str, tree: ast.Module,
                 hot_names: Tuple[str, ...], module: Tuple[str, bool],
                 nodes: List[ast.AST],
                 numpy_aliases: Tuple[Set[str], Set[str]]):
        self.relpath = relpath
        self.module, self.is_package = module
        self.hot_names = frozenset(hot_names)
        self.imports: Dict[str, str] = {}
        self.defs: List[str] = []
        self.classes: List[str] = []
        self.globals = _module_globals(tree)
        self.functions: List[_FunctionRecord] = []
        self._numpy_aliases = numpy_aliases
        self._pools = _executor_bindings(nodes)
        #: def node -> its record, for the defs on the scope stack.
        self._records: Dict[ast.AST, _FunctionRecord] = {}
        #: Generator expressions feeding ``np.fromiter(...)`` — that is
        #: the sanctioned array-construction pass, not a scalar loop.
        self._fromiter_genexps: set = set()
        self._handlers = {kind: getattr(self, f"visit_{kind.__name__}")
                          for kind in self.interests}

    def visit(self, node: ast.AST, ctx, walker) -> None:
        self._handlers[type(node)](node, walker.scope_stack)

    def summary(self) -> Dict[str, Any]:
        return {
            "analysis_version": ANALYSIS_VERSION,
            "module": self.module,
            "path": self.relpath,
            "imports": dict(sorted(self.imports.items())),
            "defs": self.defs,
            "classes": self.classes,
            "module_globals": self.globals,
            "functions": [record.as_dict() for record in self.functions],
        }

    # -- scope queries --------------------------------------------------
    def _fn(self, scopes: List[ast.AST]) -> Optional[_FunctionRecord]:
        """The record of the innermost enclosing def."""
        for scope in reversed(scopes):
            if isinstance(scope, _FUNCTION_TYPES):
                return self._records[scope]
        return None

    @staticmethod
    def _qualname(scopes: List[ast.AST], name: str) -> str:
        return ".".join([scope.name for scope in scopes
                         if not isinstance(scope, ast.Lambda)] + [name])

    @staticmethod
    def _current_class(scopes: List[ast.AST]) -> Optional[str]:
        for scope in reversed(scopes):
            if isinstance(scope, ast.ClassDef):
                return scope.name
        return None

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import, scopes) -> None:
        for alias in node.names:
            if alias.asname:
                self.imports[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.imports.setdefault(root, root)

    def visit_ImportFrom(self, node: ast.ImportFrom, scopes) -> None:
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

    # -- scopes ---------------------------------------------------------
    def visit_FunctionDef(self, node, scopes) -> None:
        record = _FunctionRecord(self._qualname(scopes, node.name),
                                 node.lineno,
                                 isinstance(node, ast.AsyncFunctionDef))
        self.defs.append(record.qualname)
        self.functions.append(record)
        self._records[node] = record

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef, scopes) -> None:
        self.classes.append(self._qualname(scopes, node.name))

    def visit_Global(self, node: ast.Global, scopes) -> None:
        fn = self._fn(scopes)
        if fn is not None:
            fn.global_decls.update(node.names)

    # -- awaits under a synchronous lock --------------------------------
    def visit_Await(self, node: ast.Await, scopes) -> None:
        fn = self._fn(scopes)
        if fn is None:
            return
        for statement, desc in _held_locks(node):
            if isinstance(statement, ast.With):
                fn.lock_awaits.append([node.lineno, desc])
                return

    # -- returns (unordered-iteration escape) ---------------------------
    def visit_Return(self, node: ast.Return, scopes) -> None:
        fn = self._fn(scopes)
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

    # -- loops ----------------------------------------------------------
    def _record_loop(self, fn: Optional[_FunctionRecord],
                     iterable: ast.AST, lineno: int) -> None:
        if fn is None:
            return
        target = _range_len_target(iterable)
        if target is not None:
            fn.loops.append([f"range(len({target}))", lineno, "rangelen"])
            return
        desc, parts = _iter_components(iterable)
        if desc and any(part.lower() in self.hot_names for part in parts):
            fn.loops.append([desc, lineno, "hot"])

    def visit_For(self, node, scopes) -> None:
        self._record_loop(self._fn(scopes), node.iter, node.lineno)

    visit_AsyncFor = visit_For

    def visit_ListComp(self, node, scopes) -> None:
        if id(node) not in self._fromiter_genexps:
            self._record_loop(self._fn(scopes), node.generators[0].iter,
                              node.lineno)

    visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_ListComp

    # -- mutations ------------------------------------------------------
    def _state_key(self, target: ast.AST, rebinding: bool,
                   fn: _FunctionRecord, scopes) -> Optional[str]:
        """``global:NAME`` / ``self:Class.attr`` for a mutation target."""
        if isinstance(target, ast.Name):
            if target.id in fn.global_decls:
                return f"global:{target.id}"
            if not rebinding and target.id in self.globals:
                # In-place mutation (subscript/method) of a module
                # global needs no `global` declaration.
                return f"global:{target.id}"
            return None
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            cls = self._current_class(scopes)
            if cls is None:
                return None
            leaf = fn.qualname.rsplit(".", 1)[-1]
            if rebinding and leaf in _CONSTRUCTION_METHODS:
                return None
            return f"self:{cls}.{target.attr}"
        return None

    def _record_mutation(self, node: ast.AST, target: ast.AST,
                         rebinding: bool, scopes) -> None:
        """Record ``node``'s write to ``target`` when it is module or
        instance state."""
        fn = self._fn(scopes)
        if fn is None:
            return
        key = self._state_key(target, rebinding, fn, scopes)
        if key is not None:
            guarded = 1 if next(_held_locks(node), None) else 0
            fn.mutations.append([key, node.lineno, guarded])

    def _record_store(self, node: ast.AST, target: ast.AST,
                      scopes) -> None:
        """A store to ``target``: a subscript mutates its value in
        place, anything else is rebound."""
        if isinstance(target, ast.Subscript):
            self._record_mutation(node, target.value, False, scopes)
        else:
            self._record_mutation(node, target, True, scopes)

    def visit_Assign(self, node: ast.Assign, scopes) -> None:
        for target in node.targets:
            self._record_store(node, target, scopes)

    def visit_AugAssign(self, node: ast.AugAssign, scopes) -> None:
        self._record_store(node, node.target, scopes)

    def visit_Delete(self, node: ast.Delete, scopes) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._record_store(node, target, scopes)

    # -- calls ----------------------------------------------------------
    def _classify_rng(self, name: str, nargs: int) -> Optional[str]:
        kind = _numpy_rng_call(name, nargs, self._numpy_aliases)
        if kind == "global":
            return f"{name} (numpy global RNG)"
        if kind is not None:
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
        if _clock_call(name) or _clock_call(self._expand(name)):
            return name
        return None

    def _expand(self, name: str) -> str:
        parts = name.split(".")
        target = self.imports.get(parts[0])
        if target is None:
            return name
        return ".".join([target] + parts[1:])

    def visit_Call(self, node: ast.Call, scopes) -> None:
        fn = self._fn(scopes)
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
            if attr_name(node) in _MUTATING_METHODS:
                self._record_mutation(node, node.func.value,  # type: ignore
                                      False, scopes)
        if name is not None and name.endswith("fromiter"):
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    self._fromiter_genexps.add(id(arg))

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
            kind = _pool_kind(node.func.value,  # type: ignore[union-attr]
                              self._pools)
            if kind is not None:
                callee = dotted_name(node.args[0])
                if callee:
                    fn.executor_refs.append([kind, callee, node.lineno])
            return
        # ProcessPoolExecutor(initializer=fn): sanctioned per-worker
        # priming — recorded with its own kind so CONC003 can skip it.
        if _executor_kind(node) == "process":
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    callee = dotted_name(keyword.value)
                    if callee:
                        fn.executor_refs.append(
                            ["process_init", callee, node.lineno])


def summarize_module(relpath: str, tree: ast.Module,
                     hot_names: Tuple[str, ...]) -> Dict[str, Any]:
    """The analysis summary of one parsed module (see module docstring)
    from a walk with the summariser alone.  A lint summarises inside
    its rule walk instead (:class:`~repro.devtools.analysis.project.
    ModuleEntries`)."""
    nodes = walk_module(tree)
    summarizer = _Summarizer(relpath, tree, hot_names,
                             module_name_for(Path(relpath)), nodes,
                             _numpy_aliases(nodes))
    Walker([summarizer]).visit(tree)
    return summarizer.summary()
