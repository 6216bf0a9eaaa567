"""Picklability rule: PICKLE001.

Process-pool workers receive their callables by pickling, and pickle
resolves functions by qualified name — lambdas and nested functions
fail at submission time under the ``spawn`` start method (the default
on macOS/Windows) even when they happen to work under ``fork``.  The
repo's own worker functions live at module level for exactly this
reason (see :mod:`repro.pipeline.parallel`).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.devtools.registry import (
    Rule,
    attr_name,
    call_name,
    dotted_name,
    parent_of,
    register,
)

_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


#: Executor constructors (the callee's last dotted component) -> kind.
_EXECUTOR_KINDS = {"ProcessPoolExecutor": "process",
                   "ThreadPoolExecutor": "thread"}


def _executor_kind(value: ast.AST) -> Optional[str]:
    """``"process"``/``"thread"`` for a ``[x.]ProcessPoolExecutor(...)``
    / ``[x.]ThreadPoolExecutor(...)`` call, else ``None`` (a dotted
    boundary: ``MyProcessPoolExecutor`` is some other class)."""
    if not isinstance(value, ast.Call):
        return None
    callee = call_name(value)
    if callee is None:
        return None
    return _EXECUTOR_KINDS.get(callee.rpartition(".")[2])


def _executor_bindings(nodes: List[ast.AST]) -> Dict[str, str]:
    """Names and attribute chains (``self._pool``) bound by ``=`` or
    ``with ... as`` to an executor -> its kind, from a module's node
    list.  Flow-insensitive: a name ever bound to a process pool is
    ``"process"``, as any submission through it may cross processes."""
    kinds: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            kind = _executor_kind(node.value)
            targets = node.targets
        elif isinstance(node, ast.withitem):
            kind = _executor_kind(node.context_expr)
            targets = [node.optional_vars]
        else:
            continue
        if kind is None:
            continue
        for target in targets:
            name = dotted_name(target)  # None for tuples, subscripts, None
            if name and kinds.get(name) != "process":
                kinds[name] = kind
    return kinds


def _pool_kind(receiver: ast.AST, bindings: Dict[str, str]
               ) -> Optional[str]:
    """The executor kind of the ``pool`` in ``pool.submit(...)``: an
    inline constructor call, or a name in :func:`_executor_bindings`."""
    return _executor_kind(receiver) or bindings.get(
        dotted_name(receiver) or "")


def _nested_function_names(nodes: List[ast.AST]) -> Set[str]:
    """Names of functions defined inside another function.

    A def is nested when any ancestor is a def; a class in between does
    not matter (methods of a class defined in a function are nested
    too), and module-level class methods are not.
    """
    nested: Set[str] = set()
    for node in nodes:
        if not isinstance(node, _FUNCTION_TYPES):
            continue
        parent = parent_of(node)
        while parent is not None:
            if isinstance(parent, _FUNCTION_TYPES):
                nested.add(node.name)
                break
            parent = parent_of(parent)
    return nested


@register
class NonPicklableSubmissionRule(Rule):
    """PICKLE001 — only module-level callables cross the pool boundary."""

    id = "PICKLE001"
    name = "non-picklable callable submitted to a process pool"
    rationale = (
        "ProcessPoolExecutor pickles the submitted callable; pickle "
        "serialises functions by qualified name, so lambdas and "
        "closures raise `PicklingError` at submit time under the "
        "spawn start method.  Define worker functions at module level "
        "and pass state through arguments or a pool initializer."
    )
    interests = (ast.Call,)

    def begin_module(self, ctx) -> None:
        self._pools = _executor_bindings(ctx.nodes)
        self._nested = _nested_function_names(ctx.nodes)

    def visit(self, node: ast.AST, ctx, walker) -> None:
        attribute = attr_name(node)
        if attribute not in {"submit", "map"}:
            return
        if _pool_kind(node.func.value, self._pools) != "process":
            return
        candidates = list(node.args[:1])
        candidates.extend(
            kw.value for kw in node.keywords
            if kw.arg in {"fn", "func", "initializer"}
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Lambda):
                ctx.report(self, candidate,
                           f"lambda passed to process-pool `{attribute}`"
                           "; lambdas cannot be pickled — use a "
                           "module-level function")
            elif (isinstance(candidate, ast.Name)
                  and candidate.id in self._nested):
                ctx.report(self, candidate,
                           f"nested function `{candidate.id}` passed to "
                           f"process-pool `{attribute}`; closures cannot "
                           "be pickled — move it to module level")
