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
from typing import List, Optional, Set

from repro.devtools.registry import (
    Rule,
    attr_name,
    call_name,
    dotted_name,
    parent_of,
    register,
)

_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _process_pool_names(nodes: List[ast.AST]) -> Set[str]:
    """Names and attribute chains (``self._pool``) bound to a
    ``ProcessPoolExecutor(...)`` in a module, from its node list."""
    names: Set[str] = set()

    def creates_pool(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        callee = call_name(value)
        return callee is not None and (
            callee == "ProcessPoolExecutor"
            or callee.endswith(".ProcessPoolExecutor")
        )

    def bind(target: Optional[ast.AST]) -> None:
        name = dotted_name(target)  # None for tuples, subscripts, None
        if name is not None:
            names.add(name)

    for node in nodes:
        if isinstance(node, ast.Assign) and creates_pool(node.value):
            for target in node.targets:
                bind(target)
        elif isinstance(node, ast.withitem) and creates_pool(
            node.context_expr
        ):
            bind(node.optional_vars)
    return names


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
        self._pools = _process_pool_names(ctx.nodes)
        self._nested = _nested_function_names(ctx.nodes)

    def visit(self, node: ast.AST, ctx, walker) -> None:
        attribute = attr_name(node)
        if attribute not in {"submit", "map"}:
            return
        receiver = node.func.value  # the `pool` in pool.submit(...)
        is_pool = (
            dotted_name(receiver) in self._pools
            or (isinstance(receiver, ast.Call)
                and (call_name(receiver) or "").endswith(
                    "ProcessPoolExecutor"))
        )
        if not is_pool:
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
