"""Reference module-fact pre-passes: one ``ast.walk`` per fact.

Before the lint listed each module's nodes once
(:func:`repro.devtools.registry.walk_module`), every fact below walked
the tree on its own.  These are those walkers, kept verbatim as
oracles: ``test_fact_pass.py`` checks that the list-based helpers in
``src/`` give the same facts and parent links.  PICKLE001's
``_process_pool_names`` and the summariser's ``_executor_kinds`` are
now one table in ``src/`` (``_executor_bindings``); ``_process_pool_names``
here still records bare names only, while the table also records
attribute chains such as ``self._pool``.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from repro.devtools.registry import _SHARED_NODES, call_name, dotted_name


def _annotate_parents(tree: ast.Module) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            if type(child) not in _SHARED_NODES:
                child._lint_parent = parent  # type: ignore[attr-defined]


def _numpy_aliases(tree: ast.Module) -> tuple:
    """(module aliases, numpy.random aliases) bound in this module."""
    numpy_names: Set[str] = set()
    random_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.random":
                    if alias.asname:
                        random_names.add(alias.asname)
                    else:
                        numpy_names.add("numpy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        random_names.add(alias.asname or "random")
    return numpy_names, random_names


def _process_pool_names(tree: ast.Module) -> Set[str]:
    """Names bound to a ``ProcessPoolExecutor(...)`` in this module."""
    names: Set[str] = set()

    def creates_pool(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        callee = call_name(value)
        return callee is not None and (
            callee == "ProcessPoolExecutor"
            or callee.endswith(".ProcessPoolExecutor")
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and creates_pool(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.withitem) and creates_pool(
            node.context_expr
        ):
            if isinstance(node.optional_vars, ast.Name):
                names.add(node.optional_vars.id)
    return names


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function."""
    nested: Set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                walk(child, True)
            elif isinstance(child, ast.ClassDef):
                # Methods are attribute-accessed, never bare names.
                walk(child, inside_function)
            else:
                walk(child, inside_function)

    walk(tree, False)
    return nested


def _executor_kinds(tree: ast.Module) -> Dict[str, str]:
    """Names/attr-chains bound to executors -> ``thread``/``process``."""
    kinds: Dict[str, str] = {}

    def classify(value: ast.AST) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        callee = call_name(value) or ""
        if callee.endswith("ProcessPoolExecutor"):
            return "process"
        if callee.endswith("ThreadPoolExecutor"):
            return "thread"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            kind = classify(node.value)
            if kind is None:
                continue
            for target in node.targets:
                name = dotted_name(target)
                if name:
                    kinds[name] = kind
        elif isinstance(node, ast.withitem):
            kind = classify(node.context_expr)
            if kind is not None and node.optional_vars is not None:
                name = dotted_name(node.optional_vars)
                if name:
                    kinds[name] = kind
    return kinds
