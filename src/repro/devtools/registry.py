"""Rule base class, registry, and shared AST helpers.

A rule is a class with an ``id``, a one-line ``name``, a ``rationale``
paragraph (surfaced by ``repro lint --explain``), and a set of AST node
types it wants to see (``interests``).  The engine instantiates every
registered rule once per file, walks the module tree exactly once, and
dispatches each node to the rules interested in its type — rules never
re-walk the tree themselves, which keeps linting a large package
single-pass.  Module-wide facts a rule needs before the dispatch walk
come from ``ctx.nodes``, the node list :func:`walk_module` built.

Registration is import-time: decorating a class with :func:`register`
adds it to the global table, and :mod:`repro.devtools.rules` imports
every rule module for its side effect.  Rule ids are unique by
construction (duplicate registration raises).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple, Type

#: rule id -> rule class; populated by :func:`register` at import time.
_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for lint rules (see the module docstring)."""

    id: str = ""
    name: str = ""
    rationale: str = ""
    #: ``"module"`` rules see one file's AST through the per-file
    #: walker; ``"program"`` rules (see :class:`ProgramRule`) see the
    #: whole-project graph and only run under ``--whole-program``.
    scope: str = "module"
    #: AST node types dispatched to :meth:`visit`.
    interests: Tuple[type, ...] = ()

    def begin_module(self, ctx) -> None:
        """Called once before the walk; collect module-level facts
        from ``ctx.nodes`` (never by walking ``ctx.tree`` again)."""

    def visit(self, node: ast.AST, ctx, walker) -> None:
        """Called for every node whose type is in ``interests``."""


class ProgramRule(Rule):
    """Base class for whole-program (interprocedural) rules.

    Program rules never receive per-file ``visit`` callbacks; instead
    the engine hands them the assembled
    :class:`~repro.devtools.analysis.graph.ProjectGraph` once per run.
    They share the registry, ``--select``/``--ignore`` scoping,
    ``# repro: noqa`` suppression and baseline machinery with the
    per-file rules, but only execute when the run asks for
    ``--whole-program`` analysis.
    """

    scope = "program"

    def check_program(self, project, config) -> list:
        """Return a list of Findings for the whole project."""
        return []


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule class {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The registered rules, keyed by id (import side effect included)."""
    # Importing the rules package registers every built-in rule; doing
    # it here (not at module top) avoids a registry <-> rules cycle.
    from repro.devtools import rules  # noqa: F401  (import for effect)

    return dict(_REGISTRY)


def resolve_rule_ids(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> List[str]:
    """The rule ids to run, validating every referenced id exists."""
    known = all_rules()
    chosen = list(select) if select else sorted(known)
    unknown = [rid for rid in chosen if rid not in known]
    ignored = set(ignore or ())
    unknown += [rid for rid in ignored if rid not in known]
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(set(unknown)))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return [rid for rid in chosen if rid not in ignored]


def scoped_rule_ids(select: Optional[Iterable[str]],
                    ignore: Optional[Iterable[str]],
                    scope: str) -> List[str]:
    """The selected rule ids of one ``scope`` ("module"/"program")."""
    registry = all_rules()
    return [rid for rid in resolve_rule_ids(select, ignore)
            if registry[rid].scope == scope]


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Call nodes in the chain break it (``f().g`` has no stable dotted
    name), which is the conservative behaviour every rule wants.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The dotted name of a call's callee, if it has one."""
    return dotted_name(node.func)


def attr_name(node: ast.Call) -> Optional[str]:
    """The attribute name of an ``obj.method(...)`` call, else None."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


#: Node types CPython's parser shares as process-wide singletons (one
#: ``Load``, one ``Add``, ...): a parent link on one would name the
#: last tree walked and keep that tree alive.  Concrete types, so the
#: walk tests membership by ``type()`` instead of a slower
#: ``isinstance`` against the abstract bases.
_SHARED_NODES = frozenset(
    kind
    for base in (ast.expr_context, ast.boolop, ast.operator, ast.unaryop,
                 ast.cmpop)
    for kind in base.__subclasses__()
)


def walk_module(tree: ast.AST) -> List[ast.AST]:
    """Every node of ``tree`` in :func:`ast.walk` order, in one pass.

    Sets the parent link :func:`parent_of` reads on each child, except
    on the shared context and operator singletons (:data:`_SHARED_NODES`
    — listed, but parentless).  The list is the module-wide fact pass:
    rules (``ctx.nodes``) and the summariser filter it instead of
    walking the tree again.
    """
    nodes: List[ast.AST] = [tree]
    append = nodes.append
    node_type = ast.AST
    shared = _SHARED_NODES
    # Appending while iterating visits the nodes breadth-first, which is
    # exactly ast.walk's order (its deque pops from the left).
    for parent in nodes:
        for name in parent._fields:
            value = getattr(parent, name, None)
            if isinstance(value, node_type):
                if type(value) not in shared:
                    value._lint_parent = parent  # type: ignore[attr-defined]
                append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, node_type):
                        if type(item) not in shared:
                            item._lint_parent = parent  # type: ignore
                        append(item)
    return nodes


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    """The parent link set by :func:`walk_module` (None at the root)."""
    return getattr(node, "_lint_parent", None)


def const_strings(node: ast.AST) -> Optional[List[Tuple[str, int]]]:
    """``[(value, lineno), ...]`` for a list/tuple of string constants.

    Returns ``None`` when the node is not a list/tuple literal or any
    element is not a plain string — callers should then skip quietly
    rather than guess.
    """
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    out: List[Tuple[str, int]] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        out.append((element.value, element.lineno))
    return out
