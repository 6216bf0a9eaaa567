"""Determinism rules: DET001, DET002, DET003.

These enforce the pipeline's core contract — the same config always
yields byte-identical artifacts — by banning the three classic ways a
Python codebase silently loses it: global/unseeded RNGs, unordered
iteration leaking into serialised output, and wall-clock values inside
content addresses.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.devtools.registry import Rule, attr_name, call_name, register

#: numpy's legacy global-state RNG entry points (``np.random.<fn>``).
_NP_GLOBAL_FNS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "beta", "binomial", "poisson",
    "exponential", "bytes",
})


def _numpy_aliases(nodes: List[ast.AST]) -> Tuple[Set[str], Set[str]]:
    """(module aliases, numpy.random aliases) bound in a module, from
    its :func:`~repro.devtools.registry.walk_module` node list."""
    numpy_names: Set[str] = set()
    random_names: Set[str] = set()
    for node in nodes:
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


#: Unseeded numpy bit generators: ``np.random.PCG64()`` without a seed
#: draws OS entropy exactly like ``default_rng()`` — DET001 leaves
#: them to FLOW101, which tracks them into fingerprint sinks.
_UNSEEDED_BIT_GENERATORS = frozenset(
    {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
)


def _numpy_rng_call(name: str, nargs: int,
                    numpy_aliases: Tuple[Set[str], Set[str]]
                    ) -> Optional[str]:
    """``"global"`` (legacy global-state ``np.random.<fn>``),
    ``"default_rng"`` or ``"bit_generator"`` (either without a seed) for
    a call of dotted ``name`` with ``nargs`` arguments, else ``None``.

    ``np.random.<fn>`` goes through a numpy module alias, ``<alias>.<fn>``
    through ``from numpy import random`` (see :func:`_numpy_aliases`).
    """
    np_modules, np_random = numpy_aliases
    parts = name.split(".")
    if (len(parts) == 3 and parts[0] in np_modules
            and parts[1] == "random"):
        fn = parts[2]
    elif len(parts) == 2 and parts[0] in np_random:
        fn = parts[1]
    else:
        return None
    if fn in _NP_GLOBAL_FNS:
        return "global"
    if nargs == 0 and fn == "default_rng":
        return "default_rng"
    if nargs == 0 and fn in _UNSEEDED_BIT_GENERATORS:
        return "bit_generator"
    return None


@register
class UnseededRandomRule(Rule):
    """DET001 — all randomness must flow through ``repro.utils.rng``."""

    id = "DET001"
    name = "unseeded or global random source"
    rationale = (
        "Scenario outputs are a pure function of the config seed.  The "
        "stdlib `random` module and numpy's legacy `np.random.*` "
        "functions draw from hidden global state, and "
        "`np.random.default_rng()` without a seed draws from the OS — "
        "any of them makes two identical runs diverge.  Use "
        "`repro.utils.rng.make_rng` / `child_rng` instead."
    )
    interests = (ast.Import, ast.ImportFrom, ast.Call)

    def begin_module(self, ctx) -> None:
        self._exempt = ctx.relpath_matches(ctx.config.det001_exempt)

    def visit(self, node: ast.AST, ctx, walker) -> None:
        if self._exempt:
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    ctx.report(self, node,
                               "import of the stdlib `random` module "
                               "(hidden global RNG state); use "
                               "repro.utils.rng instead")
            return
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None and (
                node.module == "random" or node.module.startswith("random.")
            ):
                ctx.report(self, node,
                           "import from the stdlib `random` module "
                           "(hidden global RNG state); use "
                           "repro.utils.rng instead")
            return
        # ast.Call
        name = call_name(node)
        if name is None:
            return
        kind = _numpy_rng_call(name, len(node.args) + len(node.keywords),
                               ctx.numpy_aliases)
        if kind == "global":
            ctx.report(self, node,
                       f"numpy legacy global RNG call `{name}(...)` "
                       "bypasses the seeded generator plumbing; use "
                       "repro.utils.rng.make_rng / child_rng")
        elif kind == "default_rng":
            ctx.report(self, node,
                       f"`{name}()` without a seed draws OS entropy; "
                       "pass an explicit seed or use repro.utils.rng")


#: Call names treated as order-sensitive sinks.
_SINK_NAMES = frozenset({
    "json.dumps", "json.dump", "hash", "pickle.dumps", "pickle.dump",
    "marshal.dumps",
})

#: ``obj.<attr>(...)`` sinks (str.join, executor submission, csv).
_SINK_ATTRS = frozenset({"join", "submit", "map", "writerows", "writerow"})


def _unordered_core(expr: ast.AST) -> Optional[ast.AST]:
    """The subexpression injecting set/dict-view iteration order.

    Descends through ``list``/``tuple`` wrappers and into the driving
    iterable of comprehensions; a ``sorted(...)`` wrapper anywhere on
    the way down makes the whole expression ordered.
    """
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return expr
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in {"set", "frozenset"}:
            return expr
        if name == "sorted":
            return None
        if name in {"list", "tuple"} and expr.args:
            return _unordered_core(expr.args[0])
        if attr_name(expr) in {"keys", "values"}:
            return expr
        return None
    if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
        return _unordered_core(expr.generators[0].iter)
    return None


@register
class UnorderedIterationRule(Rule):
    """DET002 — no set/dict-view iteration into order-sensitive sinks."""

    id = "DET002"
    name = "unordered iteration reaches an order-sensitive sink"
    rationale = (
        "Set iteration order varies with insertion history and hash "
        "randomisation.  When a set, frozenset or dict view flows into "
        "serialisation (`json.dumps`, `.join`, `writerows`), hashing, "
        "or process-pool submission, two equivalent runs can emit "
        "different bytes.  Wrap the iterable in `sorted(...)` at the "
        "boundary."
    )
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx, walker) -> None:
        name = call_name(node)
        is_sink = (name in _SINK_NAMES
                   or attr_name(node) in _SINK_ATTRS)
        if not is_sink:
            return
        sink = name or f"<obj>.{attr_name(node)}"
        arguments = list(node.args)
        arguments.extend(kw.value for kw in node.keywords)
        for argument in arguments:
            core = _unordered_core(argument)
            if core is None:
                continue
            ctx.report(self, core,
                       f"unordered iterable reaches order-sensitive "
                       f"sink `{sink}(...)`; wrap it in sorted(...)")


#: Wall-clock / entropy calls banned inside fingerprint construction.
_CLOCK_SUFFIXES = (
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "uuid.uuid1", "uuid.uuid4", "os.urandom",
    "secrets.token_hex", "secrets.token_bytes", "secrets.token_urlsafe",
)

_CLOCK_TAILS = tuple("." + suffix for suffix in _CLOCK_SUFFIXES)


def _clock_call(name: str) -> bool:
    """True when the dotted callee ``name`` ends in one of
    :data:`_CLOCK_SUFFIXES` at a dotted boundary."""
    return ("." + name).endswith(_CLOCK_TAILS)


#: Bare names (bound by ``from x import y``) with the same meaning.
_CLOCK_BARE = frozenset({"time", "time_ns", "uuid1", "uuid4", "urandom",
                         "token_hex", "token_bytes", "token_urlsafe"})


@register
class WallClockInKeyRule(Rule):
    """DET003 — no wall clock or entropy in cache keys/fingerprints."""

    id = "DET003"
    name = "wall-clock or entropy value in key/fingerprint construction"
    rationale = (
        "Cache keys and config fingerprints are content addresses: the "
        "same inputs must produce the same key tomorrow, on another "
        "machine, in another process.  `time.time()`, `datetime.now()`, "
        "`uuid4()` or `os.urandom()` inside a function that builds a "
        "key silently turns the cache into a miss machine (or worse, a "
        "collision).  Derive keys only from config content and code "
        "version."
    )
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx, walker) -> None:
        contexts = ctx.config.det003_contexts
        enclosing = [
            fn_name for fn_name in walker.enclosing_function_names()
            if any(marker in fn_name.lower() for marker in contexts)
        ]
        if not enclosing:
            return
        name = call_name(node)
        if name is None:
            return
        if _clock_call(name) or ("." not in name
                                 and name in _CLOCK_BARE):
            ctx.report(self, node,
                       f"`{name}(...)` inside key/fingerprint function "
                       f"`{enclosing[-1]}` makes the content address "
                       "time- or entropy-dependent")
