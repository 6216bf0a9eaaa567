"""The lint engine: file discovery, single-pass dispatch, accounting.

One :func:`run_lint` call is the whole pipeline::

    discover files -> per module, its cache entry or: parse ->
    list the nodes once (parent links + module-wide facts, shared with
    the summariser) -> dispatch walk to interested rules -> read noqa
    markers (-> summarise) -> apply noqa suppressions (tracking use)
    -> [program pass] -> report unused suppressions -> partition
    against the baseline -> LintResult

The engine itself obeys the contracts it enforces: no wall-clock, no
unsorted iteration anywhere near output, and a result that is a pure
function of the file tree + configuration.  Findings come out in one
canonical order (path, line, col, rule id) so text reports, JSON
reports and baselines are byte-stable across runs and platforms.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, List, Optional, Sequence, Set, Tuple,
                    Union)

from repro.devtools.baseline import Baseline
from repro.devtools.findings import Finding, sorted_findings
from repro.devtools.registry import Rule, all_rules, scoped_rule_ids
from repro.devtools.suppressions import (
    UNUSED_SUPPRESSION_ID,
    SuppressionIndex,
)

#: Rule id attached to files the parser rejects.
SYNTAX_ERROR_ID = "SYN001"

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".repro-cache", "node_modules"}


@dataclass
class LintConfig:
    """Everything that parameterises a lint run.

    The rule-scoping knobs exist so the test suite can point rules at
    fixture trees; their defaults encode this repository's contracts.
    """

    #: Run only these rule ids (default: every registered rule).
    select: Optional[Sequence[str]] = None
    #: Rule ids to skip.
    ignore: Optional[Sequence[str]] = None
    #: Files (relpath suffixes) allowed to use raw RNG primitives.
    det001_exempt: Tuple[str, ...] = ("repro/utils/rng.py",)
    #: Substrings of a function name that mark it as cache-key /
    #: fingerprint construction for DET003.
    det003_contexts: Tuple[str, ...] = ("key", "fingerprint", "digest")
    #: Import roots considered first-party for DEP001.
    first_party: Tuple[str, ...] = ("repro",)
    #: Third-party imports the project declares (DEP001).  Entries may
    #: be bare roots ("numpy" admits the whole tree) or dotted
    #: submodules ("numpy.lib.format" admits exactly that subtree —
    #: listed explicitly because the columnar cache artifacts lean on
    #: its stable on-disk conventions).
    allowed_imports: Tuple[str, ...] = ("numpy", "numpy.lib.format")
    #: Extra allowed imports (CLI ``--dep-allow``; roots or dotted).
    extra_allowed_imports: Tuple[str, ...] = ()
    #: Per-tree DEP001 allowances: a path *segment* -> extra imports
    #: files under that segment may use.  The benchmark and test trees
    #: run under pytest (and benchmarks import their own conftest);
    #: that dependency is real there and wrong everywhere else.
    tree_allowed_imports: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
        ("benchmarks", ("pytest", "conftest")),
        ("tests", ("pytest", "conftest")),
    )

    # -- whole-program analysis knobs (``repro lint --whole-program``) --
    #: Function-name substrings marking FLOW1xx sink functions
    #: (fingerprint / cache-key / artifact-serialisation builders).
    flow_sink_contexts: Tuple[str, ...] = (
        "key", "fingerprint", "digest", "serialize",
    )
    #: Dotted module prefixes whose functions are PERF0xx hot entry
    #: points; anything they reach through the call graph is hot.
    perf_entry_modules: Tuple[str, ...] = (
        "repro.bgp.propagation", "repro.inference",
        "repro.pipeline.columnar",
    )
    #: Name components that mark a loop iterable as a corpus/route/
    #: topology structure (affects summary extraction and its cache).
    perf_hot_names: Tuple[str, ...] = (
        "corpus", "paths", "routes", "route_tree", "links", "topology",
    )


@dataclass
class ModuleContext:
    """Per-file state shared by every rule during one walk."""

    relpath: str
    source: str
    tree: ast.Module
    config: LintConfig
    #: Every node of ``tree`` in ``ast.walk`` order (see
    #: :func:`~repro.devtools.registry.walk_module`): the one source of
    #: module-wide facts for ``begin_module``.
    nodes: List[ast.AST]
    #: ``(numpy module aliases, numpy.random aliases)`` of the module,
    #: computed once and shared with the summariser.
    numpy_aliases: Tuple[Set[str], Set[str]]
    findings: List[Finding] = field(default_factory=list)

    def report(self, rule: Union[Rule, str], node: ast.AST,
               message: str) -> None:
        rule_id = rule if isinstance(rule, str) else rule.id
        self.findings.append(Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        ))

    def relpath_matches(self, suffixes: Iterable[str]) -> bool:
        return any(self.relpath.endswith(suffix) for suffix in suffixes)


class Walker(ast.NodeVisitor):
    """Single tree walk with typed dispatch and a lexical scope stack."""

    _SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                    ast.ClassDef)

    def __init__(self, rules: Sequence[Rule], ctx: ModuleContext):
        self.ctx = ctx
        self.scope_stack: List[ast.AST] = []
        self._dispatch: Dict[type, List[Rule]] = {}
        for rule in rules:
            for node_type in rule.interests:
                self._dispatch.setdefault(node_type, []).append(rule)

    # -- scope queries used by rules -----------------------------------
    def current_function(self) -> Optional[ast.AST]:
        """The innermost enclosing function/lambda scope, if any."""
        for scope in reversed(self.scope_stack):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                return scope
        return None

    def in_async_function(self) -> bool:
        return isinstance(self.current_function(), ast.AsyncFunctionDef)

    def enclosing_function_names(self) -> List[str]:
        """Names of every enclosing def, innermost last."""
        return [
            scope.name
            for scope in self.scope_stack
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    # -- the walk ------------------------------------------------------
    def visit(self, node: ast.AST) -> None:
        for rule in self._dispatch.get(type(node), ()):
            rule.visit(node, self.ctx, self)
        if isinstance(node, self._SCOPE_TYPES):
            self.scope_stack.append(node)
            self.generic_visit(node)
            self.scope_stack.pop()
        else:
            self.generic_visit(node)


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` call (already baseline-split)."""

    findings: List[Finding]
    baselined: List[Finding]
    suppressed: int
    stale_baseline: List[Dict[str, object]]
    files_checked: int
    #: Whole-program pass statistics (modules/functions/edges, summary
    #: cache hits/misses) — ``None`` unless the pass ran.
    analysis: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return not self.findings


def discover_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """The python files under ``paths``, sorted, skipping caches."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.append(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            files.append(candidate)
    # De-duplicate while keeping the sorted-per-argument order stable.
    seen = set()
    unique: List[Path] = []
    for path in files:
        key = str(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def _relpath(path: Path) -> str:
    """Posix-style path relative to the CWD when possible.

    Baselines and reports must not embed absolute paths (they would
    differ between machines), so anything under the working directory
    is relativised.
    """
    resolved = path.resolve()
    try:
        rel = resolved.relative_to(Path.cwd())
    except ValueError:
        rel = resolved
    return rel.as_posix()


def check_module(relpath: str, source: str, tree: ast.Module,
                 nodes: List[ast.AST],
                 numpy_aliases: Tuple[Set[str], Set[str]],
                 config: LintConfig,
                 module_ids: Sequence[str]) -> List[Finding]:
    """The raw (unsuppressed) findings of the module rules
    ``module_ids`` on one parsed file, in walk order.

    ``nodes`` is :func:`~repro.devtools.registry.walk_module`'s list for
    ``tree`` and ``numpy_aliases`` the module's numpy import aliases.
    """
    registry = all_rules()
    rules = [registry[rule_id]() for rule_id in module_ids]
    ctx = ModuleContext(relpath=relpath, source=source, tree=tree,
                        config=config, nodes=nodes,
                        numpy_aliases=numpy_aliases)
    for rule in rules:
        rule.begin_module(ctx)
    Walker(rules, ctx).visit(tree)
    for rule in rules:
        rule.end_module(ctx)
    return ctx.findings


def run_lint(
    paths: Sequence[Union[str, Path]],
    config: Optional[LintConfig] = None,
    baseline: Optional[Baseline] = None,
    whole_program: bool = False,
    summary_cache: Optional[object] = None,
) -> LintResult:
    """Lint ``paths`` and partition the findings against ``baseline``.

    With ``whole_program=True`` the per-file pass also summarises every
    module, the summaries are assembled into a project call graph, and
    each registered program-scope rule runs against it.  Given a
    ``summary_cache``, such a run serves each unchanged module's
    summary, raw module-rule findings and noqa markers from its cache
    entry, and parses, walks and tokenizes only the modules that miss.
    ``# repro: noqa`` markers apply to program findings exactly as to
    per-file ones, and the unused-suppression check (SUP001) is
    deferred until both passes have had the chance to consume markers.
    """
    from repro.devtools.analysis.project import ModuleEntries, project_graph

    config = config or LintConfig()
    registry = all_rules()
    program_ids = scoped_rule_ids(config.select, config.ignore, "program")
    program_pass = whole_program and bool(program_ids)
    cache = summary_cache if program_pass else None
    modules = ModuleEntries(config, cache, summarize=program_pass)
    files = discover_files(paths)

    raw: List[Finding] = []
    suppressed_total = 0
    # (relpath, summary-or-None, suppression index) per file, kept so
    # the program pass reuses the summaries and the markers.
    per_file: List[Tuple[str, Optional[Dict[str, object]],
                         SuppressionIndex]] = []
    for path in files:
        relpath = _relpath(path)
        source = path.read_text(encoding="utf-8")
        try:
            entry = modules.entry(relpath, source)
        except SyntaxError as exc:
            raw.append(Finding(
                path=relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 1),
                rule_id=SYNTAX_ERROR_ID,
                message=f"file does not parse: {exc.msg}",
            ))
            per_file.append((relpath, None,
                             SuppressionIndex.from_source(source)))
            continue
        for finding in entry.findings:
            if entry.suppressions.suppresses(finding.line,
                                             finding.rule_id):
                suppressed_total += 1
            else:
                raw.append(finding)
        per_file.append((relpath, entry.summary, entry.suppressions))

    analysis: Optional[Dict[str, object]] = None
    if program_pass:
        project, analysis = project_graph(
            [summary for _, summary, _ in per_file if summary is not None],
            cache)
        markers_by_path = {relpath: index
                           for relpath, _, index in per_file}
        for rule_id in program_ids:
            for finding in registry[rule_id]().check_program(project,
                                                            config):
                index = markers_by_path.get(finding.path)
                if index is not None and index.suppresses(
                        finding.line, finding.rule_id):
                    suppressed_total += 1
                else:
                    raw.append(finding)

    # Markers naming program rules only count as "active" when the
    # program pass actually ran — a per-file-only run cannot tell
    # whether they would have matched.
    active_ids = modules.module_ids + (program_ids if whole_program
                                       else [])
    for relpath, _summary, suppressions in per_file:
        for marker in suppressions.unused(active_ids):
            raw.append(Finding(
                path=relpath,
                line=marker.line,
                col=marker.col,
                rule_id=UNUSED_SUPPRESSION_ID,
                message=(f"suppression {marker.describe()} matches "
                         "no finding"),
            ))

    ordered = sorted_findings(raw)
    baseline = baseline or Baseline()
    new, baselined, stale = baseline.split(ordered)
    return LintResult(
        findings=new,
        baselined=baselined,
        suppressed=suppressed_total,
        stale_baseline=stale,
        files_checked=len(files),
        analysis=analysis,
    )
