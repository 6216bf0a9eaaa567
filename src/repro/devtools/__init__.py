"""repro.devtools — static enforcement of the codebase's contracts.

The reproduction's headline guarantees — byte-equal outputs across
serial/parallel/cached execution (PR 1) and a never-blocked service
event loop (PR 2) — are properties of the *whole codebase*, not of the
few functions the example-based tests happen to cover.  This package
makes them machine-checked: a stdlib-only (``ast`` + ``tokenize``)
rule engine walks every module once and reports contract violations as
``path:line:col RULE message`` findings.

Layers:

* :mod:`repro.devtools.registry` — rule base classes (per-file
  :class:`Rule`, whole-program :class:`ProgramRule`) + registry;
* :mod:`repro.devtools.rules` — the built-in ruleset (per-file
  DET/ASYNC/PICKLE/DEP/API families; interprocedural FLOW/PERF/CONC
  families run under ``repro lint --whole-program``);
* :mod:`repro.devtools.analysis` — the whole-program layer: cached
  per-module summaries assembled into a project call graph;
* :mod:`repro.devtools.engine` — discovery, single-pass dispatch,
  ``# repro: noqa[RULE-ID]`` suppressions with unused-marker
  detection, and the optional whole-program pass;
* :mod:`repro.devtools.baseline` — committed grandfather file so the
  gate can be strict for *new* findings from day one;
* :mod:`repro.devtools.reporters` — byte-stable text/JSON reports;
* :mod:`repro.devtools.cli` — the ``repro lint`` subcommand.

See ``docs/devtools.md`` for the rule catalog.
"""

from repro.devtools.baseline import Baseline
from repro.devtools.engine import (
    LintConfig,
    LintResult,
    run_lint,
)
from repro.devtools.findings import Finding
from repro.devtools.registry import ProgramRule, Rule, all_rules, register
from repro.devtools.reporters import render_json, render_text

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintResult",
    "ProgramRule",
    "Rule",
    "all_rules",
    "register",
    "render_json",
    "render_text",
    "run_lint",
]
