"""Render a :class:`~repro.devtools.engine.LintResult` for humans or CI.

Two formats, both deterministic down to the byte for a given result:

* **text** — ``path:line:col RULEID message`` lines plus a summary,
  the format editors and terminals already know how to jump from;
* **json** — a single sorted-keys document for the CI gate and any
  tooling that wants to diff lint runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.devtools.engine import LintResult


def render_text(result: LintResult, verbose: bool = False) -> str:
    """The human-facing report (one finding per line + summary)."""
    lines = []
    for finding in result.findings:
        lines.append(
            f"{finding.location()} {finding.rule_id} {finding.message}"
        )
    if verbose:
        for finding in result.baselined:
            lines.append(
                f"{finding.location()} {finding.rule_id} "
                f"[baselined] {finding.message}"
            )
    for entry in result.stale_baseline:
        lines.append(
            f"{entry['path']} {entry['rule']} [stale baseline entry x"
            f"{entry['count']}] {entry['message']}"
        )
    summary = (
        f"{len(result.findings)} finding(s) in "
        f"{result.files_checked} file(s)"
    )
    extras = []
    if result.baselined:
        extras.append(f"{len(result.baselined)} baselined")
    if result.suppressed:
        extras.append(f"{result.suppressed} suppressed")
    if result.stale_baseline:
        extras.append(f"{len(result.stale_baseline)} stale baseline "
                      "entr" + ("y" if len(result.stale_baseline) == 1
                                else "ies"))
    if extras:
        summary += f" ({', '.join(extras)})"
    lines.append(summary)
    if result.analysis is not None:
        stats = result.analysis
        lines.append(
            f"whole-program: {stats.get('modules', 0)} modules, "
            f"{stats.get('functions', 0)} functions, "
            f"{stats.get('call_edges', 0)} call edges "
            f"(module cache: {stats.get('hits', 0)} hit(s), "
            f"{stats.get('misses', 0)} miss(es))"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The machine-facing report (stable key order, stable sorting)."""
    document: Dict[str, Any] = {
        "version": 1,
        "files_checked": result.files_checked,
        "counts": {
            "findings": len(result.findings),
            "baselined": len(result.baselined),
            "suppressed": result.suppressed,
            "stale_baseline": len(result.stale_baseline),
        },
        "findings": [finding.as_dict() for finding in result.findings],
        "baselined": [finding.as_dict() for finding in result.baselined],
        "stale_baseline": list(result.stale_baseline),
    }
    if result.analysis is not None:
        # Cache hit/miss counters vary between warm and cold runs by
        # design; the findings arrays above must not.
        document["analysis"] = dict(result.analysis)
    return json.dumps(document, indent=2, sort_keys=True)
