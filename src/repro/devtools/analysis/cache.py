"""Content-hash cache of per-module lint entries.

One entry holds everything the lint derives from one module's bytes:
its analysis summary, the selected module rules' raw findings (before
any suppression) and its ``# repro: noqa`` markers.  An entry is a pure
function of six things, so the cache key is the SHA-256 of them and no
invalidation protocol is needed:

* ``ANALYSIS_VERSION``;
* :func:`module_config_digest` — every ``LintConfig`` field that shapes
  an entry, plus the selected module-rule ids;
* :func:`code_digest` — the ``repro.devtools`` sources that compute an
  entry (and the interpreter that runs them), so an edited rule can
  never serve stale findings;
* the module's relpath;
* its dotted name and package flag, which depend on which parent
  directories hold ``__init__.py`` (adding or removing one renames the
  module without touching its bytes);
* its source.

Editing any of them produces a different key, and the stale entry is
never read again (a sweep of very old files can reclaim the directory
at leisure).

Entries are single JSON files, written atomically (unique temp name +
``os.replace``) with sorted keys and no timestamps, so a given entry
serialises byte-identically on every run and the cache directory
itself diffs cleanly.  Each loaded entry is re-checked — its
``analysis_version`` field and the shape of every per-file field — so
a manually copied, truncated or tampered file is a miss rather than a
crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.devtools.analysis import summaries as _summaries
from repro.devtools.findings import Finding
from repro.devtools.registry import scoped_rule_ids
from repro.devtools.suppressions import SuppressionIndex

#: The ``LintConfig`` fields that shape an entry: the summarizer's
#: extraction knob and every module-rule knob.  Selection enters the
#: digest as the resolved module-rule ids; the remaining fields are read
#: by program rules only.
ENTRY_CONFIG_FIELDS = (
    "perf_hot_names",
    "det001_exempt",
    "det003_contexts",
    "first_party",
    "allowed_imports",
    "extra_allowed_imports",
    "tree_allowed_imports",
)

_DEVTOOLS_ROOT = Path(__file__).resolve().parent.parent


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR/analysis`` or ``~/.cache/repro/analysis``."""
    root = os.environ.get("REPRO_CACHE_DIR")
    base = Path(root) if root else Path("~/.cache/repro").expanduser()
    return base / "analysis"


@lru_cache(maxsize=None)
def code_digest() -> str:
    """Digest of the ``repro.devtools`` sources and the interpreter tag.

    Computed once per process.  The interpreter tag is in because the
    ``ast`` shapes and DEP001's stdlib list come with the interpreter.
    """
    digest = hashlib.sha256(sys.implementation.cache_tag.encode("utf-8"))
    for path in sorted(_DEVTOOLS_ROOT.rglob("*.py")):
        digest.update(path.relative_to(_DEVTOOLS_ROOT).as_posix()
                      .encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def module_config_digest(config) -> str:
    """Digest of the config fields and module rules that shape an entry."""
    payload = repr((
        tuple((name, tuple(getattr(config, name)))
              for name in ENTRY_CONFIG_FIELDS),
        tuple(scoped_rule_ids(config.select, config.ignore, "module")),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def summary_key(relpath: str, source: str, config_digest: str,
                module: Optional[Tuple[str, bool]] = None) -> str:
    """The content hash addressing one module's entry.

    ``module`` is the ``(dotted name, is_package)`` pair
    :func:`~repro.devtools.analysis.summaries.module_name_for` gives
    ``relpath``; it is derived when not given.
    """
    name, is_package = module or _summaries.module_name_for(Path(relpath))
    payload = (
        f"repro-analysis:{_summaries.ANALYSIS_VERSION}:"
        f"{config_digest}:{code_digest()}:{relpath}:{name}:"
        f"{int(is_package)}:".encode("utf-8")
        + source.encode("utf-8")
    )
    return hashlib.sha256(payload).hexdigest()


@dataclass
class ModuleEntry:
    """Everything the lint derives from one module's bytes."""

    #: The analysis summary; ``None`` when the run has no program pass
    #: (such an entry is never stored).
    summary: Optional[Dict[str, Any]]
    #: The selected module rules' findings, before suppression.
    findings: List[Finding]
    #: The module's noqa markers, none of them used yet.
    suppressions: SuppressionIndex

    def document(self) -> Dict[str, Any]:
        """The JSON document stored for this entry."""
        return {
            "analysis_version": _summaries.ANALYSIS_VERSION,
            "summary": self.summary,
            "findings": [[f.line, f.col, f.rule_id, f.message]
                         for f in self.findings],
            "markers": self.suppressions.markers(),
        }

    @classmethod
    def from_document(cls, document: Dict[str, Any],
                      relpath: str) -> "ModuleEntry":
        """The entry a :meth:`SummaryCache.get` document holds."""
        return cls(
            summary=document["summary"],
            findings=[Finding(relpath, *row)
                      for row in document["findings"]],
            suppressions=SuppressionIndex.from_markers(
                document["markers"]),
        )


def _rows(rows: Any, types: Sequence[Any]) -> bool:
    """True when ``rows`` is a list of lists typed column by column."""
    return isinstance(rows, list) and all(
        isinstance(row, list) and len(row) == len(types)
        and all(isinstance(value, kind)
                for value, kind in zip(row, types))
        for row in rows
    )


def _well_formed(document: Any) -> bool:
    return (isinstance(document, dict)
            and document.get("analysis_version")
            == _summaries.ANALYSIS_VERSION
            and isinstance(document.get("summary"), dict)
            and _rows(document.get("findings"), (int, int, str, str))
            and _rows(document.get("markers"),
                      (int, int, (str, type(None)))))


class SummaryCache:
    """On-disk entry store keyed by content hash (see module doc)."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._counter = 0

    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored document under ``key``, or ``None`` (a miss)."""
        path = self._path_for(key)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            document = None
        if not _well_formed(document):
            self.misses += 1
            return None
        self.hits += 1
        return document

    def put(self, key: str, document: Dict[str, Any]) -> None:
        path = self._path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._counter += 1
            tmp = path.with_name(
                f".{path.name}.{os.getpid()}.{self._counter}.tmp")
            tmp.write_text(
                json.dumps(document, sort_keys=True,
                           separators=(",", ":")) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except OSError:
            # A read-only or full cache directory degrades to a
            # cache-less run, never to a failed lint.
            return
        self.stores += 1

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}
