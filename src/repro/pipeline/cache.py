"""Content-addressed scenario artifact cache.

Scenario building is deterministic: every artifact is a pure function
of the :class:`~repro.config.ScenarioConfig` and the code that ran.
That makes the expensive artifacts — the propagated path corpus, the
inferred relationship sets, the cleaned validation sets — perfect cache
entries keyed by a content address:

    key = sha256(canonical-JSON(config) + code version)[:20]

The canonical JSON omits the adversarial layer when it is ``None``, so
honest configs keep the fingerprints (and cache entries) they had
before the adversarial subsystem existed; a config *with* an
:class:`~repro.config.AdversarialConfig` canonicalises the full attack
and deployment layer into the key, so polluted corpora are
content-addressed apart from clean ones for free.

Layout (one directory per scenario key under the cache root)::

    <root>/<key>/meta.json              fingerprint provenance + version
    <root>/<key>/corpus.npc             binary columnar path corpus
    <root>/<key>/rels-<algorithm>.asrel CAIDA serial-1 as-rel file
    <root>/<key>/validation-<policy>.txt cleaned validation set
    <root>/<key>/topology.json          generated topology (JSON document)
    <root>/.locks/<key>.lock            advisory per-entry writer lock

The root is ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``.

Invalidation rules
------------------
* **Code version**: the version string participates in the key, so any
  bump orphans every old entry (they simply stop being addressed).  A
  ``meta.json`` whose recorded version disagrees with the reader's is
  treated as foreign and the whole entry is discarded — this catches
  truncated keys and hand-edited caches.  Stores refresh a stale meta
  record in place, so a foreign survivor can never pin a key into
  recomputing forever.
* **Corruption**: every load parses defensively; an unreadable artifact
  is deleted and reported as a miss, so a corrupted cache can only cost
  a recompute, never an error or a wrong result.
* **Eviction**: none automatic — entries are small files; the
  ``repro cache clear`` subcommand wipes the root on demand.

Concurrency and crash safety
----------------------------
One cache root is routinely shared by several writers (``repro serve``
build threads, parallel CLI runs, CI jobs) and the invariant above
extends to them: **every fault — a crashed writer, a full disk, a
concurrent deleter — degrades to a recorded miss plus a recompute,
never a crash or a wrong artifact.**  Three mechanisms carry it:

* **Unique per-writer temp names** — every publish writes
  ``<artifact>.<pid>.<seq>.tmp`` (pid plus a per-process monotonic
  counter) and commits with one atomic ``os.replace``.  Two writers of
  the same artifact can interleave arbitrarily; each renames only its
  own fully-written file, so readers observe either a complete old or a
  complete new artifact.  A crash leaves at worst a ``.tmp`` straggler
  (``repro cache list`` reports them; ``clear`` sweeps them).
* **Advisory per-entry locks** — cross-process builders of one key
  single-flight through ``<root>/.locks/<key>.lock``
  (:class:`~repro.pipeline.locks.EntryLock`: ``fcntl`` where available,
  ``O_EXCL`` with stale-lock recovery elsewhere).  The lock is an
  optimisation only: on timeout the caller proceeds unlocked and the
  tmp-name scheme keeps the resulting stampede safe.
* **Read-side retry-once-on-vanish** — a file deleted between the
  existence check and the parse (``repro cache clear`` racing a
  reader) is retried once, then recorded as a miss.

Store-side ``OSError`` (``ENOSPC`` and friends) is swallowed after
best-effort tmp cleanup and counted in ``store_errors`` — a cache that
cannot persist must not take the build down.  All filesystem traffic
flows through the :class:`~repro.pipeline.fsops.CacheFilesystem` seam
so :mod:`repro.testing.faults` can prove the guarantee by injecting
every fault deterministically.

The relationship and validation artifacts round-trip through the
existing text serialisers (:mod:`repro.datasets.asrel`,
:mod:`repro.datasets.validationset`), and the topology through one
sorted-key JSON document (:mod:`repro.topology.document`), so those
entries double as human-readable exports.  The corpus — by far the
largest artifact — uses the compact binary section format of
:mod:`repro.pipeline.columnar` instead and is **memory-mapped** on warm
reads: a warm ``build_scenario`` adopts the on-disk columns directly
and never materialises per-route Python tuples.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.datasets.asrel import RelationshipSet, read_asrel, write_asrel
from repro.datasets.paths import PathCorpus
from repro.pipeline.columnar import read_corpus_columns, write_corpus_columns
from repro.datasets.validationset import read_validation_set, write_validation_set
from repro.pipeline.fsops import CacheFilesystem
from repro.pipeline.locks import LOCK_DIR_NAME, EntryLock, is_locked
from repro.topology.document import topology_document, topology_from_document
from repro.topology.generator import Topology
from repro.validation.cleaning import CleanedValidation, MultiLabelPolicy

if TYPE_CHECKING:
    from repro.config import ScenarioConfig

#: Bump when a pipeline change alters any cached artifact's content
#: without touching the library version (invalidates every entry).
PIPELINE_CACHE_VERSION = "2"

_META_FILE = "meta.json"
_CORPUS_FILE = "corpus.npc"
_TOPOLOGY_FILE = "topology.json"
_TMP_SUFFIX = ".tmp"

#: Per-process monotonic sequence making concurrent same-key writers'
#: temp names distinct even within one process (pid alone is not
#: enough once ``repro serve`` runs builds on several threads).
_tmp_counter = itertools.count()


def _tmp_path(path: Path) -> Path:
    """A collision-free temp name next to ``path`` for this writer."""
    return path.with_name(
        f"{path.name}.{os.getpid()}.{next(_tmp_counter)}{_TMP_SUFFIX}"
    )


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _read_corpus_artifact(path: Path) -> PathCorpus:
    """Reader for the binary corpus artifact (sections memory-mapped)."""
    return PathCorpus.from_columns(read_corpus_columns(path))


def _read_topology_artifact(path: Path) -> Topology:
    """Reader for the topology document."""
    return topology_from_document(json.loads(path.read_text(encoding="utf-8")))


def _code_version() -> str:
    from repro import __version__

    return f"{__version__}+cache{PIPELINE_CACHE_VERSION}"


class ArtifactCache:
    """Load/store scenario artifacts under a content-addressed layout.

    ``hits``/``misses`` count load attempts for observability (the warm
    -cache benchmark and the CLI report them); stores are not counted.
    ``store_errors`` counts stores the filesystem refused (the build
    continues uncached) and ``read_retries`` counts loads that saw a
    file vanish mid-read and tried again.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        code_version: Optional[str] = None,
        fs: Optional[CacheFilesystem] = None,
        lock_timeout: float = 10.0,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.code_version = code_version or _code_version()
        self.fs = fs if fs is not None else CacheFilesystem()
        self.lock_timeout = lock_timeout
        self.hits = 0
        self.misses = 0
        self.store_errors = 0
        self.read_retries = 0

    # ------------------------------------------------------------------
    # keys and entry management
    # ------------------------------------------------------------------
    def scenario_key(self, config: "ScenarioConfig") -> str:
        """Stable content address of one scenario under this code."""
        payload = {
            "config": config.canonical_dict(),
            "code": self.code_version,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]

    def entry_lock(self, key: str) -> EntryLock:
        """The advisory cross-process writer lock for one entry."""
        return EntryLock(self.root, key, timeout=self.lock_timeout)

    def _entry_dir(self, key: str) -> Path:
        return self.root / key

    def _discard(self, path: Path) -> None:
        """Best-effort removal of a corrupt artifact or foreign entry."""
        try:
            if path.is_dir():
                self.fs.rmtree(path)
            else:
                self.fs.unlink(path)
        except OSError:
            pass

    def _entry_valid(self, key: str) -> bool:
        """Check the entry's meta record; purge foreign/broken entries."""
        entry = self._entry_dir(key)
        meta_path = entry / _META_FILE
        try:
            meta = json.loads(self.fs.read_text(meta_path))
            if meta.get("code") != self.code_version:
                raise ValueError("code version mismatch")
        except (OSError, ValueError):
            self._discard(entry)
            return False
        return True

    # ------------------------------------------------------------------
    # crash-safe publication
    # ------------------------------------------------------------------
    def _publish_text(self, path: Path, text: str) -> None:
        """Atomically write ``text`` to ``path``; never raises OSError."""
        tmp = _tmp_path(path)
        try:
            self.fs.mkdir(path.parent)
            self.fs.write_text(tmp, text)
            self.fs.replace(tmp, path)
        except OSError:
            self.store_errors += 1
            self._cleanup_tmp(tmp)

    def _publish_file(self, path: Path, writer) -> None:
        """Run ``writer(tmp)`` then rename over ``path``.

        The temp name is unique per writer (pid + counter), so
        concurrent stores of the same artifact never clobber each
        other's half-written files; the rename publishes only complete
        bytes.  A filesystem refusal (``ENOSPC``, read-only root) is
        swallowed after cleanup — the caller keeps its in-memory
        artifact and the entry simply stays cold.
        """
        tmp = _tmp_path(path)
        try:
            self.fs.mkdir(path.parent)
            self.fs.run_writer(writer, tmp)
            self.fs.replace(tmp, path)
        except OSError:
            self.store_errors += 1
            self._cleanup_tmp(tmp)

    def _cleanup_tmp(self, tmp: Path) -> None:
        try:
            self.fs.unlink(tmp)
        except OSError:
            pass

    def _write_meta(self, key: str, config: "ScenarioConfig") -> None:
        entry = self._entry_dir(key)
        try:
            self.fs.mkdir(entry)
        except OSError:
            self.store_errors += 1
            return
        meta_path = entry / _META_FILE
        try:
            existing = json.loads(self.fs.read_text(meta_path))
        except (OSError, ValueError):
            existing = None
        if existing is not None and existing.get("code") == self.code_version:
            return
        # Missing, unreadable, or recorded under different code: (re)write
        # it — a surviving stale record would otherwise fail validation on
        # every load and condemn this key to recomputing forever.
        meta = {
            "code": self.code_version,
            "fingerprint": config.fingerprint(),
            "config": config.canonical_dict(),
        }
        self._publish_text(meta_path, json.dumps(meta, sort_keys=True, indent=1))

    def _load(self, key: str, filename: str, reader) -> Optional[Any]:
        """Shared defensive-load path: validate entry, parse, recover."""
        path = self._entry_dir(key) / filename
        for attempt in (0, 1):
            if not path.exists() or not self._entry_valid(key):
                self.misses += 1
                return None
            try:
                artifact = self.fs.run_reader(reader, path)
            except FileNotFoundError:
                # A concurrent `repro cache clear` (or a writer's entry
                # purge) deleted the file between the existence check
                # and the parse.  Retry once — a concurrent writer may
                # have already republished — then record a miss.
                if attempt == 0:
                    self.read_retries += 1
                    continue
                self.misses += 1
                return None
            except Exception:
                # A corrupted entry must never crash a build: drop the
                # file and fall back to recomputation.
                self._discard(path)
                self.misses += 1
                return None
            self.hits += 1
            return artifact
        return None  # pragma: no cover - loop always returns

    # ------------------------------------------------------------------
    # artifact load/store
    # ------------------------------------------------------------------
    def load_corpus(self, key: str) -> Optional[PathCorpus]:
        """A corpus wrapped around memory-mapped on-disk columns."""
        return self._load(key, _CORPUS_FILE, _read_corpus_artifact)

    def store_corpus(
        self, key: str, corpus: PathCorpus, config: "ScenarioConfig"
    ) -> Path:
        self._write_meta(key, config)
        path = self._entry_dir(key) / _CORPUS_FILE
        self._publish_file(
            path, lambda tmp: write_corpus_columns(corpus.columns(), tmp)
        )
        return path

    def load_topology(self, key: str) -> Optional[Topology]:
        """The generated topology, read back from its JSON document."""
        return self._load(key, _TOPOLOGY_FILE, _read_topology_artifact)

    def store_topology(
        self, key: str, topology: Topology, config: "ScenarioConfig"
    ) -> Path:
        self._write_meta(key, config)
        path = self._entry_dir(key) / _TOPOLOGY_FILE
        self._publish_text(
            path,
            json.dumps(
                topology_document(topology),
                sort_keys=True,
                separators=(",", ":"),
            ),
        )
        return path

    def load_rels(self, key: str, algorithm: str) -> Optional[RelationshipSet]:
        return self._load(key, f"rels-{algorithm}.asrel", read_asrel)

    def store_rels(
        self,
        key: str,
        algorithm: str,
        rels: RelationshipSet,
        config: "ScenarioConfig",
    ) -> Path:
        self._write_meta(key, config)
        path = self._entry_dir(key) / f"rels-{algorithm}.asrel"
        header = [f"inferred by {algorithm} (repro pipeline cache)"]
        self._publish_file(
            path, lambda tmp: write_asrel(rels, tmp, header_lines=header)
        )
        return path

    def load_validation(
        self, key: str, policy: MultiLabelPolicy
    ) -> Optional[CleanedValidation]:
        return self._load(
            key, f"validation-{policy.value}.txt", read_validation_set
        )

    def store_validation(
        self,
        key: str,
        policy: MultiLabelPolicy,
        cleaned: CleanedValidation,
        config: "ScenarioConfig",
    ) -> Path:
        self._write_meta(key, config)
        path = self._entry_dir(key) / f"validation-{policy.value}.txt"
        self._publish_file(path, lambda tmp: write_validation_set(cleaned, tmp))
        return path

    # ------------------------------------------------------------------
    # inspection / maintenance (the ``repro cache`` subcommand)
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """One summary record per cache entry, newest last.

        Robust against concurrent mutation: files (or whole entries)
        deleted between directory listing and ``stat`` are skipped, not
        raised.  Each record also reports crash/concurrency residue —
        ``stragglers`` (leftover ``.tmp`` files from interrupted
        writers) and ``locked`` (whether some process currently holds
        the entry's advisory writer lock).
        """
        if not self.root.is_dir():
            return []
        records = []
        try:
            candidates = sorted(self.root.iterdir())
        except OSError:
            return []
        for entry in candidates:
            if entry.name == LOCK_DIR_NAME or not entry.is_dir():
                continue
            try:
                children = sorted(entry.iterdir())
            except OSError:
                continue  # entry cleared between listing and descent
            files: List[str] = []
            stragglers = 0
            size = 0
            for child in children:
                try:
                    if not child.is_file():
                        continue
                    size += self.fs.stat_size(child)
                except OSError:
                    continue  # vanished between listing and stat
                if child.name.endswith(_TMP_SUFFIX):
                    stragglers += 1
                else:
                    files.append(child.name)
            meta: Dict[str, Any] = {}
            try:
                meta = json.loads(self.fs.read_text(entry / _META_FILE))
            except ValueError:
                meta = {"code": "<unreadable>"}
            except OSError:
                meta = {}
            records.append(
                {
                    "key": entry.name,
                    "files": files,
                    "stragglers": stragglers,
                    "locked": is_locked(self.root, entry.name),
                    "size_bytes": size,
                    "code": meta.get("code"),
                    "seed": meta.get("config", {}).get("seed"),
                    "n_ases": meta.get("config", {})
                    .get("topology", {})
                    .get("n_ases"),
                }
            )
        return records

    def config_for_fingerprint(self, prefix: str) -> Optional["ScenarioConfig"]:
        """Resolve a scenario-fingerprint prefix back into its config.

        Scans entry ``meta.json`` records (same code version only) for a
        fingerprint starting with ``prefix`` and rebuilds the stored
        canonical config.  This is the cross-process scenario-resolution
        seam: a service worker that receives a scenario id admitted by a
        *sibling* worker looks the config up here and then warm-admits
        the same artifacts.  Returns ``None`` when nothing matches.
        """
        from repro.config import ConfigError, config_from_canonical

        if not prefix or not self.root.is_dir():
            return None
        try:
            candidates = sorted(self.root.iterdir())
        except OSError:
            return None
        for entry in candidates:
            if entry.name == LOCK_DIR_NAME or not entry.is_dir():
                continue
            try:
                meta = json.loads(self.fs.read_text(entry / _META_FILE))
            except (OSError, ValueError):
                continue
            if meta.get("code") != self.code_version:
                continue
            fingerprint = meta.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint.startswith(
                prefix
            ):
                continue
            try:
                return config_from_canonical(meta.get("config", {}))
            except (ConfigError, TypeError, KeyError):
                continue  # stale/foreign record; keep scanning
        return None

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed.

        Also sweeps lock files nobody currently holds (a held lock is
        left alone — its owner is mid-build and will simply repopulate
        a fresh entry).
        """
        removed = 0
        for record in self.entries():
            self._discard(self.root / record["key"])
            removed += 1
        self._sweep_locks()
        return removed

    def _sweep_locks(self) -> None:
        lock_dir = self.root / LOCK_DIR_NAME
        if not lock_dir.is_dir():
            return
        try:
            lock_files = sorted(lock_dir.iterdir())
        except OSError:
            return
        for path in lock_files:
            if path.suffix != ".lock":
                continue
            if is_locked(self.root, path.stem):
                continue
            try:
                self.fs.unlink(path)
            except OSError:
                pass

    def total_size(self) -> int:
        return sum(record["size_bytes"] for record in self.entries())


def resolve_cache(
    cache: Union[None, bool, str, Path, ArtifactCache]
) -> Optional[ArtifactCache]:
    """Coerce the ``cache`` argument accepted by ``build_scenario``.

    ``None``/``False`` disable caching, ``True`` uses the default root,
    a path string uses that root, and an :class:`ArtifactCache` is
    passed through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ArtifactCache()
    if isinstance(cache, ArtifactCache):
        return cache
    return ArtifactCache(root=cache)
