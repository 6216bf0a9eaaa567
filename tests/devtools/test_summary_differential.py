"""The one-walk summariser against the NodeVisitor reference.

A lint summarises each missed module inside the rule walker's one walk
(:class:`repro.devtools.analysis.summaries._Summarizer` is a walker
participant), where it used to walk the tree again with its own
``ast.NodeVisitor``.  That visitor is kept verbatim in
``reference_summarizer.py``; the summaries must be byte-identical under
``json.dumps(sort_keys=True)`` on every fixture module, every
``src/repro`` module, a package from perfbench's lint generator and a
hand-written module of nested scopes and lock shapes.
Summaries from the lint's fused walk (the cache entries) are checked
too, not only :func:`summarize_module`'s summariser-only walk.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from repro.devtools import LintConfig
from repro.devtools.analysis import summarize_module
from repro.devtools.analysis.project import ModuleEntries

from tests.devtools import reference_summarizer as reference

pytestmark = pytest.mark.differential

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = ROOT / "src" / "repro"
HOT = LintConfig().perf_hot_names


def _lintgen():
    spec = importlib.util.spec_from_file_location(
        "lintgen_for_tests", ROOT / "perfbench" / "lintgen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dump(summary) -> str:
    return json.dumps(summary, sort_keys=True)


def _modules(root: Path):
    """``(relpath, source, reference summary JSON)`` per parsable module."""
    modules = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        relpath = path.relative_to(root.parent).as_posix()
        modules.append((relpath, source, _dump(
            reference.summarize_module(relpath, tree, HOT))))
    return modules


#: Scope and lock shapes the real corpora barely use: defs, classes and
#: lambdas nested in each other and in ``with`` blocks, several lock
#: items, async locks, globals and ``np.fromiter`` generators.
EDGE_CASES = """\
import asyncio
import threading
import time as clock
from concurrent.futures import ProcessPoolExecutor
import numpy as np
from numpy import random as npr

STATE = {}
_lock = threading.Lock()


def outer(items):
    global COUNT
    COUNT = 0
    with _lock:
        STATE["a"] = 1
        def inner():
            STATE["b"] = clock.time()
            return {1, 2}
        worker = lambda: STATE.update(c=np.random.rand())
    with open("f") as handle, self_lock() as held:
        STATE.pop("a")
    values = np.fromiter((x for x in items), dtype=int)
    return [v for v in values], inner, worker


class Outer:
    class Inner:
        def set(self):
            self.value = 1
            with self._lock:
                self.items.append(npr.default_rng())

    def __init__(self):
        self.value = 0
        self.pool = ProcessPoolExecutor(initializer=outer)

    def run(self, corpus):
        self.value += 1
        for path in corpus.paths:
            self.pool.submit(outer, path)
        def local():
            class Deep:
                def poke(self):
                    self.hits[0] = 1
            return Deep
        return local


async def serve(lock, queue):
    async with asyncio.Lock():
        await queue.get()
        with lock, threading.Lock() as second:
            STATE["d"] = await queue.get()
            async with lock:
                await queue.put(1)
    for index in range(len(queue)):
        del STATE[index]
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, outer, [])
"""


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    generated = tmp_path_factory.mktemp("lintgen")
    lintgen = _lintgen()
    lintgen.generate(generated, 7)
    edge = tmp_path_factory.mktemp("edge") / "edgepkg"
    edge.mkdir()
    (edge / "cases.py").write_text(EDGE_CASES, encoding="utf-8")
    return {
        "edge cases": _modules(edge),
        "fixtures": _modules(FIXTURES),
        "src/repro": _modules(SRC_REPRO),
        "lintgen": _modules(generated / lintgen.PACKAGE),
    }


@pytest.mark.parametrize("corpus", ["edge cases", "fixtures", "src/repro",
                                    "lintgen"])
def test_summaries_match_the_reference(corpora, corpus):
    modules = corpora[corpus]
    assert modules
    for relpath, source, expected in modules:
        got = _dump(summarize_module(relpath, ast.parse(source), HOT))
        assert got == expected, relpath


@pytest.mark.parametrize("corpus", ["edge cases", "fixtures", "src/repro",
                                    "lintgen"])
def test_lint_walk_summaries_match_the_reference(corpora, corpus):
    # The summariser sharing the walk with every module rule.
    entries = ModuleEntries(LintConfig())
    for relpath, source, expected in corpora[corpus]:
        got = _dump(entries.entry(relpath, source).summary)
        assert got == expected, relpath


def test_the_corpora_exercise_every_fact(corpora):
    records = [
        record
        for modules in corpora.values()
        for _relpath, _source, expected in modules
        for record in json.loads(expected)["functions"]
    ]
    for fact in ("calls", "executor_refs", "sources", "loops",
                 "mutations", "lock_awaits"):
        assert any(record[fact] for record in records), fact
    mutations = [row for record in records for row in record["mutations"]]
    assert {guarded for _key, _line, guarded in mutations} == {0, 1}
    kinds = {row[0] for record in records for row in record["sources"]}
    assert kinds == {"rng", "clock", "unordered"}
