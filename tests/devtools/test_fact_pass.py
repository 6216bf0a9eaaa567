"""The module-fact pass: one node list per module, equal to the walkers.

:func:`repro.devtools.registry.walk_module` lists a module's nodes once
and sets the parent links; the fact helpers filter that list.  These
tests hold them to the per-fact ``ast.walk`` pre-passes they replaced
(``reference_prepasses.py``) on every fixture and every ``src/repro``
module, plus hand cases for nested-function detection and for the one
executor-binding table PICKLE001 and the summariser share.
"""

import ast
import gc
import weakref
from pathlib import Path

import pytest

from repro.devtools import LintConfig, run_lint
from repro.devtools.analysis.summaries import summarize_module
from repro.devtools.registry import parent_of, walk_module
from repro.devtools.rules.determinism import _numpy_aliases
from repro.devtools.rules.pickling import (
    _executor_bindings,
    _nested_function_names,
)

from tests.devtools import reference_prepasses as reference
from tests.devtools import reference_summarizer

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

CORPORA = {
    "fixtures": sorted(FIXTURES.rglob("*.py")),
    "src/repro": sorted(SRC_REPRO.rglob("*.py")),
}


#: Node types CPython shares as singletons across every tree (``Load``,
#: ``Add``, ...): their parent link is whichever parent was listed last,
#: so only the other nodes have a parent to compare.
SHARED_NODES = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop,
                ast.cmpop)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_node_list_and_parents_match_the_reference(corpus):
    paths = CORPORA[corpus]
    assert paths
    for path in paths:
        expected_tree, tree = _parse(path), _parse(path)
        reference._annotate_parents(expected_tree)
        nodes = walk_module(tree)
        assert nodes == list(ast.walk(tree)), path
        # Same shape, same walk order: compare parents by position.
        expected = list(ast.walk(expected_tree))
        index = {id(node): i for i, node in enumerate(nodes)}
        expected_index = {id(node): i for i, node in enumerate(expected)}
        for got, want in zip(nodes, expected):
            assert type(got) is type(want), path
            got_parent = parent_of(got)
            want_parent = getattr(want, "_lint_parent", None)
            assert (got_parent is None) == (want_parent is None), path
            if got_parent is not None:
                assert (index[id(got_parent)]
                        == expected_index[id(want_parent)]), path


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_fact_helpers_match_the_reference(corpus):
    for path in CORPORA[corpus]:
        tree = _parse(path)
        nodes = walk_module(tree)
        assert _numpy_aliases(nodes) == reference._numpy_aliases(tree), path
        assert (_nested_function_names(nodes)
                == reference._nested_function_names(tree)), path
        bindings = _executor_bindings(nodes)
        assert bindings == reference._executor_kinds(tree), path
        # The table also binds attribute chains (``self._pool``); its
        # bare process-pool names are PICKLE001's reference.
        assert ({name for name, kind in bindings.items()
                 if kind == "process" and "." not in name}
                == reference._process_pool_names(tree)), path


def test_the_corpora_exercise_every_fact():
    trees = [_parse(path) for paths in CORPORA.values() for path in paths]
    assert any(any(reference._numpy_aliases(tree)) for tree in trees)
    assert any(reference._nested_function_names(tree) for tree in trees)
    assert any(reference._executor_kinds(tree) for tree in trees)
    assert any(reference._process_pool_names(tree) for tree in trees)


def _nested(source: str):
    return _nested_function_names(walk_module(ast.parse(source)))


def test_def_inside_an_if_inside_a_def_is_nested():
    assert _nested(
        "def outer(flag):\n"
        "    if flag:\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner\n"
    ) == {"inner"}


def test_method_of_a_class_defined_in_a_function_is_nested():
    assert _nested(
        "def factory():\n"
        "    class Local:\n"
        "        def method(self):\n"
        "            return 1\n"
        "    return Local\n"
    ) == {"method"}


def test_async_defs_nest_and_are_nested():
    assert _nested(
        "async def outer():\n"
        "    async def inner():\n"
        "        def deepest():\n"
        "            return 1\n"
        "        return deepest\n"
        "    return inner\n"
    ) == {"inner", "deepest"}


def test_module_level_class_methods_are_not_nested():
    source = (
        "class Top:\n"
        "    def method(self):\n"
        "        return 1\n"
        "\n"
        "    class Inner:\n"
        "        async def other(self):\n"
        "            return 2\n"
        "\n"
        "def plain():\n"
        "    return 3\n"
    )
    assert _nested(source) == set()
    assert reference._nested_function_names(ast.parse(source)) == set()


def test_attribute_bound_pools_are_recorded():
    nodes = walk_module(ast.parse(
        "from concurrent.futures import ProcessPoolExecutor\n"
        "class Runner:\n"
        "    def __init__(self):\n"
        "        self._pool = ProcessPoolExecutor()\n"
        "    def run(self):\n"
        "        with ProcessPoolExecutor() as self.scoped:\n"
        "            pass\n"
        "pool = ProcessPoolExecutor()\n"
    ))
    assert _executor_bindings(nodes) == {"self._pool": "process",
                                         "self.scoped": "process",
                                         "pool": "process"}


def _executor_refs(source: str):
    summary = summarize_module("mod.py", ast.parse(source), ())
    return [ref for record in summary["functions"]
            for ref in record["executor_refs"]]


def _reference_executor_refs(source: str):
    summary = reference_summarizer.summarize_module(
        "mod.py", ast.parse(source), ())
    return [ref for record in summary["functions"]
            for ref in record["executor_refs"]]


#: A class whose name merely ends in ``ProcessPoolExecutor``.
_LOOKALIKE = (
    "from lib import MyProcessPoolExecutor\n"
    "pool = MyProcessPoolExecutor()\n"
    "def run(work):\n"
    "    pool.submit(work)\n"
    "    pool.submit(lambda: 1)\n"
    "    MyProcessPoolExecutor().submit(work)\n"
    "    MyProcessPoolExecutor(initializer=work)\n"
)


def test_executor_names_match_at_a_dotted_boundary():
    # The table matches the class name at a dotted boundary, as
    # PICKLE001 always did; the old summariser took any callee ending
    # in "ProcessPoolExecutor" for a process pool.
    assert _executor_bindings(walk_module(ast.parse(_LOOKALIKE))) == {}
    assert _executor_refs(_LOOKALIKE) == []
    assert _reference_executor_refs(_LOOKALIKE) == [
        ["process", "work", 4], ["process", "work", 6],
        ["process_init", "work", 7],
    ]
    dotted = ("import concurrent.futures as cf\n"
              "pool = cf.ProcessPoolExecutor()\n"
              "def run(work):\n"
              "    pool.submit(work)\n")
    assert _executor_refs(dotted) == [["process", "work", 4]]


#: A name bound to a process pool, then rebound to a thread pool.
_REBOUND = (
    "from concurrent.futures import (ProcessPoolExecutor,\n"
    "                                ThreadPoolExecutor)\n"
    "pool = ProcessPoolExecutor()\n"
    "pool = ThreadPoolExecutor()\n"
    "def run(work):\n"
    "    pool.submit(work)\n"
    "    pool.submit(lambda: 1)\n"
)


def test_a_name_ever_bound_to_a_process_pool_stays_one():
    # Flow-insensitive, as PICKLE001 always was: a submission through a
    # name that was ever a process pool may cross a process boundary.
    # The old summariser kept the last binding's kind ("thread").
    assert _executor_bindings(walk_module(ast.parse(_REBOUND))) == {
        "pool": "process"}
    assert _executor_refs(_REBOUND) == [["process", "work", 6]]
    assert _reference_executor_refs(_REBOUND) == [["thread", "work", 6]]
    reverse = _REBOUND.replace("pool = ProcessPoolExecutor()\n", "").replace(
        "pool = ThreadPoolExecutor()\n",
        "pool = ThreadPoolExecutor()\npool = ProcessPoolExecutor()\n")
    assert _executor_refs(reverse) == [["process", "work", 6]]


def test_pickle001_and_the_summaries_read_one_table(tmp_path):
    for name, source in (("lookalike.py", _LOOKALIKE),
                         ("rebound.py", _REBOUND)):
        (tmp_path / name).write_text(source, encoding="utf-8")
    result = run_lint([tmp_path], LintConfig(select=["PICKLE001"]))
    assert [(finding.path.rsplit("/", 1)[-1], finding.line)
            for finding in result.findings] == [("rebound.py", 7)]


#: Uses a context, a binary, a boolean, a unary and a comparison
#: operator singleton; ``_SECOND`` uses only ``Load``.
_FIRST = "x = a + b\nif not x and y:\n    z = -x < 3\n"
_SECOND = "print(1)\n"


def _shared_singletons(source: str):
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, SHARED_NODES)]


def test_shared_singletons_get_no_parent(tmp_path):
    singletons = _shared_singletons(_FIRST)
    for name, source in (("first.py", _FIRST), ("second.py", _SECOND)):
        (tmp_path / name).write_text(source, encoding="utf-8")
    run_lint([tmp_path], LintConfig(), whole_program=True)
    assert {type(node).__name__ for node in singletons} >= {
        "Load", "Store", "Add", "And", "Not", "USub", "Lt",
    }
    for node in singletons + [ast.Load()]:
        assert parent_of(node) is None, type(node).__name__


def test_walked_trees_are_not_kept_alive():
    first = ast.parse(_FIRST)
    nodes = walk_module(first)
    # Still listed, so ctx.nodes and the findings keep their shape.
    assert sum(isinstance(node, SHARED_NODES) for node in nodes) >= 7
    ref = weakref.ref(first)
    del first, nodes
    walk_module(ast.parse(_SECOND))
    gc.collect()
    assert ref() is None
