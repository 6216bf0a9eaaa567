"""Seeded generator of the ``lint_synth`` input package.

The package is about the size of the repository's own ``src/`` (around a
hundred modules, twenty thousand lines) but independent of it, so a
change that adds or removes program lines does not change the workload.
It has import chains across sub-packages, ``self.`` and alias calls,
executor submissions, and a seeded number of planted findings for the
whole-program rule families (FLOW1xx, PERF0xx, CONC0xx).  Every other
module is clean under every rule.

:func:`generate` writes the package and returns the planted counts by
rule id, which the benchmark compares with the linter's findings.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path
from typing import Dict, List

PACKAGE = "synthpkg"
LAYERS = 6
MODULES_PER_LAYER = 15
FUNCTIONS_PER_MODULE = 9
METHODS_PER_CLASS = 7

#: Rule id -> the module text of one planted instance (``{j}`` = index).
PLANTS: Dict[str, Dict[str, str]] = {
    "FLOW101": {
        "rng_{j}": '''"""Entropy source invisible to the per-file rules."""

import numpy as np


def noise():
    gen = np.random.Generator(np.random.PCG64())
    return gen.random()
''',
        "mix_{j}": '''"""A pass-through hop."""

from {pkg}.taint import rng_{j}


def mixed(values):
    base = rng_{j}.noise()
    return base + len(values)
''',
        "fp_{j}": '''"""A fingerprint sink."""

from {pkg}.taint.mix_{j} import mixed


def table_fingerprint(values):
    return f"{{mixed(values):.6f}}"
''',
    },
    "FLOW102": {
        "clock_{j}": '''"""Wall-clock source."""

import time


def stamp():
    return time.time()
''',
        "key_{j}": '''"""A cache-key sink."""

from {pkg}.taint.clock_{j} import stamp


def build_key(name):
    return f"{{name}}-{{stamp()}}"
''',
    },
    "FLOW103": {
        "tagset_{j}": '''"""Returns a set: its iteration order is arbitrary."""


def tags(items):
    return {{item[0] for item in items}}
''',
        "dig_{j}": '''"""A digest sink joining the set in iteration order."""

from {pkg}.taint.tagset_{j} import tags


def digest_tags(items):
    return ",".join(str(tag) for tag in tags(items))
''',
    },
    "PERF001": {
        "accum_{j}": '''"""A scalar loop over a corpus structure on the hot path."""


def accumulate(corpus):
    total = 0
    for path in corpus.paths:
        total += len(path)
    return total
''',
    },
    "PERF002": {
        "walk_{j}": '''"""An index loop over a corpus structure on the hot path."""


def walk(paths):
    out = []
    for i in range(len(paths)):
        out.append(paths[i])
    return out
''',
    },
    "CONC001": {
        "shared_{j}": '''"""A dict written from the event loop and an executor thread."""

CACHE = {{}}


async def refresh(loop, pool, key):
    value = await loop.run_in_executor(pool, compute, key)
    CACHE[key] = value
    return value


def compute(key):
    result = key * 2
    CACHE[key] = result
    return result
''',
    },
    "CONC002": {
        "held_{j}": '''"""An await while a synchronous lock is held."""

import threading

_lock = threading.Lock()


async def flush(writer):
    with _lock:
        await writer.drain()
''',
    },
    "CONC003": {
        "procs_{j}": '''"""A process-pool worker writing module state (a lost update)."""

from concurrent.futures import ProcessPoolExecutor

TOTALS = {{}}


def tally_chunk(chunk):
    TOTALS[chunk[0]] = sum(chunk)
    return sum(chunk)


def run(chunks):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(tally_chunk, chunks))
''',
    },
}

#: Plants whose functions the hot entry module calls.
HOT_CALLS = {"PERF001": ("accum_{j}", "accumulate"),
             "PERF002": ("walk_{j}", "walk")}


def _filler_function(rng: random.Random, name: str, callees: List[str]) -> str:
    """A clean function: arithmetic, loops over ranges, calls."""
    a, b = rng.randint(2, 9), rng.randint(3, 17)
    calls = "".join(f"    acc += {callee}(width + {k})\n"
                    for k, callee in enumerate(callees))
    return f'''

def {name}(width, depth={a}):
    """Combine a few scaled sums ({a}, {b})."""
    acc = 0
    for step in range(width):
        acc += (step * {b}) % (depth + 1)
        if acc > {1000 * b}:
            acc -= {b}
    values = [step * {a} for step in range(depth)]
    table = {{step: step * step for step in range(depth)}}
    acc += sum(values) + len(table)
    while depth > 0:
        depth -= 1
        acc ^= depth
{calls}    return acc
'''


def _filler_class(rng: random.Random, name: str, helpers: List[str]) -> str:
    methods = []
    for m in range(METHODS_PER_CLASS):
        nxt = (f"        total += self.step_{m + 1}(count - 1)\n"
               if m + 1 < METHODS_PER_CLASS else "")
        helper = (f"        total += {rng.choice(helpers)}(count)\n"
                  if helpers and rng.random() < 0.6 else "")
        methods.append(f'''
    def step_{m}(self, count):
        total = self.base + count
        if count <= 0:
            return total
{nxt}{helper}        self.calls += 1
        return total
''')
    return f'''

class {name}:
    """A small stateful helper with a chain of self-calls."""

    def __init__(self, base):
        self.base = base
        self.calls = 0
{"".join(methods)}
    def run(self, count):
        return self.step_0(count)
'''


def _filler_module(rng: random.Random, layer: int, index: int,
                   earlier: List[str]) -> str:
    imports = []
    aliases = []
    for k, target in enumerate(rng.sample(earlier, min(3, len(earlier)))):
        alias = f"dep{k}"
        imports.append(f"from {PACKAGE}.{target.rsplit('.', 1)[0]} import "
                       f"{target.rsplit('.', 1)[1]} as {alias}")
        aliases.append(f"{alias}.fn_{rng.randrange(FUNCTIONS_PER_MODULE)}")
    head = ['"""Generated module (clean under every rule)."""', "",
            "from concurrent.futures import ThreadPoolExecutor"]
    if imports:
        head.append("")
        head.extend(imports)
    body = []
    for f in range(FUNCTIONS_PER_MODULE):
        local = [f"fn_{g}" for g in range(f) if rng.random() < 0.3][:2]
        external = [a for a in aliases if rng.random() < 0.3][:1]
        body.append(_filler_function(rng, f"fn_{f}", local + external))
    body.append(_filler_class(rng, f"Worker{layer}x{index}",
                              [f"fn_{f}" for f in range(FUNCTIONS_PER_MODULE)]))
    body.append(f'''

def fan_out(widths):
    """Submit pure work to a thread pool and gather it."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(fn_{rng.randrange(FUNCTIONS_PER_MODULE)}, w)
                   for w in widths]
        return [future.result() for future in futures]
''')
    return "\n".join(head) + "\n" + "".join(body)


def generate(root: Path, seed: int) -> Counter:
    """Write ``root/synthpkg`` for ``seed``; return planted counts."""
    rng = random.Random(f"lint_synth:{seed}")
    pkg = root / PACKAGE
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""Generated lint input."""\n')
    modules: List[str] = []
    for layer in range(LAYERS):
        sub = pkg / f"layer{layer}"
        sub.mkdir()
        (sub / "__init__.py").write_text("")
        for index in range(MODULES_PER_LAYER):
            text = _filler_module(rng, layer, index, modules)
            (sub / f"mod{index}.py").write_text(text)
        modules.extend(f"layer{layer}.mod{index}"
                       for index in range(MODULES_PER_LAYER))

    taint = pkg / "taint"
    taint.mkdir()
    (taint / "__init__.py").write_text("")
    planted: Counter = Counter()
    hot_imports = []
    hot_calls = []
    for rule_id in sorted(PLANTS):
        for j in range(rng.randint(1, 3)):
            for stem, template in PLANTS[rule_id].items():
                name = stem.format(j=j)
                (taint / f"{name}.py").write_text(
                    template.format(j=j, pkg=PACKAGE))
            planted[rule_id] += 1
            if rule_id in HOT_CALLS:
                stem, func = HOT_CALLS[rule_id]
                module = stem.format(j=j)
                hot_imports.append(f"from {PACKAGE}.taint import {module}")
                arg = "corpus" if rule_id == "PERF001" else "corpus.paths"
                hot_calls.append(f"    total += len(str({module}.{func}({arg})))")

    # The hot entry module: reaches the PERF plants and the filler.
    entry_deps = rng.sample(modules, 6)
    lines = ['"""Hot entry module (configured as a PERF entry point)."""', ""]
    lines += hot_imports
    lines += [f"from {PACKAGE}.{m.rsplit('.', 1)[0]} import "
              f"{m.rsplit('.', 1)[1]} as entry{k}"
              for k, m in enumerate(entry_deps)]
    lines += ["", "", "def propagate(corpus, width):", "    total = 0"]
    lines += hot_calls
    lines += [f"    total += entry{k}.fn_{rng.randrange(FUNCTIONS_PER_MODULE)}"
              f"(width)" for k in range(len(entry_deps))]
    lines += ["    return total", ""]
    (pkg / "engine.py").write_text("\n".join(lines))
    return planted


def source_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in (root / PACKAGE).rglob("*.py"))
