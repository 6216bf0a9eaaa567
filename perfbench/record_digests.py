"""Pin the ``reproduce_cold`` outputs of every pool seed.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are known to be right.
It rebuilds each seed of ``SEED_POOL`` cold and writes the as-rel and
table/bias digests to ``perfbench/expected_digests.json``.  A change to
the program that alters these bytes breaks the determinism contract and
must say so; re-pinning is a deliberate act, never part of a perf change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from pipeline_wl import (  # noqa: E402
    EXPECTED_PATH,
    SEED_POOL,
    reproduce_digests,
    reproduce_once,
)


def main() -> int:
    pinned = {}
    work = Path.cwd() / ".perfbench_work"
    work.mkdir(exist_ok=True)
    for seed in SEED_POOL:
        root = Path(tempfile.mkdtemp(dir=work, prefix="pin"))
        try:
            scenario, _, outputs = reproduce_once(root, seed)
            pinned[str(seed)] = reproduce_digests(scenario, *outputs)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        print(seed, pinned[str(seed)]["asrank"][:12], flush=True)
    EXPECTED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
