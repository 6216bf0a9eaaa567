"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reproduce_cold --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout.  The benchmark imports the program from
``src/`` of that checkout (never an installed copy), keeps every file it
writes under ``.perfbench_work/`` there, and removes them on exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is the run record: host facts, seeds, scale, raw
set-up and operation times.  The exit code is 0 when every output was
correct, 1 when an output was wrong, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import END_TO_END, MID_ASES, MID_VPS, PER_LAYER, Context, host_facts  # noqa: E402

WORKLOADS = ("reproduce_cold", "reanalyze_warm", "serve_mix", "lint_synth")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def dispatch(ctx: Context):
    if ctx.workload == "reproduce_cold":
        from pipeline_wl import run_reproduce_cold
        return run_reproduce_cold(ctx)
    if ctx.workload == "reanalyze_warm":
        from pipeline_wl import run_reanalyze_warm
        return run_reanalyze_warm(ctx)
    if ctx.workload == "serve_mix":
        from serve_wl import run_serve_mix
        return run_serve_mix(ctx)
    from lint_wl import run_lint_synth
    return run_lint_synth(ctx)


def _terminate(signum, _frame) -> None:
    # Unwind through the finally blocks: stop the server, remove files.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    facts = host_facts()
    # Compile bytecode before the clock starts, so a fresh checkout does
    # not put compile time into one side's set-up only.
    compileall.compile_dir(str(src), quiet=2, workers=1)
    compileall.compile_dir(str(HERE), quiet=2, workers=1)

    # Pin the run to one core: the work and the drift calibration then
    # always share a core.  serve_mix moves this process (the client)
    # to the last core and pins the server it starts to the first.
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    os.sched_setaffinity(0, {cpus[0]})

    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Nothing may reach ~/.cache/repro or a previous run's entries.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    sys.path.insert(0, str(src))
    try:
        t0 = time.perf_counter()
        import repro  # noqa: F401  (the set-up clock starts here)

        if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
            print(f"perfbench: imported repro from {repro.__file__}, "
                  f"not from {src}", file=sys.stderr)
            return 2
        ctx = Context(root=root, workdir=workdir, workload=args.workload,
                      seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), t0=t0, cpus=cpus)
        outcome = dispatch(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        names = PER_LAYER
        values = {name: outcome.per_layer.get(name, 0.0) for name in names}
    else:
        names = END_TO_END
        values = outcome.end_to_end
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in names.items()}
    correct = not outcome.errors and outcome.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": {"ases": MID_ASES, "vps": MID_VPS},
        "host": {**facts, "cpus": list(cpus), "pinned_cpu": cpus[0]},
        **outcome.record,
        "errors": outcome.errors[:20],
    }
    for error in outcome.errors[:20]:
        print(f"perfbench: wrong output: {error}", file=sys.stderr)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
