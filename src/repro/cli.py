"""Command-line interface.

Exposes the reproduction pipeline without writing Python::

    repro figures --ases 1000            # Figures 1-3
    repro table asrank --ases 1000       # Tables 1-3 style output
    repro casestudy                      # the §6.1 investigation
    repro build --out ./artifacts        # export all dataset files
    repro export --out ./results         # machine-readable results bundle
    repro evolve --months 6              # §7 re-sampling experiment
    repro attack --hijacks 3 --leaks 2   # polluted-corpus impact report
    repro cache list [--json]            # inspect the artifact cache
    repro corpus stats [--json]          # corpus counters + columnar memory
    repro serve --port 8787              # HTTP query service (repro.service)
    repro lint [--format json]           # AST contract linter (repro.devtools)

Every command accepts ``--ases``, ``--vps``, ``--seed`` and
``--churn-rounds`` to size the synthetic Internet (defaults are scaled
down from the paper-scale scenario so the CLI answers in seconds),
plus the execution-policy knobs ``--workers N`` (propagation worker
processes; 0 = serial, -1 = usable cores), ``--cache`` / ``--no-cache``
(reuse scenario artifacts from the content-addressed cache under
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import ScenarioConfig, build_scenario
from repro.pipeline.parallel import MAX_WORKERS, resolve_workers
from repro.analysis.report import (
    render_bias_figure,
    render_imbalance_heatmaps,
    render_validation_table,
)
from repro.scenario import ALGORITHM_NAMES, Scenario


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ases", type=int, default=1000,
                        help="number of ASes (default 1000)")
    parser.add_argument("--vps", type=int, default=90,
                        help="number of vantage points (default 90)")
    parser.add_argument("--seed", type=int, default=2018,
                        help="scenario seed (default 2018)")
    parser.add_argument("--churn-rounds", type=int, default=2,
                        help="extra collection rounds with link churn")
    parser.add_argument("--workers", type=int, default=0,
                        help="propagation worker processes "
                             "(0 = serial, -1 = usable cores; default 0)")
    parser.add_argument("--cache", dest="cache", action="store_true",
                        default=False,
                        help="reuse scenario artifacts from the cache")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        help="force recomputation (default)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (default $REPRO_CACHE_DIR "
                             "or ~/.cache/repro)")


def _config_from(args: argparse.Namespace) -> ScenarioConfig:
    config = ScenarioConfig.default().replace(seed=args.seed)
    config.topology.n_ases = args.ases
    config.measurement.n_vantage_points = args.vps
    config.measurement.n_churn_rounds = args.churn_rounds
    config.validate()
    return config


def _cache_from(args: argparse.Namespace):
    if not getattr(args, "cache", False):
        return None
    from repro.pipeline.cache import ArtifactCache

    return ArtifactCache(root=args.cache_dir)


def _build(args: argparse.Namespace) -> Scenario:
    # One shared normalisation for every command (and `repro serve`):
    # 0 = serial, -1/None = usable cores, positive counts literal.
    workers = resolve_workers(args.workers)
    print(
        f"building scenario (ases={args.ases}, vps={args.vps}, "
        f"seed={args.seed}, workers={workers}, "
        f"cache={'on' if args.cache else 'off'}) ...",
        file=sys.stderr,
    )
    cache = _cache_from(args)
    scenario = build_scenario(
        _config_from(args), workers=workers, cache=cache
    )
    if cache is not None:
        print(
            f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"under {cache.root}",
            file=sys.stderr,
        )
    return scenario


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_figures(args: argparse.Namespace) -> int:
    scenario = _build(args)
    print(render_bias_figure(scenario.regional_bias(),
                             "Figure 1 — regional imbalance"))
    print()
    print(render_bias_figure(scenario.topological_bias(),
                             "Figure 2 — topological imbalance"))
    print()
    print(render_imbalance_heatmaps(
        scenario.imbalance_heatmaps("transit_degree", caps=(300.0, 60.0))
    ))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    scenario = _build(args)
    for name in args.algorithms:
        print(render_validation_table(scenario.validation_table(name)))
        print()
    return 0


def cmd_casestudy(args: argparse.Namespace) -> int:
    scenario = _build(args)
    result = scenario.case_study("asrank")
    print(f"wrongly-P2P T1-TR links: {result.n_wrong}")
    print(f"focus clique member: AS{result.focus_member} "
          f"({result.focus_share:.0%} of wrong links)")
    print(f"looking-glass audited targets: {len(result.targets)}")
    print(f"  partial transit confirmed: {result.n_partial_transit_confirmed}")
    print(f"  stale validation: {result.n_stale_validation}")
    triplets = sum(1 for t in result.targets if t.has_clique_triplet)
    print(f"  targets with clique triplet evidence: {triplets}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from repro.datasets.as2org import write_as2org
    from repro.datasets.asrel import write_asrel
    from repro.datasets.bgpdump import write_path_corpus
    from repro.datasets.delegation import write_delegation_files
    from repro.datasets.iana import write_iana_registry

    scenario = _build(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_asrel(scenario.infer("asrank"), out / "as-rel.txt",
                header_lines=["inferred by asrank (repro simulator)"])
    write_as2org(scenario.topology.orgs, out / "as2org.txt")
    write_iana_registry(scenario.topology.region_map.iana_blocks,
                        out / "as-numbers.csv")
    assignments = {
        node.asn: node.region
        for node in scenario.topology.graph.nodes()
        if node.region is not None
    }
    write_delegation_files(assignments, out / "delegations")
    n_routes = write_path_corpus(scenario.corpus, out / "paths.txt")
    print(f"wrote artifacts to {out} ({n_routes} routes)")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import write_results_bundle

    scenario = _build(args)
    directory = write_results_bundle(scenario, args.out)
    files = sorted(f.name for f in directory.iterdir())
    print(f"wrote results bundle to {directory}: {', '.join(files)}")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    from repro.evolution import EvolutionConfig, EvolutionSimulator

    config = _config_from(args)
    simulator = EvolutionSimulator(
        config, EvolutionConfig(months=args.months)
    )
    print(f"evolving {args.months} months ...", file=sys.stderr)
    result = simulator.run()
    print("month  validated-links  visible-links")
    for month, (labels, visible) in enumerate(
        zip(result.monthly_label_counts, result.monthly_visible_links)
    ):
        print(f"{month:5d}  {labels:15d}  {visible:13d}")
    gain = result.oversampling_gain(min_gap_months=args.resample_gap)
    print(f"\nunique samples (gap >= {args.resample_gap} months): "
          f"{result.temporal.unique_samples(args.resample_gap)}")
    print(f"over-sampling gain vs best single snapshot: {gain:.2f}x")
    print(f"links whose validated relationship changed: "
          f"{len(result.temporal.changed_links())}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.pipeline.cache import ArtifactCache

    cache = ArtifactCache(root=args.cache_dir)
    if args.action == "path":
        if args.json:
            print(json.dumps({"root": str(cache.root)}))
        else:
            print(cache.root)
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0
    # list
    records = cache.entries()
    if args.json:
        # Machine-readable listing for the query service and scripts.
        print(json.dumps(
            {
                "root": str(cache.root),
                "total_size_bytes": cache.total_size(),
                "entries": records,
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    if not records:
        print(f"cache at {cache.root} is empty")
        return 0
    print(f"cache at {cache.root} — {len(records)} entr"
          f"{'y' if len(records) == 1 else 'ies'}, "
          f"{cache.total_size() / 1e6:.1f} MB")
    for record in records:
        seed = record["seed"] if record["seed"] is not None else "?"
        ases = record["n_ases"] if record["n_ases"] is not None else "?"
        # Concurrency residue: a held writer lock means some process is
        # building this entry right now; .tmp stragglers are leftovers
        # of interrupted writers (harmless, swept by `cache clear`).
        flags = ""
        if record.get("locked"):
            flags += "  [locked]"
        if record.get("stragglers"):
            flags += f"  [{record['stragglers']} tmp straggler(s)]"
        print(f"  {record['key']}  seed={seed} ases={ases} "
              f"{record['size_bytes'] / 1e6:6.1f} MB  "
              f"[{', '.join(record['files'])}]{flags}")
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    scenario = _build(args)
    payload = scenario.corpus_stats()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    stats = payload["stats"]
    memory = payload["memory"]
    intern = payload["intern_tables"]
    print(f"corpus: {stats['n_routes']} routes from "
          f"{stats['n_vps']} vantage points")
    print(f"  visible links    : {stats['n_visible_links']}")
    print(f"  visible ASes     : {stats['n_visible_ases']}")
    print(f"  triplets         : {stats['n_triplets']}")
    print(f"  with communities : {stats['n_routes_with_communities']}")
    print(f"layout: {memory['layout']}")
    print("intern tables: "
          + ", ".join(f"{key}={intern[key]}" for key in sorted(intern)))
    print(f"columnar memory: {memory['total_bytes'] / 1e6:.1f} MB")
    for section, nbytes in sorted(memory["columns_bytes"].items()):
        print(f"  column {section:<11s} {nbytes / 1e6:8.2f} MB")
    for section, nbytes in sorted(memory["index_bytes"].items()):
        print(f"  index  {section:<11s} {nbytes / 1e6:8.2f} MB")
    return 0


def _parse_deploy_spec(spec: str) -> dict:
    """``policy:strategy:arg`` → a PolicyDeployment dict.

    The third field is the strategy argument: ``top_n`` for
    ``top_cone``, a fraction for ``random``, a comma-separated AS list
    for ``explicit``.  Schema errors surface through
    ``AdversarialConfig.from_dict`` with precise messages.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"--deploy expects policy:strategy:arg, got {spec!r} "
            "(e.g. rpki:top_cone:20, aspa:random:0.3, "
            "leak_prone:explicit:174,3356)"
        )
    policy, strategy, arg = parts
    data: dict = {"policy": policy, "strategy": strategy}
    try:
        if strategy == "top_cone":
            data["top_n"] = int(arg)
        elif strategy == "random":
            data["fraction"] = float(arg)
        else:
            data["ases"] = [int(x) for x in arg.split(",") if x]
    except ValueError:
        raise ValueError(
            f"bad argument {arg!r} in --deploy spec {spec!r}"
        ) from None
    return data


def cmd_attack(args: argparse.Namespace) -> int:
    from repro.adversarial import run_impact
    from repro.config import AdversarialConfig, ConfigError

    if args.attack_config:
        with open(args.attack_config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = {
            "attack": {
                "n_origin_hijacks": args.hijacks,
                "n_forged_origin_hijacks": args.forged_hijacks,
                "n_route_leaks": args.leaks,
            },
            "deployments": [
                _parse_deploy_spec(spec) for spec in args.deploy
            ],
        }
    try:
        adversarial = AdversarialConfig.from_dict(data)
    except ConfigError as exc:
        print(f"invalid adversarial config: {exc}", file=sys.stderr)
        return 2
    if adversarial.attack.total_events() == 0:
        print(
            "nothing to attack: ask for events via --hijacks / "
            "--forged-hijacks / --leaks (or an 'attack' section in "
            "--attack-config)",
            file=sys.stderr,
        )
        return 2
    config = _config_from(args).replace(adversarial=adversarial)
    try:
        config.validate()
    except ValueError as exc:
        print(f"invalid adversarial config: {exc}", file=sys.stderr)
        return 2
    workers = resolve_workers(args.workers)
    print(
        f"building clean + polluted scenarios (ases={args.ases}, "
        f"seed={args.seed}, events={adversarial.attack.total_events()}) ...",
        file=sys.stderr,
    )
    report = run_impact(
        config,
        algorithms=args.algorithms,
        workers=workers,
        cache=_cache_from(args),
    )
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"attack plan ({len(report.events)} event(s)):")
    for event in report.events:
        print(f"  {event.kind:<14s} AS{event.attacker} -> prefix of "
              f"AS{event.victim}")
    clean_paths, polluted_paths = report.corpus_sizes
    print(f"corpus: {clean_paths} clean paths -> {polluted_paths} "
          f"polluted (+{polluted_paths - clean_paths})")
    print(f"{'algorithm':<11s} {'clean acc':>10s} {'polluted':>10s} "
          f"{'delta':>9s} {'fake links':>11s}")
    for impact in report.algorithms:
        print(f"{impact.algorithm:<11s} {impact.clean.accuracy:>10.4f} "
              f"{impact.polluted.accuracy:>10.4f} "
              f"{impact.accuracy_delta:>+9.4f} "
              f"{impact.new_fake_links:>+11d}")
    print("bias drift:")
    for drift in report.bias:
        print(f"  {drift.grouping:<12s} coverage spread "
              f"{drift.clean_spread:.4f} -> {drift.polluted_spread:.4f}, "
              f"share drift {drift.share_drift:.4f}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.cli import run_lint_command

    return run_lint_command(args)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import ReproService

    serve_workers = args.serve_workers
    if serve_workers < 1:
        print(
            f"error: --serve-workers must be at least 1 "
            f"(got {serve_workers})",
            file=sys.stderr,
        )
        return 2
    if serve_workers > MAX_WORKERS:
        print(
            f"error: --serve-workers {serve_workers} is absurd "
            f"(maximum {MAX_WORKERS})",
            file=sys.stderr,
        )
        return 2
    if serve_workers > 1 and not args.cache:
        print(
            "error: multi-worker serving requires --cache (workers "
            "share scenarios through the artifact cache; without it "
            "answers would depend on which worker a client lands on)",
            file=sys.stderr,
        )
        return 2
    build_workers = resolve_workers(args.workers)

    if serve_workers == 1:
        service = ReproService(
            pool_size=args.pool_size,
            workers=build_workers,
            cache=_cache_from(args),
        )
        try:
            asyncio.run(service.run(host=args.host, port=args.port))
        except KeyboardInterrupt:
            pass
        return 0

    from repro.service.supervisor import Supervisor

    def service_factory() -> ReproService:
        # Constructed post-fork, in the worker: each process gets its
        # own pool/executor/event loop over the shared artifact cache.
        return ReproService(
            pool_size=args.pool_size,
            workers=build_workers,
            cache=_cache_from(args),
        )

    supervisor = Supervisor(
        service_factory,
        host=args.host,
        port=args.port,
        serve_workers=serve_workers,
    )
    try:
        return supervisor.run()
    except KeyboardInterrupt:
        return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.loadgen import (
        DEFAULT_MIX,
        parse_mix,
        prepare_plan,
        run_loadgen,
    )

    try:
        mix = parse_mix(args.mix) if args.mix else dict(DEFAULT_MIX)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"loadgen: preparing scenario (preset={args.preset}, "
        f"seed={args.seed}) against {args.host}:{args.port} ...",
        file=sys.stderr,
    )
    plan = prepare_plan(
        args.host, args.port,
        preset=args.preset, seed=args.seed,
        ases=args.ases, vps=args.vps,
        algorithm=args.algorithm, mix=mix,
        batch_size=args.batch_size,
        loadgen_seed=args.loadgen_seed,
    )
    print(
        f"loadgen: {args.concurrency} task(s) for {args.duration:.1f}s "
        f"over {len(plan.links)} links / {len(plan.asns)} ASNs ...",
        file=sys.stderr,
    )
    result = run_loadgen(
        plan, concurrency=args.concurrency, duration_s=args.duration
    )
    print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    return 0 if result.total_requests > 0 and result.errors == 0 else 1


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'How biased is our "
                    "Validation (Data) for AS Relationships?' (IMC 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_figures = sub.add_parser("figures", help="print Figures 1-3")
    _add_scenario_options(p_figures)
    p_figures.set_defaults(func=cmd_figures)

    p_table = sub.add_parser("table", help="print per-group validation tables")
    p_table.add_argument("algorithms", nargs="+", choices=ALGORITHM_NAMES,
                         help="algorithm(s) to evaluate")
    _add_scenario_options(p_table)
    p_table.set_defaults(func=cmd_table)

    p_case = sub.add_parser("casestudy", help="run the §6.1 investigation")
    _add_scenario_options(p_case)
    p_case.set_defaults(func=cmd_casestudy)

    p_build = sub.add_parser("build", help="export dataset artifacts")
    p_build.add_argument("--out", default="./artifacts",
                         help="output directory (default ./artifacts)")
    _add_scenario_options(p_build)
    p_build.set_defaults(func=cmd_build)

    p_export = sub.add_parser(
        "export", help="write the machine-readable results bundle"
    )
    p_export.add_argument("--out", default="./results",
                          help="output directory (default ./results)")
    _add_scenario_options(p_export)
    p_export.set_defaults(func=cmd_export)

    p_evolve = sub.add_parser("evolve",
                              help="run the §7 re-sampling experiment")
    p_evolve.add_argument("--months", type=int, default=6)
    p_evolve.add_argument("--resample-gap", type=int, default=3,
                          help="months before the same link counts again")
    _add_scenario_options(p_evolve)
    p_evolve.set_defaults(func=cmd_evolve)

    p_cache = sub.add_parser("cache",
                             help="inspect or clear the artifact cache")
    p_cache.add_argument("action", nargs="?", default="list",
                         choices=("list", "clear", "path"),
                         help="what to do (default: list)")
    p_cache.add_argument("--cache-dir", default=None,
                         help="cache root (default $REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")
    p_cache.add_argument("--json", action="store_true", default=False,
                         help="machine-readable output (list/path)")
    p_cache.set_defaults(func=cmd_cache)

    p_corpus = sub.add_parser(
        "corpus",
        help="inspect the path corpus (route/link/VP counts, "
             "columnar memory footprint)",
    )
    p_corpus.add_argument("action", nargs="?", default="stats",
                          choices=("stats",),
                          help="corpus report to print (default: stats)")
    p_corpus.add_argument("--json", action="store_true", default=False,
                          help="machine-readable output")
    _add_scenario_options(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)

    p_attack = sub.add_parser(
        "attack",
        help="pollute the corpus with hijacks/leaks and report "
             "inference degradation (repro.adversarial)",
    )
    p_attack.add_argument("--hijacks", type=int, default=0,
                          help="forged-prefix origin hijacks to inject")
    p_attack.add_argument("--forged-hijacks", type=int, default=0,
                          help="forged-origin hijacks to inject")
    p_attack.add_argument("--leaks", type=int, default=0,
                          help="route leaks to inject")
    p_attack.add_argument("--deploy", action="append", default=[],
                          metavar="POLICY:STRATEGY:ARG",
                          help="security-policy deployment, e.g. "
                               "rpki:top_cone:20, aspa:random:0.3, "
                               "leak_prone:explicit:174,3356 (repeatable)")
    p_attack.add_argument("--attack-config", default=None,
                          help="JSON file with a full adversarial config "
                               "(overrides the flags above)")
    p_attack.add_argument("--algorithms", nargs="+",
                          default=["asrank", "problink", "toposcope"],
                          choices=ALGORITHM_NAMES,
                          help="inference panel to compare "
                               "(default: asrank problink toposcope)")
    p_attack.add_argument("--json", action="store_true", default=False,
                          help="machine-readable impact report")
    _add_scenario_options(p_attack)
    p_attack.set_defaults(func=cmd_attack)

    p_lint = sub.add_parser(
        "lint",
        help="run the AST contract linter (determinism, async-safety, "
             "picklability)",
    )
    from repro.devtools.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP query service (scenarios, relationships, "
             "bias reports)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="TCP port (default 8787; 0 = pick a free one)")
    p_serve.add_argument("--pool-size", type=int, default=4,
                         help="max scenarios kept built in memory "
                              "(LRU eviction; default 4)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="propagation worker processes per build "
                              "(0 = serial, -1 = usable cores; default 0)")
    p_serve.add_argument("--serve-workers", type=int, default=1,
                         help="HTTP worker processes (pre-fork "
                              "supervisor; >1 requires --cache; "
                              "default 1 = in-process)")
    p_serve.add_argument("--cache", dest="cache", action="store_true",
                         default=False,
                         help="warm-start builds from the artifact cache")
    p_serve.add_argument("--no-cache", dest="cache", action="store_false",
                         help="always build from scratch (default)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="cache root (default $REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")
    p_serve.set_defaults(func=cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive a running service with a closed-loop benchmark "
             "and print its JSON result",
    )
    p_loadgen.add_argument("--host", default="127.0.0.1",
                           help="service address (default 127.0.0.1)")
    p_loadgen.add_argument("--port", type=int, required=True,
                           help="service port")
    p_loadgen.add_argument("--duration", type=float, default=5.0,
                           help="seconds of timed load (default 5)")
    p_loadgen.add_argument("--concurrency", type=int, default=8,
                           help="closed-loop client tasks (default 8)")
    p_loadgen.add_argument("--mix", default=None,
                           help="endpoint mix, e.g. 'rel=4,batch=1,"
                                "neighbors=2' (default)")
    p_loadgen.add_argument("--batch-size", type=int, default=256,
                           help="links per :batch request (default 256)")
    p_loadgen.add_argument("--algorithm", default="asrank",
                           choices=ALGORITHM_NAMES,
                           help="algorithm to query (default asrank)")
    p_loadgen.add_argument("--preset", default="small",
                           choices=("small", "default"),
                           help="scenario preset to admit (default small)")
    p_loadgen.add_argument("--seed", type=int, default=7,
                           help="scenario seed (default 7)")
    p_loadgen.add_argument("--ases", type=int, default=None,
                           help="override the preset's AS count")
    p_loadgen.add_argument("--vps", type=int, default=None,
                           help="override the preset's vantage-point count")
    p_loadgen.add_argument("--loadgen-seed", type=int, default=0,
                           help="seed for the request streams (default 0)")
    p_loadgen.set_defaults(func=cmd_loadgen)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "workers"):
        try:
            resolve_workers(args.workers)
        except ValueError:
            print(
                f"error: --workers {args.workers} is absurd "
                f"(maximum {MAX_WORKERS})",
                file=sys.stderr,
            )
            return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
