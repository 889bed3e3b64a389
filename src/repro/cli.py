"""Command-line interface: regenerate figures, run scenario grids, export traces.

Examples::

    python -m repro figure fig11                # print a paper figure
    python -m repro figure table3 --json out.json
    python -m repro layer --model mixtral --tp 1 --ep 8 --tokens 16384
    python -m repro layer --systems comet,tutel --tokens 8192
    python -m repro model --tokens 16384 --overlap-policy per_layer cross_layer
    python -m repro model --training --report     # critical path through the graph
    python -m repro sweep --models mixtral qwen2 --tokens 4096 8192
    python -m repro sweep --overlap-policy per_layer cross_layer shortcut
    python -m repro sweep-nc --tp 4 --ep 2 --tokens 16384
    python -m repro trace --out timeline.json
    python -m repro serve --trace poisson --rps 160 --duration 30 \
        --systems comet,tutel,megatron --slo-ttft-ms 500
    python -m repro fleet --replicas 4 --router round_robin power_of_two \
        --trace bursty --rps 300 --duration 8 --systems comet
    python -m repro fleet --replicas 4 --autoscale 1 --trace diurnal \
        --rps 150 --duration 20 --json fleet.json
    python -m repro fleet --replicas 2p+2d --failures 1@1000:3000

Models, clusters, and systems are resolved through the registries in
:mod:`repro.api.registry`, so anything a plugin registers is addressable
here without touching this module.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.api import (
    CLUSTER_REGISTRY,
    MODEL_REGISTRY,
    SYSTEM_REGISTRY,
    ExperimentSpec,
    Scenario,
    UnknownNameError,
)
from repro.bench import figures as _figures
from repro.bench.export import save_json
from repro.bench.report import format_table
from repro.graph import OVERLAP_POLICIES
from repro.parallel.strategy import ParallelStrategy
from repro.runtime.visualize import render_breakdown_bars, render_overlap_lanes
from repro.systems import Comet

__all__ = ["main"]

FIGURES = {
    "fig1a": _figures.fig01_time_breakdown,
    "fig8": _figures.fig08_nc_sweep,
    "fig9": _figures.fig09_end_to_end,
    "fig10": _figures.fig10_single_layer,
    "fig11": _figures.fig11_breakdown,
    "fig12": _figures.fig12_parallelism,
    "fig13": _figures.fig13_moe_params,
    "fig14-imbalance": _figures.fig14_imbalance,
    "fig14-l20": _figures.fig14_l20,
    "table3": _figures.table3_memory,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMET (MLSys 2025) reproduction: simulate MoE systems "
        "and regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate a paper figure/table")
    figure.add_argument("name", choices=sorted(FIGURES))
    figure.add_argument("--json", metavar="PATH", help="also export raw data")

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST invariant checks (repro.lint)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed "
        "repro package)",
    )
    lint.add_argument(
        "--rule", action="append", dest="rules", metavar="NAME",
        help="run only this rule (repeatable; default: all registered rules)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    lint.add_argument(
        "--json", metavar="PATH",
        help="also write the findings report as JSON ('-' for stdout)",
    )
    lint.add_argument(
        "--fail-on", choices=("any", "none"), default="any",
        help="exit 1 on any unsuppressed finding (default: any)",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also print suppressed findings with their justifications",
    )

    layer = sub.add_parser("layer", help="time one MoE layer under the systems")
    layer.add_argument("--model", choices=sorted(MODEL_REGISTRY.names()), default="mixtral")
    layer.add_argument("--cluster", choices=sorted(CLUSTER_REGISTRY.names()), default="h800")
    _add_strategy_flags(layer)
    layer.add_argument("--tokens", type=int, default=16384)
    layer.add_argument("--imbalance-std", type=float, default=0.0)
    layer.add_argument("--seed", type=int, default=0)
    layer.add_argument(
        "--systems",
        help="comma-separated registry names (default: all registered systems)",
    )
    layer.add_argument(
        "--report", action="store_true",
        help="also print the overlap report (hidden-communication fractions)",
    )

    model = sub.add_parser(
        "model",
        help="time a full model under the cross-layer overlap policies",
    )
    model.add_argument(
        "--model", choices=sorted(MODEL_REGISTRY.names()), default="mixtral"
    )
    model.add_argument(
        "--cluster", choices=sorted(CLUSTER_REGISTRY.names()), default="h800"
    )
    _add_strategy_flags(model)
    model.add_argument("--tokens", type=int, default=16384)
    model.add_argument("--imbalance-std", type=float, default=0.0)
    model.add_argument("--seed", type=int, default=0)
    model.add_argument(
        "--systems",
        help="comma-separated registry names (default: all registered systems)",
    )
    model.add_argument(
        "--overlap-policy", nargs="+", choices=OVERLAP_POLICIES,
        default=list(OVERLAP_POLICIES), metavar="POLICY",
        help="overlap policies to compare: per_layer, cross_layer, shortcut "
        "(default: all three)",
    )
    model.add_argument(
        "--training", action="store_true",
        help="time one training step (fwd + bwd + grad sync + optimizer) "
        "instead of the forward pass",
    )
    model.add_argument(
        "--stragglers", type=float, default=None, metavar="MULT",
        help="model one straggling rank: lower per-rank schedule graphs "
        "with rank 0 slowed by MULT (e.g. 1.5) and report per-rank "
        "makespans and imbalance",
    )
    model.add_argument(
        "--report", action="store_true",
        help="also print the critical path through the schedule graph",
    )
    model.add_argument(
        "--trace-out", metavar="PATH",
        help="export a Chrome trace of the first system's schedule graph",
    )
    model.add_argument(
        "--metrics-out", metavar="PATH",
        help="export a metrics snapshot (makespans + cache stats) as JSON",
    )

    sweep = sub.add_parser(
        "sweep", help="run a declarative scenario grid and tabulate it"
    )
    sweep.add_argument(
        "--models", nargs="+", default=["mixtral"],
        choices=sorted(MODEL_REGISTRY.names()),
    )
    sweep.add_argument(
        "--clusters", nargs="+", default=["h800"],
        choices=sorted(CLUSTER_REGISTRY.names()),
    )
    sweep.add_argument(
        "--tp", nargs="+", type=int, default=None,
        help="tensor-parallel sizes (default: all factorisations)",
    )
    sweep.add_argument(
        "--ep", nargs="+", type=int, default=None,
        help="expert-parallel sizes (default: all factorisations)",
    )
    sweep.add_argument("--tokens", nargs="+", type=int, default=[16384])
    sweep.add_argument(
        "--systems", nargs="+", default=None,
        help="registry names (default: all registered systems)",
    )
    sweep.add_argument("--imbalance-std", nargs="+", type=float, default=[0.0])
    sweep.add_argument("--seed", nargs="+", type=int, default=[0])
    sweep.add_argument(
        "--overlap-policy", nargs="+", choices=OVERLAP_POLICIES, default=None,
        metavar="POLICY",
        help="sweep cross-layer overlap policies (runs the grid at model "
        "level: per_layer, cross_layer, shortcut)",
    )
    sweep.add_argument(
        "--straggler-mult", nargs="+", type=float, default=None, metavar="MULT",
        help="sweep slow-rank compute multipliers (1.0 = no straggler; "
        "runs the grid at model level on per-rank schedule graphs)",
    )
    sweep.add_argument("--json", metavar="PATH", help="also export raw data")
    sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run grid points on N workers (output identical to serial)",
    )
    sweep.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="worker kind for --workers: threads (default) or processes "
        "(GIL-free; per-process cache stats merge into --report)",
    )
    sweep.add_argument(
        "--report", action="store_true",
        help="also print simulation-cache statistics (hits/misses/size)",
    )

    sweep_nc = sub.add_parser(
        "sweep-nc", help="profile the fused-kernel division point"
    )
    sweep_nc.add_argument(
        "--model", choices=sorted(MODEL_REGISTRY.names()), default="mixtral"
    )
    sweep_nc.add_argument(
        "--cluster", choices=sorted(CLUSTER_REGISTRY.names()), default="h800"
    )
    _add_strategy_flags(sweep_nc)
    sweep_nc.add_argument("--tokens", type=int, default=16384)

    serve = sub.add_parser(
        "serve", help="simulate online inference serving and report SLO metrics"
    )
    serve.add_argument(
        # repro-lint: disable=registry-consistency -- the registered
        # 'replay' trace needs a programmatic arrivals array that no CLI
        # flag can express; it stays API-only.
        "--trace", default="poisson", choices=("poisson", "bursty", "diurnal"),
        help="arrival process (default: poisson)",
    )
    serve.add_argument("--rps", type=float, default=160.0,
                       help="mean request arrival rate (default: 160)")
    serve.add_argument("--duration", type=float, default=30.0,
                       help="trace duration in seconds (default: 30)")
    serve.add_argument(
        "--model", choices=sorted(MODEL_REGISTRY.names()), default="mixtral"
    )
    serve.add_argument(
        "--cluster", choices=sorted(CLUSTER_REGISTRY.names()), default="h800"
    )
    _add_strategy_flags(serve)
    serve.add_argument(
        "--systems",
        help="comma-separated registry names (default: all registered systems)",
    )
    serve.add_argument("--policy", default="fcfs",
                       help="admission policy: fcfs, spf, or slo")
    serve.add_argument("--slo-ttft-ms", type=float, default=500.0,
                       help="time-to-first-token SLO (default: 500 ms)")
    serve.add_argument("--slo-tpot-ms", type=float, default=75.0,
                       help="time-per-output-token SLO (default: 75 ms)")
    serve.add_argument("--max-batch-tokens", type=int, default=8192,
                       help="continuous-batching token budget per iteration")
    serve.add_argument("--prompt-mean", type=int, default=512)
    serve.add_argument("--output-mean", type=int, default=128)
    serve.add_argument(
        "--overlap-policy", choices=OVERLAP_POLICIES, default="per_layer",
        help="cross-layer overlap policy for the step cost model "
        "(default: per_layer)",
    )
    serve.add_argument(
        "--straggler-mult", type=float, default=None, metavar="MULT",
        help="slow rank 0 by MULT (e.g. 1.5): every continuous-batching "
        "step is priced on the per-rank schedule graph",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--json", metavar="PATH", help="also export the report")
    serve.add_argument("--csv", metavar="PATH", help="also export a CSV table")
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="serve systems on N workers (output identical to serial)",
    )
    serve.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="worker kind for --workers: threads (default) or processes "
        "(GIL-free; per-process cache stats merge into --report)",
    )
    serve.add_argument(
        "--report", action="store_true",
        help="also print simulation-cache statistics (hits/misses/size)",
    )
    serve.add_argument(
        "--trace-out", metavar="PATH",
        help="export a Chrome trace of the first report's request timeline",
    )
    serve.add_argument(
        "--metrics-out", metavar="PATH",
        help="export a metrics snapshot (latency histograms, occupancy, "
        "cache stats) as JSON",
    )

    fleet = sub.add_parser(
        "fleet",
        help="simulate a multi-replica serving fleet (routing, autoscaling, "
        "failures, disaggregated pools)",
    )
    fleet.add_argument(
        "--replicas", default="1", metavar="N|PpD",
        help="fleet shape: a replica count (e.g. 4) or a disaggregated "
        "'2p+2d' prefill+decode split (default: 1)",
    )
    fleet.add_argument(
        "--router", nargs="+", default=["round_robin"], metavar="NAME",
        help="routing policies to compare: round_robin, least_queue, "
        "session_affinity, power_of_two (default: round_robin)",
    )
    fleet.add_argument(
        "--autoscale", type=int, default=None, metavar="MIN",
        help="enable queue-driven autoscaling with MIN always-on replicas "
        "(the --replicas count is the ceiling)",
    )
    fleet.add_argument(
        "--scale-up-queue", type=float, default=8.0,
        help="waiting requests per active replica that trigger a scale-up "
        "(default: 8)",
    )
    fleet.add_argument(
        "--scale-down-queue", type=float, default=1.0,
        help="waiting requests per active replica below which one replica "
        "drains out (default: 1)",
    )
    fleet.add_argument(
        "--warmup-ms", type=float, default=2000.0,
        help="delay before a newly scaled-up replica is routable "
        "(default: 2000)",
    )
    fleet.add_argument(
        "--autoscale-interval-ms", type=float, default=1000.0,
        help="autoscaler decision interval (default: 1000)",
    )
    fleet.add_argument(
        "--failures", nargs="+", default=None, metavar="R@SPEC",
        help="inject replica faults: '1@1000:3000' fails replica 1 at "
        "t=1000ms and recovers it at t=3000ms (omit ':RECOVER' for a "
        "permanent failure); '0@500:2500:x1.5' degrades replica 0 by "
        "1.5x over the [500, 2500) ms window",
    )
    fleet.add_argument(
        "--timeout-ms", type=float, default=None, metavar="MS",
        help="front-door request deadline: cancel (and retry, if --retry "
        "is set) requests still unfinished after MS milliseconds",
    )
    fleet.add_argument(
        "--retry", type=int, default=0, metavar="N",
        help="retries per timed-out request (seeded exponential backoff; "
        "requires --timeout-ms)",
    )
    fleet.add_argument(
        "--shed", type=float, default=None, metavar="FACTOR",
        help="shed arrivals whose estimated queue wait exceeds FACTOR x "
        "the TTFT SLO",
    )
    fleet.add_argument(
        "--detect", type=float, default=None, metavar="SLOW",
        help="enable the health detector: probation for replicas whose "
        "windowed mean TTFT exceeds SLOW x the fleet median",
    )
    fleet.add_argument(
        "--kv-migration", action="store_true",
        help="price prefill-to-decode KV handoffs and post-crash context "
        "re-dispatch over the inter-replica link (default: free handoff)",
    )
    fleet.add_argument(
        # repro-lint: disable=registry-consistency -- the registered
        # 'replay' trace needs a programmatic arrivals array that no CLI
        # flag can express; it stays API-only.
        "--trace", default="poisson", choices=("poisson", "bursty", "diurnal"),
        help="arrival process (default: poisson)",
    )
    fleet.add_argument("--rps", type=float, default=160.0,
                       help="mean request arrival rate (default: 160)")
    fleet.add_argument("--duration", type=float, default=30.0,
                       help="trace duration in seconds (default: 30)")
    fleet.add_argument(
        "--model", choices=sorted(MODEL_REGISTRY.names()), default="mixtral"
    )
    fleet.add_argument(
        "--cluster", choices=sorted(CLUSTER_REGISTRY.names()), default="h800"
    )
    _add_strategy_flags(fleet)
    fleet.add_argument(
        "--systems",
        help="comma-separated registry names (default: all registered systems)",
    )
    fleet.add_argument("--policy", default="fcfs",
                       help="admission policy: fcfs, spf, or slo")
    fleet.add_argument("--slo-ttft-ms", type=float, default=500.0,
                       help="time-to-first-token SLO (default: 500 ms)")
    fleet.add_argument("--slo-tpot-ms", type=float, default=75.0,
                       help="time-per-output-token SLO (default: 75 ms)")
    fleet.add_argument("--max-batch-tokens", type=int, default=8192,
                       help="continuous-batching token budget per iteration")
    fleet.add_argument("--prompt-mean", type=int, default=512)
    fleet.add_argument("--output-mean", type=int, default=128)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--router-seed", type=int, default=0,
                       help="seed for randomized routers (default: 0)")
    fleet.add_argument("--json", metavar="PATH", help="also export the report")
    fleet.add_argument("--csv", metavar="PATH", help="also export a CSV table")
    fleet.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="serve (scenario, system) pairs on N workers (output identical "
        "to serial)",
    )
    fleet.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="worker kind for --workers: threads (default) or processes "
        "(GIL-free; per-process cache stats merge into --report)",
    )
    fleet.add_argument(
        "--report", action="store_true",
        help="also print simulation-cache statistics (hits/misses/size)",
    )
    fleet.add_argument(
        "--trace-out", metavar="PATH",
        help="export a Chrome trace of the first report's fleet timeline "
        "(per-replica pids, dispatch flows, failure markers)",
    )
    fleet.add_argument(
        "--metrics-out", metavar="PATH",
        help="export a metrics snapshot (goodput/latency histograms, "
        "churn, cache stats) as JSON",
    )

    trace = sub.add_parser(
        "trace",
        help="export a Chrome/Perfetto trace of a simulated timeline "
        "(fused kernels by default; --graph/--serve/--fleet for the "
        "higher tiers)",
    )
    mode = trace.add_mutually_exclusive_group()
    mode.add_argument(
        "--graph", action="store_true",
        help="trace the whole-model schedule graph (one pid per rank, "
        "compute/comm lanes, critical path flagged)",
    )
    mode.add_argument(
        "--serve", action="store_true",
        help="trace a serving run (request-lifecycle spans, flow arrows, "
        "queue/batch counter tracks)",
    )
    mode.add_argument(
        "--fleet", action="store_true",
        help="trace a fleet run (one pid per replica, router dispatch "
        "flows, failure/autoscaler markers)",
    )
    trace.add_argument(
        "--model", choices=sorted(MODEL_REGISTRY.names()), default="mixtral"
    )
    trace.add_argument(
        "--cluster", choices=sorted(CLUSTER_REGISTRY.names()), default="h800"
    )
    _add_strategy_flags(trace)
    trace.add_argument("--tokens", type=int, default=16384)
    trace.add_argument(
        "--system", default="comet",
        help="system to trace in --graph/--serve/--fleet modes "
        "(default: comet)",
    )
    trace.add_argument(
        "--overlap-policy", choices=OVERLAP_POLICIES, default="per_layer",
        help="overlap policy for --graph mode (default: per_layer)",
    )
    trace.add_argument(
        "--stragglers", type=float, default=None, metavar="MULT",
        help="--graph mode: slow rank 0 by MULT and trace the per-rank "
        "schedule graphs (one pid per rank)",
    )
    trace.add_argument(
        # repro-lint: disable=registry-consistency -- the registered
        # 'replay' trace needs a programmatic arrivals array that no CLI
        # flag can express; it stays API-only.
        "--arrivals", default="poisson", choices=("poisson", "bursty", "diurnal"),
        help="--serve/--fleet modes: arrival process (default: poisson)",
    )
    trace.add_argument("--rps", type=float, default=40.0,
                       help="--serve/--fleet modes: arrival rate (default: 40)")
    trace.add_argument("--duration", type=float, default=3.0,
                       help="--serve/--fleet modes: trace seconds (default: 3)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--replicas", default="2", metavar="N|PpD",
        help="--fleet mode: fleet shape (default: 2)",
    )
    trace.add_argument(
        "--router", default="round_robin",
        help="--fleet mode: routing policy (default: round_robin)",
    )
    trace.add_argument(
        "--failures", nargs="+", default=None, metavar="R@FAIL[:RECOVER]",
        help="--fleet mode: failure injections (default: '0@500:1500' so "
        "the trace shows fail/recover markers; pass 'none' to disable)",
    )
    trace.add_argument("--out", default="comet_timeline.json")

    return parser


def _add_strategy_flags(parser: argparse.ArgumentParser) -> None:
    """``--tp``/``--ep`` of a single-strategy subcommand (see :func:`_strategy`)."""
    parser.add_argument("--tp", type=int, default=1)
    parser.add_argument("--ep", type=int, default=None,
                        help="expert-parallel size (default: world size / tp)")


def _strategy(args: argparse.Namespace, cluster) -> ParallelStrategy:
    """The ``--tp``/``--ep`` strategy, EP defaulting to world size / TP."""
    if args.tp <= 0:
        raise ValueError(f"tp must be positive, got {args.tp}")
    ep = args.ep if args.ep is not None else cluster.world_size // args.tp
    return ParallelStrategy(tp_size=args.tp, ep_size=ep)


def _resolve_systems(values: Sequence[str] | str | None) -> tuple[str, ...]:
    """Registry names from CLI input (comma- and/or space-separated).

    Raises :class:`UnknownNameError` (whose message lists every valid
    name) for anything the registry does not know.
    """
    if values is None:
        return ()
    if isinstance(values, str):
        values = [values]
    names = []
    for value in values:
        names.extend(part for part in value.split(",") if part.strip())
    return tuple(SYSTEM_REGISTRY.resolve(name.strip()) for name in names)


def _print_cache_report() -> None:
    """Tabulate the perf-layer cache statistics (``--report``).

    With ``--executor process``, counters reported back by the worker
    processes are already merged into each row (``perf.cache_stats``
    sums them), and the title names how many workers contributed.
    """
    from repro import perf

    workers = perf.worker_process_count()
    suffix = f" + {workers} worker processes merged" if workers else ""
    print()
    print(
        format_table(
            ["cache", "size", "max", "hits", "misses", "evictions", "hit %"],
            [
                [
                    stats["name"],
                    stats["size"],
                    stats["maxsize"],
                    stats["hits"],
                    stats["misses"],
                    stats["evictions"],
                    f"{100 * stats['hit_rate']:.1f}",
                ]
                for stats in perf.cache_stats().values()
            ],
            title=f"Simulation caches ({perf.time_layer_calls()} time_layer "
            f"simulations this process{suffix})",
        )
    )


def _write_metrics_snapshot(path: str, results) -> None:
    """Write ``{"manifest": ..., "metrics": ...}`` for a result set.

    The manifest is wall-clock stamped here — at the export boundary —
    so the in-memory result set (and its ``to_json()``) stays
    deterministic.
    """
    import json

    from repro.obs import snapshot_for

    manifest = results.manifest.stamp().to_dict() if results.manifest else None
    payload = {"manifest": manifest, "metrics": snapshot_for(results)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote metrics snapshot to {path}")


def _save_trace(tracer, path: str) -> None:
    tracer.save_chrome_trace(path)
    extras = len(tracer.counters) + len(tracer.instants) + len(tracer.flows)
    print(
        f"wrote {len(tracer.events)} spans (+{extras} counter/instant/flow "
        f"records) to {path}"
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    result = FIGURES[args.name]()
    print(result.format())
    if args.json:
        save_json(result, args.json)
        print(f"\nwrote raw data to {args.json}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import RULE_REGISTRY, render_text, run_lint, to_json

    if args.list_rules:
        for name in RULE_REGISTRY.names():
            print(f"{name}: {RULE_REGISTRY.get(name).description}")
        return 0
    paths = args.paths or [Path(__file__).parent]
    try:
        report = run_lint(paths, rules=args.rules)
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(render_text(report, verbose=args.verbose))
    if args.json:
        payload = to_json(report)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
            print(f"wrote findings JSON to {args.json}")
    if report.findings and args.fail_on == "any":
        return 1
    return 0


def _cmd_layer(args: argparse.Namespace) -> int:
    try:
        systems = _resolve_systems(args.systems)
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster = CLUSTER_REGISTRY.get(args.cluster)()
    config = MODEL_REGISTRY.get(args.model)
    try:
        scenario = Scenario(
            config=config,
            cluster=cluster,
            strategy=_strategy(args, cluster),
            tokens=args.tokens,
            imbalance_std=args.imbalance_std,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = ExperimentSpec(scenarios=(scenario,), systems=systems).run()
    timings = results.timings(scenario)
    print(f"{config.name}, {scenario.strategy}, M={args.tokens}, {cluster.name}\n")
    print(render_breakdown_bars(timings))
    for record in results.skips:
        print(f"{record.system:>18s} |  skipped: {record.reason}")
    comet = timings.get("Comet")
    if comet is not None:
        print()
        print(render_overlap_lanes(comet))
    if args.report:
        from repro.runtime.profiler import overlap_report

        print()
        print(
            format_table(
                ["system", "total ms", "comm ms", "exposed ms",
                 "hidden %", "comm share %"],
                [
                    [
                        r.system,
                        f"{r.total_us / 1000:.3f}",
                        f"{r.comm_us / 1000:.3f}",
                        f"{r.exposed_comm_us / 1000:.3f}",
                        f"{100 * r.hidden_comm_fraction:.1f}",
                        f"{100 * r.comm_share:.1f}",
                    ]
                    for r in overlap_report(timings)
                ],
                title="Overlap report (slowest system first)",
            )
        )
    return 0


def _format_critical_path(schedule, max_rows: int = 20) -> str:
    """Tabulate the critical path of a scheduled graph."""
    path = schedule.critical_path()
    shown = path[:max_rows]
    rows = [
        [
            node.label,
            f"{start / 1000:.3f}",
            f"{(start + node.duration_us) / 1000:.3f}",
            f"{node.duration_us / 1000:.3f}",
        ]
        for node in shown
        for start in (schedule.start_us[node.id],)
    ]
    title = (
        f"Critical path ({len(path)} nodes, makespan "
        f"{schedule.makespan_us / 1000:.3f} ms, overlap saves "
        f"{schedule.overlap_saved_us() / 1000:.3f} ms vs serial)"
    )
    text = format_table(
        ["node", "start ms", "finish ms", "dur ms"], rows, title=title
    )
    if len(path) > max_rows:
        text += f"\n  ... {len(path) - max_rows} more nodes"
    return text


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.api.scenario import _as_straggler_axis, default_system_names
    from repro.graph.lower import forward_schedule, training_schedule
    from repro.runtime.model_runner import run_model
    from repro.runtime.training import run_training_step
    from repro.systems.base import UnsupportedWorkload

    try:
        systems = _resolve_systems(args.systems)
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster = CLUSTER_REGISTRY.get(args.cluster)()
    config = MODEL_REGISTRY.get(args.model)
    stragglers = None
    if args.stragglers is not None:
        try:
            # One shared rule with the grid axes: 1.0 is the baseline,
            # anything else the rank-0 slow-rank preset.
            (stragglers,) = _as_straggler_axis(
                (args.stragglers,), cluster.world_size
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        scenario = Scenario(
            config=config,
            cluster=cluster,
            strategy=_strategy(args, cluster),
            tokens=args.tokens,
            imbalance_std=args.imbalance_std,
            seed=args.seed,
            stragglers=stragglers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    policies = list(dict.fromkeys(args.overlap_policy))
    names = systems or default_system_names()
    workload = scenario.build_workload()
    runner = run_training_step if args.training else run_model
    kind = "training step" if args.training else "forward pass"
    straggler_note = f", stragglers={stragglers.label}" if stragglers else ""
    print(
        f"{config.name}, {scenario.strategy}, M={args.tokens}, "
        f"{cluster.name} — {kind}, {config.num_layers} layers"
        f"{straggler_note}\n"
    )
    def lower(sys_, moe_timing):
        # Same lowering selection the runners use for the makespans, so
        # reports and traces match them exactly.
        if stragglers is not None:
            return sys_.lower_rank_phases(moe_timing, stragglers)
        return sys_.lower_layer(moe_timing)

    def build_schedule(sys_, timing, policy):
        if args.training:
            return training_schedule(
                lower(sys_, timing.moe_fwd),
                lower(sys_.backward_variant(), timing.moe_bwd),
                timing.attention_fwd_us,
                timing.attention_bwd_us,
                timing.num_layers,
                timing.grad_sync_us,
                timing.optimizer_us,
                policy,
                stragglers,
            )
        return forward_schedule(
            lower(sys_, timing.moe),
            timing.attention_us,
            timing.num_layers,
            policy,
            stragglers,
        )

    rows = []
    report_lines = []
    trace_target = None
    makespans_ms: dict[tuple[str, str], float] = {}
    for name in names:
        system = SYSTEM_REGISTRY.create(name)
        cells = [system.name]
        timings = {}
        try:
            for policy in policies:
                timing = runner(
                    system, config, cluster, scenario.strategy,
                    total_tokens=args.tokens, workload=workload,
                    overlap_policy=policy, stragglers=stragglers,
                )
                timings[policy] = timing
                cells.append(f"{timing.makespan_us / 1000:.3f}")
                makespans_ms[(system.name, policy)] = timing.makespan_us / 1000.0
        except UnsupportedWorkload as exc:
            print(f"{system.name:>18s} |  skipped: {exc}")
            continue
        best = min(timings.values(), key=lambda t: t.makespan_us)
        serial = timings.get("per_layer")
        baseline_us = serial.makespan_us if serial else best.total_us
        cells.append(f"{baseline_us / best.makespan_us:.3f}x")
        if stragglers is not None:
            cells.append(
                f"{max(t.imbalance_us for t in timings.values()) / 1000:.3f}"
            )
        rows.append(cells)
        if trace_target is None:
            trace_target = (system, timings[policies[0]], policies[0])
        if args.report:
            for policy in policies:
                schedule = build_schedule(system, timings[policy], policy)
                report_lines.append(
                    f"\n{system.name} — {policy}:\n"
                    + _format_critical_path(schedule)
                )
                if stragglers is not None:
                    spans = ", ".join(
                        f"r{rank}={span / 1000:.3f}"
                        for rank, span in schedule.rank_makespans().items()
                    )
                    report_lines.append(
                        f"  per-rank makespans (ms): {spans}  |  "
                        f"imbalance {schedule.imbalance_us() / 1000:.3f} ms, "
                        f"straggler rank {schedule.straggler_rank()}"
                    )
    headers = ["system"] + [f"{p} ms" for p in policies] + ["best speedup"]
    if stragglers is not None:
        headers.append("imbalance ms")
    print(
        format_table(
            headers,
            rows,
            title=f"Whole-model schedule graph makespans ({kind})",
        )
    )
    for line in report_lines:
        print(line)
    if args.trace_out:
        if trace_target is None:
            print(
                "error: no system produced a schedule to trace",
                file=sys.stderr,
            )
            return 1
        from repro.obs import trace_graph_schedule

        sys_, timing, policy = trace_target
        _save_trace(
            trace_graph_schedule(build_schedule(sys_, timing, policy)),
            args.trace_out,
        )
    if args.metrics_out:
        import json

        from repro.obs import MetricsRegistry, capture, collect_cache_stats

        registry = MetricsRegistry(enabled=True)
        for (sys_name, policy), value in makespans_ms.items():
            registry.gauge(f"model.{sys_name}.{policy}.makespan_ms", value)
        collect_cache_stats(registry)
        manifest = capture("model", (scenario,), tuple(names)).stamp()
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(
                {"manifest": manifest.to_dict(), "metrics": registry.snapshot()},
                fh, indent=2, sort_keys=True,
            )
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


def _strategies_for(
    cluster, tps: Sequence[int] | None, eps: Sequence[int] | None
) -> list[ParallelStrategy]:
    """TP x EP combinations valid on ``cluster`` for the given axis lists.

    Unset axes are derived from the cluster's world size; combinations
    whose product misses the world size are dropped.
    """
    world = cluster.world_size
    if tps is None and eps is None:
        return ParallelStrategy.sweep(world)
    if tps is None:
        tps = [world // ep for ep in eps if ep and world % ep == 0]
    if eps is None:
        eps = [world // tp for tp in tps if tp and world % tp == 0]
    return [
        ParallelStrategy(tp_size=tp, ep_size=ep)
        for tp in tps
        for ep in eps
        if tp > 0 and ep > 0 and tp * ep == world
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        systems = _resolve_systems(args.systems)
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.api.scenario import _as_straggler_axis
    from repro.graph.straggler import check_multiplier

    policies = list(dict.fromkeys(args.overlap_policy or ["per_layer"]))
    straggler_mults = list(dict.fromkeys(args.straggler_mult or [1.0]))
    try:
        for mult in straggler_mults:
            check_multiplier(mult)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenarios: list[Scenario] = []
    for model_name in args.models:
        config = MODEL_REGISTRY.get(model_name)
        for cluster_name in args.clusters:
            cluster = CLUSTER_REGISTRY.get(cluster_name)()
            straggler_list = _as_straggler_axis(
                straggler_mults, cluster.world_size
            )
            for strategy in _strategies_for(cluster, args.tp, args.ep):
                for tokens in args.tokens:
                    for std in args.imbalance_std:
                        for seed in args.seed:
                            try:
                                point = [
                                    Scenario(
                                        config=config,
                                        cluster=cluster,
                                        strategy=strategy,
                                        tokens=tokens,
                                        imbalance_std=std,
                                        seed=seed,
                                        overlap_policy=policy,
                                        stragglers=spec,
                                    )
                                    for policy in policies
                                    for spec in straggler_list
                                ]
                            except ValueError as exc:
                                # Validity is policy-independent: warn
                                # once per grid point, not per policy.
                                print(
                                    f"skipping grid point: {exc}",
                                    file=sys.stderr,
                                )
                                continue
                            scenarios.extend(point)
    if not scenarios:
        print(
            "error: no valid scenario in the grid (check --tp/--ep against "
            "the cluster world size)",
            file=sys.stderr,
        )
        return 1
    spec = ExperimentSpec(
        scenarios=tuple(dict.fromkeys(scenarios)), systems=systems
    )
    # Policy and straggler sweeps only show at model level (the MoE
    # layer timing is independent of both); plain sweeps keep the
    # layer-level default.
    straggling = any(m != 1.0 for m in straggler_mults)
    level = "model" if (args.overlap_policy or straggling) else "layer"
    results = spec.run(level=level, workers=args.workers, executor=args.executor)
    headers, rows = results.to_table()
    metric = "end-to-end model ms" if level == "model" else "MoE layer ms"
    print(
        format_table(
            headers, rows,
            title=f"Scenario sweep: {len(results.scenarios())} grid points, "
            f"{metric} per system",
        )
    )
    for key, reason in results.skipped.items():
        print(f"skipped {key}: {reason}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(results.to_json())
        print(f"\nwrote raw data to {args.json}")
    if args.report:
        _print_cache_report()
    return 0


def _cmd_sweep_nc(args: argparse.Namespace) -> int:
    cluster = CLUSTER_REGISTRY.get(args.cluster)()
    config = MODEL_REGISTRY.get(args.model)
    try:
        scenario = Scenario(
            config=config,
            cluster=cluster,
            strategy=_strategy(args, cluster),
            tokens=args.tokens,
        )
    except ValueError as exc:
        print(f"no curve on this cluster: {exc}", file=sys.stderr)
        return 1
    strategy = scenario.strategy
    workload = scenario.build_workload()
    sweep = Comet().sweep_division_points(workload, layer=1, variant_step=2)
    print(f"TP={strategy.tp_size}, EP={strategy.ep_size}, M={args.tokens}:")
    worst = max(sweep.durations_us.values())
    for nc, duration in sweep.curve():
        bar = "#" * max(1, int(40 * duration / worst))
        marker = "  <- optimal" if nc == sweep.best_nc else ""
        print(f"  nc={nc:3d}  {duration / 1000:7.3f} ms  {bar}{marker}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeScenario, ServeSpec, TraceSpec

    try:
        systems = _resolve_systems(args.systems)
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster = CLUSTER_REGISTRY.get(args.cluster)()
    config = MODEL_REGISTRY.get(args.model)
    try:
        strategy = _strategy(args, cluster)
        stragglers = None
        if args.straggler_mult is not None:
            from repro.api.scenario import _as_straggler_axis

            (stragglers,) = _as_straggler_axis(
                (args.straggler_mult,), cluster.world_size
            )
        scenario = ServeScenario(
            config=config,
            cluster=cluster,
            strategy=strategy,
            trace=TraceSpec(
                kind=args.trace,
                rps=args.rps,
                duration_s=args.duration,
                seed=args.seed,
                prompt_mean=args.prompt_mean,
                output_mean=args.output_mean,
            ),
            policy=args.policy,
            slo_ttft_ms=args.slo_ttft_ms,
            slo_tpot_ms=args.slo_tpot_ms,
            max_batch_tokens=args.max_batch_tokens,
            overlap_policy=args.overlap_policy,
            stragglers=stragglers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = ServeSpec(scenarios=(scenario,), systems=systems).run(
        workers=args.workers, executor=args.executor
    )

    trace = scenario.trace
    overlap = (
        f", overlap={scenario.overlap_policy}"
        if scenario.overlap_policy != "per_layer"
        else ""
    )
    straggler_note = (
        f", stragglers={scenario.stragglers.label}" if scenario.stragglers else ""
    )
    print(
        f"{config.name}, {scenario.strategy}, {cluster.name} — "
        f"{trace.label}, policy={scenario.policy}{overlap}{straggler_note}, "
        f"SLO: TTFT<={scenario.slo_ttft_ms:g}ms TPOT<={scenario.slo_tpot_ms:g}ms\n"
    )

    def fmt(value: float, spec: str, scale: float = 1.0) -> str:
        # Zero-arrival traces have no latency percentiles (NaN): render
        # an em-dash cell instead of leaking "nan" into the table.
        if value != value:
            return "-"
        return format(value * scale, spec)

    rows = []
    for report in results:
        ttft = report.ttft_percentiles()
        tpot = report.tpot_percentiles()
        e2e = report.e2e_percentiles()
        rows.append([
            report.system,
            report.num_requests,
            fmt(ttft["p50"], ".1f"),
            fmt(ttft["p99"], ".1f"),
            fmt(tpot["p50"], ".2f"),
            fmt(tpot["p99"], ".2f"),
            fmt(e2e["p99"], ".2f", scale=1e-3),
            f"{100 * report.slo_attainment:.1f}",
            f"{report.goodput_rps:.2f}",
            f"{report.output_tokens_per_s:.0f}",
        ])
    print(
        format_table(
            ["system", "reqs", "ttft p50 ms", "ttft p99 ms", "tpot p50 ms",
             "tpot p99 ms", "e2e p99 s", "SLO %", "goodput req/s", "tok/s"],
            rows,
            title="Online serving (continuous batching)",
        )
    )
    for skip in results.skips:
        print(f"skipped {skip.system}: {skip.reason}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(results.to_json())
        print(f"\nwrote report to {args.json}")
    if args.csv:
        results.to_csv(args.csv)
        print(f"wrote CSV to {args.csv}")
    if args.report:
        _print_cache_report()
    if args.trace_out:
        if not results.reports:
            print("error: nothing served, no trace to write", file=sys.stderr)
            return 1
        from repro.obs import trace_serve_report

        _save_trace(trace_serve_report(results.reports[0]), args.trace_out)
    if args.metrics_out:
        _write_metrics_snapshot(args.metrics_out, results)
    return 0


def _parse_fault_specs(values: Sequence[str]):
    """Fault grammar strings into ``(crashes, degrades)`` event tuples.

    Two shapes share the ``R@...`` prefix: ``R@FAIL[:RECOVER]`` is a
    crash (recover omitted = permanent), and ``R@T0:T1:xMULT`` — the
    third field carrying an explicit ``x`` — degrades replica ``R`` by
    ``MULT``x (compute and comm) over the ``[T0, T1)`` window.
    :func:`_format_fault_specs` is the exact inverse.
    """
    from repro.faults import DegradeEvent, FailureEvent

    crashes = []
    degrades = []
    for value in values:
        try:
            replica_part, _, when = value.partition("@")
            if not when:
                raise ValueError("missing '@'")
            parts = when.split(":")
            if len(parts) == 3 and parts[2].startswith("x"):
                mult = float(parts[2][1:])
                degrades.append(
                    DegradeEvent(
                        replica=int(replica_part),
                        t0_ms=float(parts[0]),
                        t1_ms=float(parts[1]),
                        compute_mult=mult,
                        comm_mult=mult,
                    )
                )
            elif len(parts) <= 2:
                crashes.append(
                    FailureEvent(
                        replica=int(replica_part),
                        fail_ms=float(parts[0]),
                        recover_ms=(
                            float(parts[1])
                            if len(parts) > 1 and parts[1]
                            else None
                        ),
                    )
                )
            else:
                raise ValueError("too many ':' fields")
        except ValueError as exc:
            raise ValueError(
                f"bad fault spec {value!r} (want 'R@FAIL_MS', "
                f"'R@FAIL_MS:RECOVER_MS', or 'R@T0_MS:T1_MS:xMULT'): {exc}"
            ) from None
    return tuple(crashes), tuple(degrades)


def _format_fault_specs(crashes, degrades) -> tuple[str, ...]:
    """Render fault events back into the ``--failures`` grammar.

    Inverse of :func:`_parse_fault_specs`: parsing the formatted strings
    reproduces the events exactly (the CLI round-trip tests enforce it).
    """
    out = []
    for event in crashes:
        recover = (
            f":{event.recover_ms:g}" if event.recover_ms is not None else ""
        )
        out.append(f"{event.replica}@{event.fail_ms:g}{recover}")
    for event in degrades:
        out.append(
            f"{event.replica}@{event.t0_ms:g}:{event.t1_ms:g}"
            f":x{event.compute_mult:g}"
        )
    return tuple(out)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import ROUTER_REGISTRY, AutoscalerSpec, FleetSpec
    from repro.serve import TraceSpec

    try:
        systems = _resolve_systems(args.systems)
        routers = tuple(
            ROUTER_REGISTRY.resolve(name)
            for value in args.router
            for name in value.split(",")
            if name.strip()
        )
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster = CLUSTER_REGISTRY.get(args.cluster)()
    config = MODEL_REGISTRY.get(args.model)
    try:
        strategy = _strategy(args, cluster)
        replicas = (
            int(args.replicas) if args.replicas.isdigit() else args.replicas
        )
        autoscaler = None
        if args.autoscale is not None:
            autoscaler = AutoscalerSpec(
                min_replicas=args.autoscale,
                scale_up_queue=args.scale_up_queue,
                scale_down_queue=args.scale_down_queue,
                interval_ms=args.autoscale_interval_ms,
                warmup_ms=args.warmup_ms,
            )
        crashes, degrades = (
            _parse_fault_specs(args.failures) if args.failures else ((), ())
        )
        faults = None
        if degrades:
            from repro.faults import FaultPlan

            faults = FaultPlan(degrades=degrades)
        resilience = None
        if (
            args.timeout_ms is not None
            or args.retry
            or args.shed is not None
            or args.detect is not None
        ):
            from repro.faults import ResilienceSpec

            resilience = ResilienceSpec(
                timeout_ms=args.timeout_ms,
                max_retries=args.retry,
                shed_factor=args.shed,
                slow_factor=args.detect,
            )
        migration = None
        if args.kv_migration:
            from repro.faults import MigrationSpec

            migration = MigrationSpec()
        spec = FleetSpec.grid(
            models=config,
            clusters=cluster,
            strategies=strategy,
            replicas=replicas,
            routers=routers,
            traces=TraceSpec(
                kind=args.trace,
                rps=args.rps,
                duration_s=args.duration,
                seed=args.seed,
                prompt_mean=args.prompt_mean,
                output_mean=args.output_mean,
            ),
            policies=args.policy,
            autoscalers=autoscaler,
            failures=crashes or None,
            faults=faults,
            resilience=resilience,
            migrations=migration,
            slo_ttft_ms=args.slo_ttft_ms,
            slo_tpot_ms=args.slo_tpot_ms,
            max_batch_tokens=args.max_batch_tokens,
            router_seed=args.router_seed,
            systems=systems or None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = spec.run(workers=args.workers, executor=args.executor)

    scenario = spec.scenarios[0]
    print(
        f"{config.name}, {cluster.name} — fleet of "
        f"{scenario.num_replicas} ({args.replicas}), "
        f"{scenario.trace.label}, policy={scenario.policy}, "
        f"SLO: TTFT<={scenario.slo_ttft_ms:g}ms "
        f"TPOT<={scenario.slo_tpot_ms:g}ms\n"
    )

    def fmt(value) -> str:
        # The shared empty-metrics rule: None cells (a fleet that served
        # nothing) render as an em-dash, never as "None" or "nan".
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    # One source of truth for the schema: the table renders the same
    # rows (and the same swept-axis columns) every export uses.
    headers, rows = results.to_rows()
    drop = {"scenario"}  # the preamble above already identifies it
    keep = [i for i, h in enumerate(headers) if h not in drop]
    print(
        format_table(
            [headers[i] for i in keep],
            [[fmt(row[i]) for i in keep] for row in rows],
            title="Fleet serving (multi-replica continuous batching)",
        )
    )
    for skip in results.skips:
        print(f"skipped {skip.system}: {skip.reason}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(results.to_json())
        print(f"\nwrote report to {args.json}")
    if args.csv:
        results.to_csv(args.csv)
        print(f"wrote CSV to {args.csv}")
    if args.report:
        _print_cache_report()
    if args.trace_out:
        if not results.reports:
            print("error: nothing served, no trace to write", file=sys.stderr)
            return 1
        from repro.obs import trace_fleet_report

        _save_trace(trace_fleet_report(results.reports[0]), args.trace_out)
    if args.metrics_out:
        _write_metrics_snapshot(args.metrics_out, results)
    return 0


def _trace_kernels(args, config, cluster, strategy) -> int:
    """Default trace mode: one rank's fused-kernel lanes."""
    from repro.kernels.fused import simulate_layer0_fused, simulate_layer1_fused
    from repro.runtime.workload import make_workload
    from repro.sim import Tracer
    from repro.tensor import build_layer0_schedule, build_layer1_schedule

    workload = make_workload(config, cluster, strategy, args.tokens)
    geometry = workload.geometry
    rank = geometry.bottleneck_rank
    rank_workload = geometry.rank_workload(rank)
    comet = Comet()

    tracer = Tracer()
    simulate_layer0_fused(
        cluster.gpu, cluster.link,
        build_layer0_schedule(rank_workload.pairs_by_src_expert, rank),
        token_bytes=config.token_bytes, k=config.hidden_size,
        cols=config.ffn_size, nc=comet.division_point(workload, 0),
        tracer=tracer, lane=f"rank{rank}/layer0",
    )
    simulate_layer1_fused(
        cluster.gpu, cluster.link,
        build_layer1_schedule(rank_workload.expert_rows, cols=config.hidden_size),
        comet.layer1_comm_work(workload, rank),
        k=config.ffn_size, cols=config.hidden_size,
        nc=comet.division_point(workload, 1),
        tracer=tracer, lane=f"rank{rank}/layer1",
    )
    _save_trace(tracer, args.out)
    return 0


def _trace_graph(args, config, cluster, strategy) -> int:
    """--graph mode: the whole-model schedule graph, one pid per rank."""
    from repro.api.scenario import _as_straggler_axis
    from repro.graph.lower import forward_schedule
    from repro.obs import trace_graph_schedule
    from repro.runtime.model_runner import run_model
    from repro.systems.base import UnsupportedWorkload

    stragglers = None
    if args.stragglers is not None:
        (stragglers,) = _as_straggler_axis(
            (args.stragglers,), cluster.world_size
        )
    scenario = Scenario(
        config=config, cluster=cluster, strategy=strategy,
        tokens=args.tokens, stragglers=stragglers,
    )
    system = SYSTEM_REGISTRY.create(SYSTEM_REGISTRY.resolve(args.system))
    try:
        timing = run_model(
            system, config, cluster, strategy, total_tokens=args.tokens,
            workload=scenario.build_workload(),
            overlap_policy=args.overlap_policy, stragglers=stragglers,
        )
    except UnsupportedWorkload as exc:
        print(f"error: {system.name} skipped this workload: {exc}",
              file=sys.stderr)
        return 1
    if stragglers is not None:
        moe = system.lower_rank_phases(timing.moe, stragglers)
    else:
        moe = system.lower_layer(timing.moe)
    schedule = forward_schedule(
        moe, timing.attention_us, timing.num_layers,
        args.overlap_policy, stragglers,
    )
    _save_trace(trace_graph_schedule(schedule), args.out)
    return 0


def _trace_serve(args, config, cluster, strategy) -> int:
    """--serve mode: one serving run's request timeline."""
    from repro.obs import trace_serve_report
    from repro.serve import ServeScenario, ServeSpec, TraceSpec

    scenario = ServeScenario(
        config=config, cluster=cluster, strategy=strategy,
        trace=TraceSpec(
            kind=args.arrivals, rps=args.rps,
            duration_s=args.duration, seed=args.seed,
        ),
    )
    results = ServeSpec(
        scenarios=(scenario,),
        systems=(SYSTEM_REGISTRY.resolve(args.system),),
    ).run()
    if not results.reports:
        for skip in results.skips:
            print(f"error: {skip.system} skipped: {skip.reason}",
                  file=sys.stderr)
        return 1
    _save_trace(trace_serve_report(results.reports[0]), args.out)
    return 0


def _trace_fleet(args, config, cluster, strategy) -> int:
    """--fleet mode: a fleet run with per-replica pids and router flows.

    Defaults inject one fail/recover cycle on replica 0 so the exported
    trace demonstrates every record type (spans, counters, flows, and
    instant markers); ``--failures none`` disables the injection.
    """
    from repro.fleet import ROUTER_REGISTRY, FleetSpec
    from repro.obs import trace_fleet_report
    from repro.serve import TraceSpec

    if args.failures is None:
        failure_specs: tuple[str, ...] | None = ("0@500:1500",)
    elif [v.lower() for v in args.failures] == ["none"]:
        failure_specs = None
    else:
        failure_specs = tuple(args.failures)
    replicas = int(args.replicas) if args.replicas.isdigit() else args.replicas
    crashes, degrades = (
        _parse_fault_specs(failure_specs) if failure_specs else ((), ())
    )
    faults = None
    if degrades:
        from repro.faults import FaultPlan

        faults = FaultPlan(degrades=degrades)
    spec = FleetSpec.grid(
        models=config,
        clusters=cluster,
        strategies=strategy,
        replicas=replicas,
        routers=ROUTER_REGISTRY.resolve(args.router),
        traces=TraceSpec(
            kind=args.arrivals, rps=args.rps,
            duration_s=args.duration, seed=args.seed,
        ),
        failures=crashes or None,
        faults=faults,
        systems=SYSTEM_REGISTRY.resolve(args.system),
    )
    results = spec.run()
    if not results.reports:
        for skip in results.skips:
            print(f"error: {skip.system} skipped: {skip.reason}",
                  file=sys.stderr)
        return 1
    _save_trace(trace_fleet_report(results.reports[0]), args.out)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        cluster = CLUSTER_REGISTRY.get(args.cluster)()
        config = MODEL_REGISTRY.get(args.model)
        strategy = _strategy(args, cluster)
        if args.graph:
            return _trace_graph(args, config, cluster, strategy)
        if args.serve:
            return _trace_serve(args, config, cluster, strategy)
        if args.fleet:
            return _trace_fleet(args, config, cluster, strategy)
        return _trace_kernels(args, config, cluster, strategy)
    except (ValueError, UnknownNameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "figure": _cmd_figure,
        "fleet": _cmd_fleet,
        "layer": _cmd_layer,
        "lint": _cmd_lint,
        "model": _cmd_model,
        "serve": _cmd_serve,
        "sweep": _cmd_sweep,
        "sweep-nc": _cmd_sweep_nc,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
