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

A numeric flag that sets exactly one spec field is declared on that
field (:func:`repro.domains.knob`): :data:`_FIELD_FLAGS` names the
field, and the parser takes the flag's type, default and help from the
field's declaration.  :data:`_FLAGS` spells every other flag once: its
type, default, help, and the registry its choices come from.
:data:`_COMMANDS` lists the flags each subcommand takes, with the
keywords where one departs from the tables, and one loop builds the
parsers.  A new flag goes into one of the two tables and into the flag
list of every subcommand that takes it.

Apart from ``--tp``'s sign, which the ``--ep`` default divides by, the
CLI checks no value itself: each command that runs a simulation builds
its spec through that spec's ``grid()``, and a ``ValueError`` or unknown
registry name raised below :func:`main` prints ``error: ...`` and exits
2.  Building the parser loads the spec modules whose fields back flags;
each handler imports the engines it runs, so building the parser loads
no figure, engine or observability module.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Sequence

from repro.api.registry import (
    CLUSTER_REGISTRY,
    MODEL_REGISTRY,
    SYSTEM_REGISTRY,
    UnknownNameError,
)
from repro.api.scenario import ExperimentSpec, Scenario, expand
from repro.bench.report import format_table
from repro.domains import domains
from repro.faults.resilience import ResilienceSpec
from repro.fleet.spec import AutoscalerSpec, FleetScenario, FleetSpec
from repro.graph.lower import OVERLAP_POLICIES
from repro.parallel.strategy import ParallelStrategy
from repro.serve.scenario import ServeScenario, ServeSpec
from repro.serve.traffic import TRACE_REGISTRY, TraceSpec

__all__ = ["main"]

#: Each figure name, with its runner in :mod:`repro.bench.figures`.
FIGURES = {
    "fig1a": "fig01_time_breakdown",
    "fig8": "fig08_nc_sweep",
    "fig9": "fig09_end_to_end",
    "fig10": "fig10_single_layer",
    "fig11": "fig11_breakdown",
    "fig12": "fig12_parallelism",
    "fig13": "fig13_moe_params",
    "fig14-imbalance": "fig14_imbalance",
    "fig14-l20": "fig14_l20",
    "table3": "table3_memory",
}


# -- the flag table --------------------------------------------------------------
# Registry-backed choices are read when the parser is built, so a plugin
# registered after import is still a valid choice.
def _models() -> list[str]:
    return sorted(MODEL_REGISTRY.names())


def _clusters() -> list[str]:
    return sorted(CLUSTER_REGISTRY.names())


def _arrivals() -> list[str]:
    # 'replay' needs a programmatic arrivals array that no flag can carry.
    return [name for name in TRACE_REGISTRY.names() if name != "replay"]


#: The argparse keywords of every flag not in :data:`_FIELD_FLAGS`; a
#: callable ``choices`` is read at build.
_FLAGS: dict[str, dict[str, Any]] = {
    # Flags with no single spec field behind them: registry choices,
    # switches, execution and output settings, and values one handler
    # spreads over several fields or specs (--seed is the routing seed of
    # layer/model/sweep and the trace seed of serve/fleet; --tp/--ep make
    # a strategy; --autoscale turns the autoscaler on and sets its floor).
    "name": dict(choices=sorted(FIGURES), help="figure or table to regenerate"),
    "--model": dict(choices=_models, default="mixtral", help="model registry name"),
    "--models": dict(nargs="+", choices=_models, default=["mixtral"], help="model names"),
    "--cluster": dict(choices=_clusters, default="h800", help="cluster registry name"),
    "--clusters": dict(nargs="+", choices=_clusters, default=["h800"], help="cluster names"),
    "--tp": dict(type=int, default=1, help="tensor-parallel size"),
    "--ep": dict(type=int, help="expert-parallel size (default: world size / tp)"),
    "--seed": dict(type=int, default=0, help="routing or trace seed"),
    "--systems": dict(help="comma-separated registry names (default: all registered systems)"),
    "--overlap-policy": dict(choices=OVERLAP_POLICIES, default="per_layer", metavar="POLICY",
                             help="cross-layer overlap policy: per_layer, cross_layer or "
                             "shortcut"),
    "--stragglers": dict(type=float, metavar="MULT", help="model one straggling rank: "
                         "lower per-rank schedule graphs with rank 0 slowed by MULT "
                         "(e.g. 1.5) and report per-rank makespans and imbalance"),
    "--straggler-mult": dict(type=float, metavar="MULT", help="slow rank 0 by MULT "
                             "(e.g. 1.5): every continuous-batching step is priced on "
                             "the per-rank schedule graph"),
    "--training": dict(action="store_true", help="time one training step (fwd + bwd + "
                       "grad sync + optimizer) instead of the forward pass"),
    "--trace": dict(choices=_arrivals, default="poisson", help="arrival process"),
    "--policy": dict(default="fcfs", help="admission policy: fcfs, spf, or slo"),
    "--replicas": dict(default="1", metavar="N|PpD", help="fleet shape: a replica count "
                       "(e.g. 4) or a disaggregated '2p+2d' prefill+decode split"),
    "--router": dict(nargs="+", default=["round_robin"], metavar="NAME",
                     help="routing policies to compare: round_robin, least_queue, "
                     "session_affinity, power_of_two"),
    "--autoscale": dict(type=int, metavar="MIN", help="enable queue-driven autoscaling "
                        "with MIN always-on replicas (--replicas is the ceiling)"),
    "--failures": dict(nargs="+", metavar="R@SPEC", help="inject replica faults: "
                       "'1@1000:3000' fails replica 1 at t=1000ms and recovers it at "
                       "t=3000ms (omit ':RECOVER' for a permanent failure); "
                       "'0@500:2500:x1.5' degrades replica 0 by 1.5x over [500, 2500) ms"),
    "--kv-migration": dict(action="store_true", help="price KV handoffs and post-crash "
                           "re-dispatch over the inter-replica link (default: free)"),
    "--workers": dict(type=int, metavar="N",
                      help="run on N workers (output identical to serial)"),
    "--executor": dict(choices=("thread", "process"), default="thread",
                       help="worker kind for --workers (process: GIL-free)"),
    "--report": dict(action="store_true",
                     help="also print simulation-cache statistics (hits/misses/size)"),
    "--json": dict(metavar="PATH", help="also export the results as JSON"),
    "--csv": dict(metavar="PATH", help="also export a CSV table"),
    "--trace-out": dict(metavar="PATH", help="export a Chrome trace of the first result"),
    "--metrics-out": dict(metavar="PATH", help="export a metrics snapshot as JSON"),
    "--out": dict(default="comet_timeline.json", help="trace file to write"),
    # Flags whose CLI default deliberately differs from the field's: a
    # serving run offers 160 rps (TraceSpec.rps defaults to 8), and
    # Scenario.tokens has no default at all.
    "--rps": dict(type=float, default=160.0, help="mean request arrival rate"),
    "--tokens": dict(type=int, default=16384, help="total input tokens"),
}

#: Numeric flags that set exactly one spec field, with that field: its
#: declaration gives the flag's type, default and help
#: (:func:`_flag_keywords`), and :func:`_fields_of` reads the flags back
#: as the spec's keyword arguments.
_FIELD_FLAGS: dict[str, tuple[type, str]] = {
    "--imbalance-std": (Scenario, "imbalance_std"),
    "--duration": (TraceSpec, "duration_s"),
    "--prompt-mean": (TraceSpec, "prompt_mean"),
    "--output-mean": (TraceSpec, "output_mean"),
    "--slo-ttft-ms": (ServeScenario, "slo_ttft_ms"),
    "--slo-tpot-ms": (ServeScenario, "slo_tpot_ms"),
    "--max-batch-tokens": (ServeScenario, "max_batch_tokens"),
    "--router-seed": (FleetScenario, "router_seed"),
    "--scale-up-queue": (AutoscalerSpec, "scale_up_queue"),
    "--scale-down-queue": (AutoscalerSpec, "scale_down_queue"),
    "--warmup-ms": (AutoscalerSpec, "warmup_ms"),
    "--autoscale-interval-ms": (AutoscalerSpec, "interval_ms"),
    "--timeout-ms": (ResilienceSpec, "timeout_ms"),
    "--retry": (ResilienceSpec, "max_retries"),
    "--shed": (ResilienceSpec, "shed_factor"),
    "--detect": (ResilienceSpec, "slow_factor"),
}

_SHAPE = ("--model", "--cluster", "--tp", "--ep")
_SERVING = (
    "--trace", "--rps", "--duration", *_SHAPE, "--systems", "--policy", "--slo-ttft-ms",
    "--slo-tpot-ms", "--max-batch-tokens", "--prompt-mean", "--output-mean", "--seed",
)
_SERVING_OUT = ("--json", "--csv", "--workers", "--executor", "--report", "--trace-out",
                "--metrics-out")
_RAW_JSON = ("--json", dict(help="also export raw data"))

#: Each subcommand's help line and flags; a ``(flag, keywords)`` entry
#: overrides the table's keywords for that subcommand.
_COMMANDS: dict[str, tuple[str, tuple]] = {
    "figure": ("regenerate a paper figure/table", ("name", _RAW_JSON)),
    "layer": ("time one MoE layer under the systems", (
        *_SHAPE, "--tokens", "--imbalance-std", "--seed", "--systems",
        ("--report", dict(help="also print the overlap report (hidden-comm fractions)")),
    )),
    "model": ("time a full model under the cross-layer overlap policies", (
        *_SHAPE, "--tokens", "--imbalance-std", "--seed", "--systems",
        ("--overlap-policy", dict(nargs="+", default=list(OVERLAP_POLICIES),
                                  help="overlap policies to compare")),
        "--training", "--stragglers", "--trace-out", "--metrics-out",
        ("--report", dict(help="also print the critical path through the schedule graph")),
    )),
    "sweep": ("run a declarative scenario grid and tabulate it", (
        "--models", "--clusters",
        ("--tp", dict(nargs="+", default=None, help="tensor-parallel sizes "
                      "(default: all factorisations)")),
        ("--ep", dict(nargs="+", help="expert-parallel sizes (default: all factorisations)")),
        ("--tokens", dict(nargs="+", default=[16384], help="token counts")),
        ("--systems", dict(nargs="+", help="registry names (default: all registered)")),
        ("--imbalance-std", dict(nargs="+", default=[0.0], help="imbalance stds")),
        ("--seed", dict(nargs="+", default=[0], help="seeds")),
        ("--overlap-policy", dict(nargs="+", default=None, help="sweep overlap policies "
                                  "(runs the grid at model level)")),
        ("--straggler-mult", dict(nargs="+", help="sweep slow-rank multipliers (1.0 = "
                                  "none; runs the grid at model level)")),
        _RAW_JSON, "--workers", "--executor", "--report",
    )),
    "sweep-nc": ("profile the fused-kernel division point", (*_SHAPE, "--tokens")),
    "serve": ("simulate online inference serving and report SLO metrics", (
        *_SERVING, "--overlap-policy", "--straggler-mult", *_SERVING_OUT,
    )),
    "fleet": ("simulate a multi-replica serving fleet (routing, autoscaling, failures)", (
        "--replicas", "--router", "--autoscale", "--scale-up-queue", "--scale-down-queue",
        "--warmup-ms", "--autoscale-interval-ms", "--failures", "--timeout-ms", "--retry",
        "--shed", "--detect", "--kv-migration", *_SERVING, "--router-seed", *_SERVING_OUT,
    )),
    "trace": ("export a Chrome/Perfetto trace of one rank's fused kernels (model, serve "
              "and fleet --trace-out trace the higher tiers)", (*_SHAPE, "--tokens", "--out")),
}


class _HelpFormatter(argparse.HelpFormatter):
    """Appends each option's default, unless None or False, to its help."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.default in (None, argparse.SUPPRESS) or action.default is False:
            return action.help
        return f"{action.help or ''} (default: %(default)s)".lstrip()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMET (MLSys 2025) reproduction: simulate MoE systems "
        "and regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_line, formatter_class=_HelpFormatter)
        for entry in flags:
            flag, overrides = entry if isinstance(entry, tuple) else (entry, {})
            kwargs = {**_flag_keywords(flag), **overrides}
            if callable(kwargs.get("choices")):
                kwargs["choices"] = kwargs["choices"]()
            cmd.add_argument(flag, **kwargs)
    return parser


def _flag_keywords(flag: str) -> dict[str, Any]:
    """A flag's argparse keywords: its :data:`_FLAGS` entry, or the type,
    default and help declared on the field its :data:`_FIELD_FLAGS` entry
    names."""
    if flag not in _FIELD_FLAGS:
        return _FLAGS[flag]
    owner, name = _FIELD_FLAGS[flag]
    (default,) = (f.default for f in dataclasses.fields(owner) if f.name == name)
    domain = domains(owner)[name]
    return dict(type=domain.type, default=default, help=domain.help)


def _fields_of(owner: type, args: argparse.Namespace) -> dict[str, Any]:
    """The parsed values of ``owner``'s :data:`_FIELD_FLAGS` flags, by
    field name."""
    return {
        name: getattr(args, flag[2:].replace("-", "_"))
        for flag, (cls, name) in _FIELD_FLAGS.items()
        if cls is owner
    }


# -- flags into grid arguments ---------------------------------------------------
def _shape(args: argparse.Namespace) -> dict[str, Any]:
    """The ``--model``/``--cluster``/``--tp``/``--ep`` grid arguments, EP
    defaulting to world size / TP."""
    cluster = CLUSTER_REGISTRY.get(args.cluster)()
    if args.tp <= 0:
        raise ValueError(f"tp must be positive, got {args.tp}")
    ep = args.ep if args.ep is not None else cluster.world_size // args.tp
    return {
        "models": MODEL_REGISTRY.get(args.model),
        "clusters": cluster,
        "strategies": ParallelStrategy(tp_size=args.tp, ep_size=ep),
    }


def _names(values: Sequence[str] | str | None) -> tuple[str, ...]:
    """Names from CLI input (comma- and/or space-separated)."""
    if values is None:
        return ()
    if isinstance(values, str):
        values = [values]
    return tuple(
        part.strip() for value in values for part in value.split(",") if part.strip()
    )


def _systems(values: Sequence[str] | str | None) -> tuple[str, ...]:
    """Registry slugs of ``--systems``; an unknown name raises
    :class:`UnknownNameError`, whose message lists every valid name."""
    return tuple(SYSTEM_REGISTRY.resolve(name) for name in _names(values))


def _serving(args: argparse.Namespace, spec_cls: type, **axes: Any):
    """``spec_cls.grid`` (ServeSpec or FleetSpec) on the shape flags, one
    trace of the traffic flags and the serving flags; ``axes`` are its
    other arguments, a fleet's :func:`_fleet_shape` among them."""
    shape = _shape(args)
    trace = TraceSpec(
        kind=args.trace, rps=args.rps, seed=args.seed, **_fields_of(TraceSpec, args)
    )
    return spec_cls.grid(
        **shape,
        traces=trace,
        policies=args.policy,
        systems=_systems(args.systems),
        **_fields_of(ServeScenario, args),
        **axes,
    )


def _fleet_shape(args: argparse.Namespace) -> dict[str, Any]:
    """The ``--replicas`` and ``--router`` grid arguments of a fleet."""
    return {
        "replicas": int(args.replicas) if args.replicas.isdigit() else args.replicas,
        "routers": _names(args.router),
    }


def _fault_axes(values: Sequence[str] | None) -> dict[str, Any]:
    """The ``failures`` and ``faults`` grid arguments of ``--failures``:
    its crashes as one failure plan, its degradations as a FaultPlan."""
    from repro.faults.plan import FaultPlan

    crashes, degrades = _parse_fault_specs(values) if values else ((), ())
    return {
        "failures": crashes or None,
        "faults": FaultPlan(degrades=degrades) if degrades else None,
    }


def _parse_fault_specs(values: Sequence[str]):
    """Fault grammar strings into ``(crashes, degrades)`` event tuples.

    Two shapes share the ``R@...`` prefix: ``R@FAIL[:RECOVER]`` is a
    crash (recover omitted = permanent), and ``R@T0:T1:xMULT`` — the
    third field carrying an explicit ``x`` — degrades replica ``R`` by
    ``MULT``x (compute and comm) over the ``[T0, T1)`` window.
    :func:`_format_fault_specs` is the exact inverse.
    """
    from repro.faults.plan import DegradeEvent, FailureEvent

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


# -- shared output ---------------------------------------------------------------
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


def _write_metrics(path: str, manifest, metrics: dict) -> None:
    """Write ``{"manifest": ..., "metrics": ...}``.

    The manifest is wall-clock stamped here — at the export boundary —
    so the in-memory result set (and its ``to_json()``) stays
    deterministic.
    """
    payload = {
        "manifest": manifest.stamp().to_dict() if manifest else None,
        "metrics": metrics,
    }
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


def _export_served(args: argparse.Namespace, results, render_trace) -> int:
    """The serve/fleet tail: skips, then ``--json``, ``--csv``,
    ``--report``, ``--trace-out`` (of the first report, drawn by
    ``render_trace``) and ``--metrics-out``."""
    from repro.obs.metrics import snapshot_for

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
        _save_trace(render_trace(results.reports[0]), args.trace_out)
    if args.metrics_out:
        _write_metrics(args.metrics_out, results.manifest, snapshot_for(results))
    return 0


def _schedule(system, timing):
    """The schedule graph ``run_model``/``run_training_step`` priced
    ``timing`` on, so reports and traces match its makespans exactly."""
    from repro.graph.lower import forward_schedule, training_schedule
    from repro.runtime.training import TrainStepTiming

    spec = timing.stragglers

    def lower(sys_, moe_timing):
        if spec is not None:
            return sys_.lower_rank_phases(moe_timing, spec)
        return sys_.lower_layer(moe_timing)

    if isinstance(timing, TrainStepTiming):
        return training_schedule(
            lower(system, timing.moe_fwd), lower(system.backward_variant(), timing.moe_bwd),
            timing.attention_fwd_us, timing.attention_bwd_us, timing.num_layers,
            timing.grad_sync_us, timing.optimizer_us, timing.overlap_policy, spec,
        )
    return forward_schedule(
        lower(system, timing.moe), timing.attention_us, timing.num_layers,
        timing.overlap_policy, spec,
    )


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


# -- commands --------------------------------------------------------------------
def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench import figures
    from repro.bench.export import save_json

    result = getattr(figures, FIGURES[args.name])()
    print(result.format())
    if args.json:
        save_json(result, args.json)
        print(f"\nwrote raw data to {args.json}")
    return 0


def _cmd_layer(args: argparse.Namespace) -> int:
    from repro.runtime.visualize import render_breakdown_bars, render_overlap_lanes

    spec = ExperimentSpec.grid(
        **_shape(args),
        tokens=args.tokens,
        imbalance_stds=args.imbalance_std,
        seeds=args.seed,
        systems=_systems(args.systems),
    )
    (scenario,) = spec.scenarios
    results = spec.run()
    timings = results.timings(scenario)
    print(
        f"{scenario.config.name}, {scenario.strategy}, M={args.tokens}, "
        f"{scenario.cluster.name}\n"
    )
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


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.api.scenario import default_system_names
    from repro.runtime.model_runner import run_model
    from repro.runtime.training import run_training_step
    from repro.systems.base import UnsupportedWorkload

    spec = ExperimentSpec.grid(
        **_shape(args),
        tokens=args.tokens,
        imbalance_stds=args.imbalance_std,
        seeds=args.seed,
        stragglers=args.stragglers,
        systems=_systems(args.systems),
    )
    (scenario,) = spec.scenarios
    config, stragglers = scenario.config, scenario.stragglers
    policies = list(dict.fromkeys(args.overlap_policy))
    names = spec.systems or default_system_names()
    workload = scenario.build_workload()
    runner = run_training_step if args.training else run_model
    kind = "training step" if args.training else "forward pass"
    straggler_note = f", stragglers={stragglers.label}" if stragglers else ""
    print(
        f"{config.name}, {scenario.strategy}, M={args.tokens}, "
        f"{scenario.cluster.name} — {kind}, {config.num_layers} layers"
        f"{straggler_note}\n"
    )
    rows = []
    report_lines = []
    trace_target = None
    makespans_ms: dict[tuple[str, str], float] = {}
    for name in names:
        system = SYSTEM_REGISTRY.create(name)
        try:
            timings = {
                policy: runner(
                    system, config, scenario.cluster, scenario.strategy,
                    total_tokens=args.tokens, workload=workload,
                    overlap_policy=policy, stragglers=stragglers,
                )
                for policy in policies
            }
        except UnsupportedWorkload as exc:
            print(f"{system.name:>18s} |  skipped: {exc}")
            continue
        cells = [system.name]
        for policy, timing in timings.items():
            cells.append(f"{timing.makespan_us / 1000:.3f}")
            makespans_ms[(system.name, policy)] = timing.makespan_us / 1000.0
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
            trace_target = (system, timings[policies[0]])
        if args.report:
            for policy, timing in timings.items():
                schedule = _schedule(system, timing)
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
        from repro.obs.timeline import trace_graph_schedule

        _save_trace(trace_graph_schedule(_schedule(*trace_target)), args.trace_out)
    if args.metrics_out:
        from repro.obs.manifest import capture
        from repro.obs.metrics import MetricsRegistry, collect_cache_stats

        registry = MetricsRegistry()
        for (sys_name, policy), value in makespans_ms.items():
            registry.gauge(f"model.{sys_name}.{policy}.makespan_ms", value)
        collect_cache_stats(registry)
        _write_metrics(
            args.metrics_out,
            capture("model", spec.scenarios, names),
            registry.snapshot(),
        )
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
    from repro.graph.straggler import check_multiplier

    systems = _systems(args.systems)
    policies = list(dict.fromkeys(args.overlap_policy or ["per_layer"]))
    straggler_mults = list(dict.fromkeys(args.straggler_mult or [1.0]))
    for mult in straggler_mults:
        check_multiplier(mult)

    def point(config, cluster, strategy, tokens, imbalance_std, seed):
        try:
            return ExperimentSpec.grid(
                config, cluster, strategy, tokens, imbalance_std, seed,
                overlap_policies=policies, stragglers=straggler_mults,
            ).scenarios
        except ValueError as exc:
            # Validity is policy-independent: warn once per grid point,
            # not per policy.
            print(f"skipping grid point: {exc}", file=sys.stderr)
            return ()

    axes = (
        ("config", [MODEL_REGISTRY.get(name) for name in args.models]),
        ("cluster", [CLUSTER_REGISTRY.get(name)() for name in args.clusters]),
        ("strategy", lambda cluster: _strategies_for(cluster, args.tp, args.ep)),
        ("tokens", args.tokens),
        ("imbalance_std", args.imbalance_std),
        ("seed", args.seed),
    )
    scenarios = [scenario for found in expand(axes, point) for scenario in found]
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
    from repro.systems.comet import Comet

    try:
        (scenario,) = ExperimentSpec.grid(**_shape(args), tokens=args.tokens).scenarios
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
    from repro.obs.timeline import trace_serve_report

    spec = _serving(
        args, ServeSpec,
        overlap_policies=args.overlap_policy, stragglers=args.straggler_mult,
    )
    (scenario,) = spec.scenarios
    results = spec.run(workers=args.workers, executor=args.executor)
    overlap = (
        f", overlap={scenario.overlap_policy}"
        if scenario.overlap_policy != "per_layer"
        else ""
    )
    straggler_note = (
        f", stragglers={scenario.stragglers.label}" if scenario.stragglers else ""
    )
    print(
        f"{scenario.config.name}, {scenario.strategy}, {scenario.cluster.name} — "
        f"{scenario.trace.label}, policy={scenario.policy}{overlap}{straggler_note}, "
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
    return _export_served(args, results, trace_serve_report)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.faults.migration import MigrationSpec
    from repro.obs.timeline import trace_fleet_report

    autoscaler = None
    if args.autoscale is not None:
        autoscaler = AutoscalerSpec(
            min_replicas=args.autoscale, **_fields_of(AutoscalerSpec, args)
        )
    # With every resilience flag at its default the spec enables nothing,
    # and an all-off spec is no policy at all.
    resilience = ResilienceSpec(**_fields_of(ResilienceSpec, args)) or None
    spec = _serving(
        args, FleetSpec,
        **_fleet_shape(args),
        autoscalers=autoscaler,
        resilience=resilience,
        migrations=MigrationSpec() if args.kv_migration else None,
        **_fields_of(FleetScenario, args),
        **_fault_axes(args.failures),
    )
    results = spec.run(workers=args.workers, executor=args.executor)
    scenario = spec.scenarios[0]
    print(
        f"{scenario.config.name}, {scenario.replicas[0].cluster.name} — fleet of "
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
    return _export_served(args, results, trace_fleet_report)


def _cmd_trace(args: argparse.Namespace) -> int:
    """One rank's fused-kernel lanes."""
    from repro.kernels.fused import simulate_layer0_fused, simulate_layer1_fused
    from repro.sim.trace import Tracer
    from repro.systems.comet import Comet
    from repro.tensor.reschedule import build_layer0_schedule, build_layer1_schedule

    (scenario,) = ExperimentSpec.grid(**_shape(args), tokens=args.tokens).scenarios
    config, cluster = scenario.config, scenario.cluster
    workload = scenario.build_workload()
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


_HANDLERS = {
    "figure": _cmd_figure,
    "fleet": _cmd_fleet,
    "layer": _cmd_layer,
    "model": _cmd_model,
    "serve": _cmd_serve,
    "sweep": _cmd_sweep,
    "sweep-nc": _cmd_sweep_nc,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A ``ValueError`` or :class:`UnknownNameError` from any command — a
    spec rejecting a flag value, an unknown registry name — prints
    ``error: ...`` and exits 2.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, UnknownNameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
