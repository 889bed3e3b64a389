"""Observability walkthrough: timelines, metrics, and provenance.

Builds one example of each post-hoc trace the `repro.obs` layer renders
— a whole-model schedule graph (one process per rank), a serving run
(request-lifecycle spans with flow arrows and counter tracks), and a
fleet run (per-replica processes, router dispatch flows, failure
instants) — validates each against the Chrome Trace Event Format
schema, prints the unified metrics snapshot, and shows the run manifest
that ties the exports back to the spec that produced them.

Everything here is derived *after* the simulations finish, so
observing a run never changes a simulated number: the last step renders
a result set's traces and metrics snapshot and checks its export bytes
are unchanged, exiting non-zero if they are not.

Open any of the written JSON files in https://ui.perfetto.dev.

Run:
    python examples/trace_timelines.py [output-dir]
"""

import os
import sys

from repro import (
    MIXTRAL_8X7B,
    Comet,
    FleetSpec,
    ParallelStrategy,
    ServeSpec,
    TraceSpec,
    h800_node,
    obs,
    run_model,
)
from repro.fleet import FailureEvent
from repro.graph.lower import forward_schedule


def graph_timeline(out_dir: str) -> None:
    """A straggler-perturbed forward pass: one Chrome process per rank."""
    from repro.graph import StragglerSpec

    system = Comet()
    cluster = h800_node()
    strategy = ParallelStrategy(tp_size=1, ep_size=cluster.world_size)
    stragglers = StragglerSpec.slow_rank(
        cluster.world_size, rank=0, compute_mult=1.5
    )
    timing = run_model(
        system, MIXTRAL_8X7B, cluster, strategy, total_tokens=16384,
        stragglers=stragglers,
    )
    schedule = forward_schedule(
        system.lower_rank_phases(timing.moe, stragglers),
        timing.attention_us, timing.num_layers, "per_layer", stragglers,
    )
    tracer = obs.trace_graph_schedule(schedule)
    path = os.path.join(out_dir, "graph_timeline.json")
    tracer.save_chrome_trace(path)
    counts = obs.validate_chrome_trace(tracer.to_chrome_trace())
    print(f"graph:  {counts['X']} spans, {counts['i']} critical-path "
          f"markers across {len(tracer.processes())} rank processes "
          f"-> {path}")


def serve_timeline(out_dir: str) -> None:
    """One serving run: request spans, arrival flows, counter tracks."""
    results = ServeSpec.grid(
        traces=TraceSpec(kind="poisson", rps=40, duration_s=2.0, seed=0),
        systems="comet",
    ).run()
    report = results.reports[0]
    tracer = obs.trace_serve_report(report)
    path = os.path.join(out_dir, "serve_timeline.json")
    tracer.save_chrome_trace(path)
    counts = obs.validate_chrome_trace(
        tracer.to_chrome_trace(), check_overlap=True
    )
    print(f"serve:  {len(report.records)} requests, {counts['C']} counter "
          f"samples, {counts['s']} flow arrows -> {path}")

    # The unified metrics snapshot the CLI writes via --metrics-out:
    snapshot = obs.snapshot_for(results, include_caches=False)
    ttft = snapshot["histograms"]["serve.ttft_ms"]
    print(f"        TTFT p50={ttft['p50']:.1f} ms  p95={ttft['p95']:.1f} ms "
          f"(goodput {report.goodput_rps:.1f} rps)")

    # Provenance: every *Spec.run() result carries a deterministic
    # manifest; stamp() adds wall-clock only at an export boundary.
    manifest = results.manifest
    print(f"        manifest: kind={manifest.kind} "
          f"fingerprint={manifest.fingerprint} seeds={manifest.seeds}")


def fleet_timeline(out_dir: str) -> None:
    """A failing fleet: per-replica processes + router dispatch flows."""
    results = FleetSpec.grid(
        replicas=3,
        routers="least_queue",
        traces=TraceSpec(kind="bursty", rps=60, duration_s=2.0, seed=0),
        failures=(FailureEvent(replica=0, fail_ms=500.0, recover_ms=1200.0),),
        systems="comet",
    ).run()
    report = results.reports[0]
    tracer = obs.trace_fleet_report(report)
    path = os.path.join(out_dir, "fleet_timeline.json")
    tracer.save_chrome_trace(path)
    counts = obs.validate_chrome_trace(
        tracer.to_chrome_trace(), check_overlap=True
    )
    print(f"fleet:  {counts['X']} spans on {len(tracer.processes())} "
          f"processes ({', '.join(tracer.processes())}), "
          f"{counts['s']} dispatch flows, {counts.get('i', 0)} "
          f"fail/recover instants -> {path}")


def zero_perturbation_demo() -> bool:
    """Rendering a result set's traces and metrics leaves its export
    bytes unchanged."""
    results = ServeSpec.grid(
        traces=TraceSpec(rps=20, duration_s=1.0), systems="comet"
    ).run()
    before = results.to_json()
    for report in results.reports:
        obs.trace_serve_report(report).to_chrome_trace()
    obs.snapshot_for(results)
    unchanged = results.to_json() == before
    print(f"\nzero-perturbation: export unchanged by tracing and metrics "
          f"-> {unchanged}")
    return unchanged


def main(out_dir: str = ".") -> int:
    os.makedirs(out_dir, exist_ok=True)
    graph_timeline(out_dir)
    serve_timeline(out_dir)
    fleet_timeline(out_dir)
    return 0 if zero_perturbation_demo() else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "."))
