"""Fleet-layer benchmark: routing on heterogeneous fleets, diurnal
autoscaling, and the single-replica fast-path guarantee.

Three scenarios, each doubling as an acceptance check:

* **routing** — a bursty trace against a 4-replica fleet with one
  replica degraded by a 2.5x compute straggler.  Power-of-two-choices
  must strictly beat round-robin on p99 TTFT (on a homogeneous fleet
  round-robin's count-balance is near-optimal; heterogeneity is what
  state-aware routing is for).
* **autoscale** — a diurnal arrival cycle on a 4-replica ceiling with a
  1-replica floor.  The autoscaler must demonstrably track the cycle:
  every scale-up in the peak half of the trace, at least one
  scale-down after the peak, and a mean active-GPU count well under
  static provisioning at equal served load.
* **identity** — a 1-replica round-robin fleet must produce
  byte-identical exports to the bare serving engine (the fleet layer's
  zero-overhead contract), and it must reuse the shared step-cost cache.

Run directly (CI smoke step); ``--out`` writes the record (the committed
one is ``BENCH_fleet.json``)::

    python benchmarks/bench_fleet.py [--quick] [--out PATH]

or under pytest-benchmark like the other harnesses.
"""

from __future__ import annotations

import argparse
import json
import time

from repro import FleetSpec, ServeSpec, StragglerSpec, TraceSpec, perf
from repro.fleet import AutoscalerSpec, ReplicaSpec
from repro.hw.presets import h800_node
from repro.parallel import ParallelStrategy

STRATEGY = ParallelStrategy(tp_size=1, ep_size=8)


def _pool(straggler_mult: float = 2.5):
    cluster = h800_node()
    return (
        ReplicaSpec(cluster=cluster, strategy=STRATEGY, count=3),
        ReplicaSpec(
            cluster=cluster,
            strategy=STRATEGY,
            count=1,
            stragglers=StragglerSpec.slow_rank(8, rank=0, compute_mult=straggler_mult),
        ),
    )


def bench_routing(quick: bool = False) -> dict:
    """p2c vs round-robin on the heterogeneous fleet."""
    trace = TraceSpec(
        kind="bursty",
        rps=150.0 if quick else 300.0,
        duration_s=4.0 if quick else 8.0,
        seed=3,
    )
    start = time.perf_counter()
    results = FleetSpec.grid(
        replicas=_pool(),
        routers=("round_robin", "least_queue", "power_of_two"),
        traces=trace,
        systems="comet",
    ).run(workers=3)
    wall_s = time.perf_counter() - start

    def doc(router: str) -> dict:
        report = results.get("comet", router=router)
        return {
            "ttft_p99_ms": report.ttft_percentiles()["p99"],
            "ttft_p50_ms": report.ttft_percentiles()["p50"],
            "goodput_rps": report.goodput_rps,
            "slo_attainment": report.slo_attainment,
            "unserved": report.unserved,
        }

    routers = {name: doc(name) for name in
               ("round_robin", "least_queue", "power_of_two")}
    return {
        "trace": trace.label,
        "fleet": "3 healthy + 1 straggler (compute_mult=2.5, rank 0)",
        "wall_s": wall_s,
        "routers": routers,
        "p2c_beats_rr": (
            routers["power_of_two"]["ttft_p99_ms"]
            < routers["round_robin"]["ttft_p99_ms"]
        ),
    }


def bench_autoscale(quick: bool = False) -> dict:
    """Queue-driven autoscaling against a diurnal cycle."""
    trace = TraceSpec(
        kind="diurnal",
        rps=150.0,
        duration_s=10.0 if quick else 20.0,
        seed=1,
        amplitude=0.9,
    )
    scaler = AutoscalerSpec(
        min_replicas=1,
        scale_up_queue=4.0,
        scale_down_queue=0.5,
        interval_ms=500.0,
        warmup_ms=1000.0,
    )
    start = time.perf_counter()
    results = FleetSpec.grid(
        replicas=4,
        autoscalers=(None, scaler),
        traces=trace,
        systems="comet",
    ).run(workers=2)
    wall_s = time.perf_counter() - start
    static, scaled = results.reports
    if static.autoscaler_churn:
        static, scaled = scaled, static
    ups = sorted(e.t_ms for e in scaled.events if e.kind == "up")
    downs = sorted(e.t_ms for e in scaled.events if e.kind == "down")
    horizon = trace.horizon_ms
    return {
        "trace": trace.label,
        "wall_s": wall_s,
        "scale_ups": len(ups),
        "scale_downs": len(downs),
        "scale_up_times_ms": ups,
        "scale_down_times_ms": downs,
        "horizon_ms": horizon,
        # Diurnal peak sits at horizon/4; demand (and therefore queue
        # pressure) lives in the first half of the trace.
        "ups_in_peak_half": sum(1 for t in ups if t <= horizon / 2),
        "downs_after_peak": sum(1 for t in downs if t > horizon / 4),
        "mean_active_gpus_scaled": scaled.mean_active_gpus,
        "mean_active_gpus_static": static.mean_active_gpus,
        "unserved_scaled": scaled.unserved,
        "goodput_scaled_rps": scaled.goodput_rps,
        "goodput_static_rps": static.goodput_rps,
        "goodput_per_gpu_scaled": scaled.goodput_per_gpu,
        "goodput_per_gpu_static": static.goodput_per_gpu,
    }


def bench_identity(quick: bool = False) -> dict:
    """1-replica fleet == bare serving engine, with cache reuse."""
    trace = TraceSpec(
        kind="poisson",
        rps=40.0 if quick else 80.0,
        duration_s=3.0 if quick else 6.0,
        seed=0,
    )
    perf.clear_caches()
    start = time.perf_counter()
    serve = ServeSpec.grid(traces=trace, systems="comet").run()
    serve_s = time.perf_counter() - start
    start = time.perf_counter()
    fleet = FleetSpec.grid(traces=trace, systems="comet").run()
    fleet_s = time.perf_counter() - start
    identical = fleet.reports[0].records == serve.reports[0].records
    step_cost = perf.cache_stats()["step-cost"]
    return {
        "trace": trace.label,
        "wall_s_serve": serve_s,
        "wall_s_fleet": fleet_s,
        "identical_records": identical,
        "step_cost_cache": step_cost,
    }


def run_benchmark(quick: bool = False) -> dict:
    return {
        "benchmark": "fleet",
        "mode": "quick" if quick else "full",
        "routing": bench_routing(quick),
        "autoscale": bench_autoscale(quick),
        "identity": bench_identity(quick),
    }


def _check(payload: dict) -> list[str]:
    """The acceptance conditions; returns human-readable failures."""
    failures = []
    routing, autoscale, identity = (
        payload["routing"], payload["autoscale"], payload["identity"],
    )
    if not routing["p2c_beats_rr"]:
        failures.append(
            "power_of_two p99 TTFT "
            f"{routing['routers']['power_of_two']['ttft_p99_ms']:.1f}ms is not "
            "strictly below round_robin "
            f"{routing['routers']['round_robin']['ttft_p99_ms']:.1f}ms"
        )
    if any(doc["unserved"] for doc in routing["routers"].values()):
        failures.append("a routed fleet dropped requests")
    if not identity["identical_records"]:
        failures.append("1-replica fleet records differ from the bare engine")
    if identity["step_cost_cache"]["hits"] < 1:
        failures.append("1-replica fleet did not reuse the serving step-cost model")
    if autoscale["scale_ups"] < 1:
        failures.append("autoscaler never scaled up on the diurnal peak")
    if autoscale["ups_in_peak_half"] != autoscale["scale_ups"]:
        failures.append("a scale-up fired outside the diurnal peak half")
    if autoscale["scale_downs"] < 1:
        failures.append("autoscaler never drained after the peak")
    if autoscale["unserved_scaled"]:
        failures.append("autoscaled fleet dropped requests")
    if not (
        autoscale["mean_active_gpus_scaled"]
        < autoscale["mean_active_gpus_static"]
    ):
        failures.append("autoscaling saved no GPU-hours vs static provisioning")
    return failures


def test_fleet(run_once):
    payload = run_once(run_benchmark, quick=True)
    print()
    print(json.dumps(payload, indent=2))
    assert not _check(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller traces for CI smoke runs (acceptance still enforced)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the JSON record here (the committed baseline is BENCH_fleet.json); "
        "without it nothing is written",
    )
    args = parser.parse_args()
    payload = run_benchmark(quick=args.quick)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    routing = payload["routing"]["routers"]
    print(
        f"routing: rr p99 {routing['round_robin']['ttft_p99_ms']:.1f}ms vs "
        f"p2c {routing['power_of_two']['ttft_p99_ms']:.1f}ms "
        f"(beats_rr={payload['routing']['p2c_beats_rr']})"
    )
    autoscale = payload["autoscale"]
    print(
        f"autoscale: {autoscale['scale_ups']} ups "
        f"({autoscale['ups_in_peak_half']} in peak half), "
        f"{autoscale['scale_downs']} downs, active GPUs "
        f"{autoscale['mean_active_gpus_scaled']:.1f} vs "
        f"{autoscale['mean_active_gpus_static']:.0f} static"
    )
    identity = payload["identity"]
    print(
        f"identity: records identical={identity['identical_records']}, "
        f"step-cost cache hit rate "
        f"{identity['step_cost_cache']['hit_rate']:.2f}"
    )
    failures = _check(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
