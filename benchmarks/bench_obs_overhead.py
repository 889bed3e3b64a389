"""Observability overhead: the zero-perturbation layer must be free.

The `repro.obs` design keeps observation out of every simulation hot
loop: traces are built *post hoc* from artifacts the simulators already
compute, and the global enable flag gates emission only.  This harness
verifies the two consequences that make the layer safe to leave on:

* **cost when off ≈ cost when on** — the simulation wall-clock with
  observability enabled is within 5% of the wall-clock with it disabled
  (the median over :data:`PAIRS` off/on pairs of the on/off ratio, each
  pair interleaving the two arms' runs), because neither arm does any
  observation work during simulation;
* **results are bit-identical** — the exported JSON matches byte-for-
  byte across the two arms (the structural guarantee, re-checked here
  under the benchmark workload);
* the one real cost — building and validating the Chrome traces from
  the finished reports — is paid only on demand, and is reported so
  regressions in the builders are visible.

Run directly (CI smoke step); ``--out`` writes the record (the committed
one is ``BENCH_obs_overhead.json``)::

    python benchmarks/bench_obs_overhead.py [--quick] [--out PATH]

or under pytest-benchmark like the other harnesses.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

from repro import FleetSpec, ServeSpec, TraceSpec, obs, perf
from repro.fleet import FailureEvent
from repro.obs import (
    snapshot_for,
    trace_fleet_report,
    trace_serve_report,
    validate_chrome_trace,
)

OVERHEAD_LIMIT_PCT = 5.0
#: Off/on sample pairs per spec family, and the least wall time of one
#: sample (one arm's runs within a pair).
PAIRS = 10
MIN_SAMPLE_S = 0.2


def _serve_spec(quick: bool) -> ServeSpec:
    return ServeSpec.grid(
        traces=TraceSpec(
            kind="poisson",
            rps=60.0 if quick else 120.0,
            duration_s=4.0 if quick else 8.0,
            seed=0,
        ),
        systems="comet",
    )


def _fleet_spec(quick: bool) -> FleetSpec:
    return FleetSpec.grid(
        replicas=2,
        traces=TraceSpec(
            kind="bursty",
            rps=60.0 if quick else 120.0,
            duration_s=4.0 if quick else 8.0,
            seed=1,
        ),
        failures=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=900.0),),
        systems="comet",
    )


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _pair(make_spec, lead: str) -> tuple[dict[str, float], dict[str, object]]:
    """One off/on pair: single runs of the two arms interleaved in ABBA
    order (``lead`` first) until each arm has run :data:`MIN_SAMPLE_S`,
    with the garbage collector paused.  Returns each arm's seconds per
    run and last results.

    The arms share every stretch of the pair's wall time, so a host
    slowdown that lasts a few runs slows both alike, and with the
    collector paused no collection lands on one arm's run alone.
    """
    order = [lead, "on" if lead == "off" else "off"]
    contexts = {"off": obs.disabled, "on": obs.enabled}
    seconds = {"off": 0.0, "on": 0.0}
    results: dict[str, object] = {}
    runs = 0
    gc.collect()
    gc.disable()
    try:
        while min(seconds.values()) < MIN_SAMPLE_S:
            for label in order:
                with contexts[label]():
                    elapsed, results[label] = _timed(lambda: make_spec().run())
                seconds[label] += elapsed
            order.reverse()
            runs += 1
    finally:
        gc.enable()
    return {label: total / runs for label, total in seconds.items()}, results


def bench_spec(make_spec) -> dict:
    """:data:`PAIRS` off/on pairs of one spec family, alternating which
    arm leads.  The overhead is the median over pairs of the on/off
    ratio."""
    make_spec().run()  # warm the shared timing caches for both arms
    off_s: list[float] = []
    on_s: list[float] = []
    for pair in range(PAIRS):
        per_run, results = _pair(make_spec, lead="on" if pair % 2 else "off")
        off_s.append(per_run["off"])
        on_s.append(per_run["on"])
    ratio = statistics.median(on / off for on, off in zip(on_s, off_s))
    return {
        "pairs": PAIRS,
        "min_sample_s": MIN_SAMPLE_S,
        "median_off_s": statistics.median(off_s),
        "median_on_s": statistics.median(on_s),
        "median_on_off_ratio": ratio,
        "overhead_pct": 100.0 * abs(ratio - 1.0),
        "identical_exports": results["off"].to_json() == results["on"].to_json(),
        "last_results": results["on"],
    }


def bench_trace_build(serve_results, fleet_results) -> dict:
    """The on-demand cost: rendering + validating the Chrome traces."""
    serve_s, serve_tracer = _timed(
        lambda: trace_serve_report(serve_results.reports[0])
    )
    fleet_s, fleet_tracer = _timed(
        lambda: trace_fleet_report(fleet_results.reports[0])
    )
    validate_s, _ = _timed(
        lambda: (
            validate_chrome_trace(serve_tracer.to_chrome_trace()),
            validate_chrome_trace(fleet_tracer.to_chrome_trace()),
        )
    )
    snapshot_s, _ = _timed(lambda: snapshot_for(fleet_results))
    return {
        "serve_trace_s": serve_s,
        "fleet_trace_s": fleet_s,
        "validate_s": validate_s,
        "metrics_snapshot_s": snapshot_s,
        "serve_records": len(serve_tracer.events),
        "fleet_records": len(fleet_tracer.events),
    }


def run_benchmark(quick: bool = False) -> dict:
    perf.clear_caches()
    serve = bench_spec(lambda: _serve_spec(quick))
    fleet = bench_spec(lambda: _fleet_spec(quick))
    serve_results = serve.pop("last_results")
    fleet_results = fleet.pop("last_results")
    return {
        "benchmark": "obs_overhead",
        "mode": "quick" if quick else "full",
        "overhead_limit_pct": OVERHEAD_LIMIT_PCT,
        "serve": serve,
        "fleet": fleet,
        "trace_build": bench_trace_build(serve_results, fleet_results),
    }


def _check(payload: dict) -> list[str]:
    """The acceptance conditions; returns human-readable failures."""
    failures = []
    for name in ("serve", "fleet"):
        arm = payload[name]
        if not arm["identical_exports"]:
            failures.append(f"{name}: exports differ with obs on vs off")
        if arm["overhead_pct"] >= OVERHEAD_LIMIT_PCT:
            failures.append(
                f"{name}: obs on/off wall-clock differs by "
                f"{arm['overhead_pct']:.2f}% (limit {OVERHEAD_LIMIT_PCT}%)"
            )
    return failures


def test_obs_overhead(run_once):
    payload = run_once(run_benchmark, quick=True)
    print()
    print(json.dumps(payload, indent=2))
    # Timing comparisons are environment-sensitive; under pytest only the
    # structural guarantee is a hard assertion.  The CLI entry point (and
    # the CI smoke step) enforces the wall-clock limit too.
    assert payload["serve"]["identical_exports"]
    assert payload["fleet"]["identical_exports"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller traces for CI smoke runs (acceptance still enforced)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the JSON record here (the committed baseline is "
        "BENCH_obs_overhead.json); without it nothing is written",
    )
    args = parser.parse_args()
    payload = run_benchmark(quick=args.quick)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    for name in ("serve", "fleet"):
        arm = payload[name]
        print(
            f"{name}: off {arm['median_off_s'] * 1000:.2f}ms / "
            f"on {arm['median_on_s'] * 1000:.2f}ms per run, median on/off "
            f"ratio {arm['median_on_off_ratio']:.4f} over {arm['pairs']} pairs "
            f"({arm['overhead_pct']:.2f}% apart), "
            f"identical={arm['identical_exports']}"
        )
    build = payload["trace_build"]
    print(
        f"trace build: serve {build['serve_trace_s'] * 1000:.1f}ms "
        f"({build['serve_records']} spans), fleet "
        f"{build['fleet_trace_s'] * 1000:.1f}ms "
        f"({build['fleet_records']} spans), validate "
        f"{build['validate_s'] * 1000:.1f}ms"
    )
    failures = _check(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
