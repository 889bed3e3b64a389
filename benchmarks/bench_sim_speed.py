"""Simulation-core speed benchmark: fast paths vs the serial reference.

Measures the two workloads the perf layer was built for and enforces the
equivalence contract while doing so:

* **serve** — a world-16 balanced COMET serving run (2-node H800 pod,
  TP2 x EP8, large continuous batches), timed on the references
  (:func:`repro.oracles.reference_paths` — the per-tile heapq loops,
  one kernel per rank, the event-machinery DES and per-token
  retirement, with the caches bypassed) and again on the fast paths.
  Bucket workloads are pre-built once and shared by both runs (the
  workload cache stays on under the references), so the comparison
  isolates the simulator itself.  A warm repeat on a fresh COMET
  instance then shows the cross-instance sharing of the
  fingerprint-keyed :data:`repro.perf.STEP_COST_CACHE` and
  :data:`repro.perf.TIMING_CACHE` (every system's timing is a pure
  function of its fingerprint and the workload).  Reports must match
  byte for byte.
* **grid** — a figure-sized scenario sweep (Figure 12 shape: one model,
  parallelism x token axes, all five systems) on the same pod, the
  references vs the fast paths; plus a warm repeat of the fast run showing the
  cross-run :data:`repro.perf.TIMING_CACHE` at work.  ResultSets must
  match byte for byte.

Each arm runs :data:`RUNS` times from cold caches (the timing, sweep
and step-cost caches emptied before each), one slow and one fast run
per round, alternating which goes first.  The speedup is the median
over rounds of each round's slow/fast ratio, so host drift that spans a
round cancels; the record also keeps each arm's median and quartiles
and every round's ratio.

Run directly (CI smoke step); ``--out`` writes the record (the committed
one is ``BENCH_sim_speed.json``)::

    python benchmarks/bench_sim_speed.py [--quick] [--out PATH]

or under pytest-benchmark like the other harnesses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from typing import Any, Callable

from repro import (
    MIXTRAL_8X7B,
    ExperimentSpec,
    ParallelStrategy,
    SYSTEM_REGISTRY,
    perf,
)
from repro.hw.multinode import h800_pod
from repro.oracles import reference_paths
from repro.serve import ServeScenario, TraceSpec

WORLD_SIZE = 16
STRATEGY = ParallelStrategy(tp_size=2, ep_size=8)

# Wall-clock floors the perf layer must clear (the PR's acceptance bar).
SERVE_TARGET = 5.0
GRID_TARGET = 2.0
#: Cold runs timed per arm.
RUNS = 5


def _cluster():
    return h800_pod(WORLD_SIZE // 8).effective_cluster()


def _cold_timing() -> None:
    """Empty the timing, division-point sweep and step-cost caches, so
    the next arm pays for its own ``time_layer`` calls, COMET sweeps and
    per-bucket step costs."""
    perf.TIMING_CACHE.clear()
    perf.NC_SWEEP_CACHE.clear()
    perf.STEP_COST_CACHE.clear()


def _on_references(run: Callable[[], Any]) -> Any:
    with reference_paths():
        return run()


def _timed_arms(
    slow: Callable[[], Any], fast: Callable[[], Any]
) -> tuple[dict[str, Any], dict[str, list]]:
    """:data:`RUNS` rounds of one run per arm, each from cold caches,
    alternating which arm goes first.  Returns the record's timing
    fields (each arm's median seconds and quartiles, the ``time_layer``
    calls of its last run, every round's slow/fast ratio and their
    median, the speedup) and every run's result."""
    arms = {"slow": slow, "fast": fast}
    seconds: dict[str, list[float]] = {name: [] for name in arms}
    results: dict[str, list] = {name: [] for name in arms}
    fields: dict[str, Any] = {"runs_per_arm": RUNS}
    for round_ in range(RUNS):
        for name in sorted(arms, reverse=bool(round_ % 2)):
            _cold_timing()
            t0 = time.perf_counter()
            results[name].append(arms[name]())
            seconds[name].append(time.perf_counter() - t0)
            fields[f"time_layer_calls_{name}"] = perf.time_layer_calls()
    for name, samples in seconds.items():
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        fields[f"wall_s_{name}"] = median
        fields[f"wall_s_{name}_quartiles"] = [q1, q3]
    ratios = [slow_s / fast_s for slow_s, fast_s in zip(seconds["slow"], seconds["fast"])]
    fields["speedup_per_round"] = ratios
    fields["speedup"] = statistics.median(ratios)
    return fields, results


def bench_serve(quick: bool = False) -> dict:
    """Time one balanced COMET serving run, slow path vs fast path."""
    scenario = ServeScenario(
        config=MIXTRAL_8X7B,
        cluster=_cluster(),
        strategy=STRATEGY,
        trace=TraceSpec(
            kind="poisson",
            rps=75.0 if quick else 150.0,
            duration_s=4.0 if quick else 8.0,
            seed=0,
            prompt_mean=4096,
            output_mean=16,
        ),
        max_batch_tokens=131072,
        bucket_tokens=4096,
    )
    trace = scenario.build_trace()
    perf.clear_caches()

    def fast_run():
        return scenario.run_system(SYSTEM_REGISTRY.create("comet"), trace=trace)

    # Warm the shared bucket workloads (and their geometry caches): both
    # arms price identical pre-built batch geometry, so the measurement
    # isolates scheduler + kernel simulation.
    warm = fast_run()
    timing, results = _timed_arms(lambda: _on_references(fast_run), fast_run)
    fast = results["fast"][0]

    # Warm repeat on a *fresh* COMET instance with the caches left hot:
    # step-cost models and timings key on the system's fingerprint, not
    # on instance identity, so the repeat prices every bucket from
    # memory.
    _cold_timing()
    fast_run()
    warm_calls = perf.time_layer_calls()
    t0 = time.perf_counter()
    repeat = fast_run()
    repeat_s = time.perf_counter() - t0
    repeat_calls = perf.time_layer_calls() - warm_calls

    identical = all(
        report.records == fast.records
        and report.timeline == fast.timeline
        and json.dumps(report.summary(), sort_keys=True)
        == json.dumps(fast.summary(), sort_keys=True)
        for report in (warm, repeat, *results["slow"], *results["fast"])
    )
    return {
        "scenario": scenario.label,
        "world_size": scenario.cluster.world_size,
        "requests": fast.num_requests,
        "engine_steps": len(fast.timeline),
        **timing,
        "wall_s_fast_repeat": repeat_s,
        "target_speedup": SERVE_TARGET,
        "time_layer_calls_repeat": repeat_calls,
        "identical_output": identical,
        "caches": perf.cache_stats(),
    }


def _grid_spec(quick: bool) -> ExperimentSpec:
    tokens = (8192,) if quick else (8192, 16384, 32768)
    return ExperimentSpec.grid(
        models="mixtral",
        clusters=_cluster(),
        strategies=[(2, 8), (4, 4)],
        tokens=tokens,
    )


def bench_grid(quick: bool = False) -> dict:
    """Time a figure-sized sweep, references vs fast paths, plus a warm
    repeat."""
    spec = _grid_spec(quick)
    perf.clear_caches()
    for _scenario, _workload in spec.workloads():  # shared workload warm-up
        pass

    timing, results = _timed_arms(lambda: _on_references(spec.run), spec.run)
    fast = results["fast"][0]

    # Warm repeat: the cross-run TimingCache prices repeated (system,
    # workload) pairs from memory, across system instances.
    _cold_timing()
    spec.run()
    t0 = time.perf_counter()
    repeat = spec.run()
    repeat_s = time.perf_counter() - t0

    identical = all(
        run.to_json() == fast.to_json()
        for run in (repeat, *results["slow"], *results["fast"])
    )
    return {
        "scenarios": len(tuple(dict.fromkeys(spec.scenarios))),
        "rows": len(fast),
        **timing,
        "wall_s_fast_repeat": repeat_s,
        "target_speedup": GRID_TARGET,
        "identical_output": identical,
        "caches": perf.cache_stats(),
    }


def run_benchmark(quick: bool = False) -> dict:
    return {
        "benchmark": "sim_speed",
        "mode": "quick" if quick else "full",
        "serve": bench_serve(quick),
        "grid": bench_grid(quick),
    }


def _check(payload: dict) -> list[str]:
    """The acceptance conditions; returns human-readable failures."""
    failures = []
    serve, grid = payload["serve"], payload["grid"]
    if not serve["identical_output"]:
        failures.append("serve fast path is not byte-identical to the slow path")
    if not grid["identical_output"]:
        failures.append("grid fast path is not byte-identical to the slow path")
    if payload["mode"] == "full":
        if serve["speedup"] < SERVE_TARGET:
            failures.append(
                f"serve speedup {serve['speedup']:.2f}x < {SERVE_TARGET}x"
            )
        if grid["speedup"] < GRID_TARGET:
            failures.append(f"grid speedup {grid['speedup']:.2f}x < {GRID_TARGET}x")
    return failures


def test_sim_speed(run_once):
    payload = run_once(run_benchmark)
    print()
    print(json.dumps(payload, indent=2))
    assert not _check(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller trace/grid for CI smoke runs (equivalence still enforced)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the JSON record here (the committed baseline is BENCH_sim_speed.json); "
        "without it nothing is written",
    )
    args = parser.parse_args()
    payload = run_benchmark(quick=args.quick)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    serve, grid = payload["serve"], payload["grid"]
    print(
        f"serve: {serve['wall_s_slow']:.3f}s -> {serve['wall_s_fast']:.3f}s "
        f"({serve['speedup']:.2f}x, warm repeat {serve['wall_s_fast_repeat']:.3f}s "
        f"at {serve['time_layer_calls_repeat']} fresh time_layer calls, "
        f"identical={serve['identical_output']})"
    )
    print(
        f"grid:  {grid['wall_s_slow']:.3f}s -> {grid['wall_s_fast']:.3f}s "
        f"({grid['speedup']:.2f}x, repeat {grid['wall_s_fast_repeat']:.3f}s, "
        f"identical={grid['identical_output']})"
    )
    failures = _check(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
