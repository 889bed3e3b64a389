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

Run directly (CI smoke step); ``--out`` writes the record (the committed
one is ``BENCH_sim_speed.json``)::

    python benchmarks/bench_sim_speed.py [--quick] [--out PATH]

or under pytest-benchmark like the other harnesses.
"""

from __future__ import annotations

import argparse
import json
import time

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


def _cluster():
    return h800_pod(WORLD_SIZE // 8).effective_cluster()


def _cold_timing() -> None:
    """Empty the timing, division-point sweep and step-cost caches, so
    the next arm pays for its own ``time_layer`` calls, COMET sweeps and
    per-bucket step costs."""
    perf.TIMING_CACHE.clear()
    perf.NC_SWEEP_CACHE.clear()
    perf.STEP_COST_CACHE.clear()


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

    # Warm the shared bucket workloads (and their geometry caches): both
    # timed runs price identical pre-built batch geometry, so the
    # measurement isolates scheduler + kernel simulation.
    warm = scenario.run_system(SYSTEM_REGISTRY.create("comet"), trace=trace)

    _cold_timing()
    t0 = time.perf_counter()
    with reference_paths():
        slow = scenario.run_system(SYSTEM_REGISTRY.create("comet"), trace=trace)
    slow_s = time.perf_counter() - t0
    slow_calls = perf.time_layer_calls()

    _cold_timing()
    t0 = time.perf_counter()
    fast = scenario.run_system(SYSTEM_REGISTRY.create("comet"), trace=trace)
    fast_s = time.perf_counter() - t0
    fast_calls = perf.time_layer_calls()

    # Warm repeat on a *fresh* COMET instance with the caches left hot:
    # step-cost models and timings key on the system's fingerprint, not
    # on instance identity, so the repeat prices every bucket from
    # memory.
    t0 = time.perf_counter()
    repeat = scenario.run_system(SYSTEM_REGISTRY.create("comet"), trace=trace)
    repeat_s = time.perf_counter() - t0
    repeat_calls = perf.time_layer_calls() - fast_calls

    identical = (
        slow.records == fast.records
        and slow.timeline == fast.timeline
        and warm.records == fast.records
        and repeat.records == fast.records
        and json.dumps(slow.summary(), sort_keys=True)
        == json.dumps(fast.summary(), sort_keys=True)
    )
    return {
        "scenario": scenario.label,
        "world_size": scenario.cluster.world_size,
        "requests": fast.num_requests,
        "engine_steps": len(fast.timeline),
        "wall_s_slow": slow_s,
        "wall_s_fast": fast_s,
        "wall_s_fast_repeat": repeat_s,
        "speedup": slow_s / fast_s,
        "target_speedup": SERVE_TARGET,
        "time_layer_calls_slow": slow_calls,
        "time_layer_calls_fast": fast_calls,
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

    _cold_timing()
    t0 = time.perf_counter()
    with reference_paths():
        slow = spec.run()
    slow_s = time.perf_counter() - t0
    slow_calls = perf.time_layer_calls()

    _cold_timing()
    t0 = time.perf_counter()
    fast = spec.run()
    fast_s = time.perf_counter() - t0
    fast_calls = perf.time_layer_calls()

    # Warm repeat: the cross-run TimingCache prices repeated (system,
    # workload) pairs from memory, across system instances.
    t0 = time.perf_counter()
    repeat = spec.run()
    repeat_s = time.perf_counter() - t0

    identical = (
        slow.to_json() == fast.to_json() and fast.to_json() == repeat.to_json()
    )
    return {
        "scenarios": len(tuple(dict.fromkeys(spec.scenarios))),
        "rows": len(fast),
        "wall_s_slow": slow_s,
        "wall_s_fast": fast_s,
        "wall_s_fast_repeat": repeat_s,
        "speedup": slow_s / fast_s,
        "target_speedup": GRID_TARGET,
        "time_layer_calls_slow": slow_calls,
        "time_layer_calls_fast": fast_calls,
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
