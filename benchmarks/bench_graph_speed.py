"""Graph-scheduler speed benchmark: symmetry + batch vs the list scheduler.

Measures the two graph-level fast paths of the raw-speed round-2 work
and enforces the bit-identity contract while doing so:

* **grid** — a world-64 straggler grid (slow-rank compute multipliers x
  slow-rank positions, the Figure 14-style skew axis at pod scale), each
  point lowered to a per-rank forward graph and scheduled.  Slow = the
  heapq list scheduler per graph
  (:func:`repro.graph.scheduler.list_schedule`); fast =
  :func:`repro.perf.cached_graph_schedule`, which folds the 64
  ranks down to their straggler equivalence classes
  (:func:`repro.graph.scheduler.reduce_symmetry`) and replays the
  compiled chain recurrence (:mod:`repro.graph.batch`).  Every start,
  finish, and per-rank makespan must match ``==`` — never approximately.
* **batch** — the same duration-grid expressed as one
  :func:`repro.graph.batch.schedule_batch` call: all graphs share one
  topology fingerprint, so the wave recurrence runs once over a
  ``(batch, nodes)`` duration matrix instead of per graph.

Run directly (CI smoke step); ``--out`` writes the record (the committed
one is ``BENCH_graph_speed.json``)::

    python benchmarks/bench_graph_speed.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import time

from repro import perf
from repro.graph import (
    LayerPhase,
    NodeKind,
    StragglerSpec,
    build_forward_graph,
    list_schedule,
    reduce_symmetry,
    schedule_batch,
)

WORLD_SIZE = 64

# Wall-clock floors the fast paths must clear (the PR's acceptance bar).
GRID_TARGET = 10.0
QUICK_TARGET = 2.0

PHASES = (
    LayerPhase(NodeKind.GATE, 12.0),
    LayerPhase(NodeKind.DISPATCH, 40.0, comm=True),
    LayerPhase(NodeKind.EXPERT, 55.0),
    LayerPhase(NodeKind.ACTIVATION, 6.0),
    LayerPhase(NodeKind.EXPERT, 48.0),
    LayerPhase(NodeKind.COMBINE, 33.0, comm=True),
    LayerPhase(NodeKind.HOST, 3.0),
)


def _straggler_grid(quick: bool) -> list[StragglerSpec]:
    """Slow-rank multiplier x position sweep at world 64."""
    mults = (1.3, 1.9) if quick else (1.1, 1.3, 1.5, 1.7, 1.9, 2.2, 2.6, 3.1)
    ranks = (0, 21) if quick else (0, 9, 21, 40, 63)
    return [
        StragglerSpec.slow_rank(
            WORLD_SIZE, rank=rank, compute_mult=mult, comm_mult=1.1
        )
        for mult in mults
        for rank in ranks
    ]


def _graphs(quick: bool):
    num_layers = 4 if quick else 8
    return [
        build_forward_graph(PHASES, 25.0, num_layers, "per_layer", spec)
        for spec in _straggler_grid(quick)
    ]


def _identical(fast, slow) -> bool:
    return (
        fast.start_us == slow.start_us
        and fast.finish_us == slow.finish_us
        and fast.rank_makespans() == slow.rank_makespans()
    )


def bench_grid(quick: bool = False) -> dict:
    """Schedule the straggler grid, heapq list scheduler vs fast paths."""
    graphs = _graphs(quick)

    t0 = time.perf_counter()
    slow = [list_schedule(graph) for graph in graphs]
    slow_s = time.perf_counter() - t0

    perf.clear_caches()
    t0 = time.perf_counter()
    fast = [perf.cached_graph_schedule(graph) for graph in graphs]
    fast_s = time.perf_counter() - t0

    symmetry = reduce_symmetry(graphs[0])
    return {
        "world_size": WORLD_SIZE,
        "graphs": len(graphs),
        "nodes_per_graph": len(graphs[0]),
        "scheduled_ranks": len(symmetry.reps) if symmetry else WORLD_SIZE,
        "wall_s_slow": slow_s,
        "wall_s_fast": fast_s,
        "speedup": slow_s / fast_s,
        "target_speedup": QUICK_TARGET if quick else GRID_TARGET,
        "identical_output": all(
            _identical(f, s) for f, s in zip(fast, slow)
        ),
        "caches": {
            name: stats
            for name, stats in perf.cache_stats().items()
            if name in ("graph", "graph_batch")
        },
    }


def bench_batch(quick: bool = False) -> dict:
    """One schedule_batch call over the grid vs per-graph list scheduling."""
    graphs = _graphs(quick)

    t0 = time.perf_counter()
    slow = [list_schedule(graph) for graph in graphs]
    slow_s = time.perf_counter() - t0

    perf.clear_caches()
    t0 = time.perf_counter()
    batched = schedule_batch(graphs)
    batch_s = time.perf_counter() - t0

    return {
        "graphs": len(graphs),
        "wall_s_slow": slow_s,
        "wall_s_batched": batch_s,
        "speedup": slow_s / batch_s,
        "identical_output": all(
            _identical(b, s) for b, s in zip(batched, slow)
        ),
    }


def run_benchmark(quick: bool = False) -> dict:
    return {
        "benchmark": "graph_speed",
        "mode": "quick" if quick else "full",
        "grid": bench_grid(quick),
        "batch": bench_batch(quick),
    }


def _check(payload: dict) -> list[str]:
    """The acceptance conditions; returns human-readable failures."""
    failures = []
    grid, batch = payload["grid"], payload["batch"]
    if not grid["identical_output"]:
        failures.append("grid fast path is not bit-identical to list_schedule")
    if not batch["identical_output"]:
        failures.append("batched schedules are not bit-identical to list_schedule")
    target = grid["target_speedup"]
    if grid["speedup"] < target:
        failures.append(f"grid speedup {grid['speedup']:.2f}x < {target}x")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller grid and a lower floor for CI smoke runs "
        "(bit-identity still enforced)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the JSON record here (the committed baseline is "
        "BENCH_graph_speed.json); without it nothing is written",
    )
    args = parser.parse_args()
    payload = run_benchmark(quick=args.quick)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    grid, batch = payload["grid"], payload["batch"]
    print(
        f"grid:  {grid['wall_s_slow']:.3f}s -> {grid['wall_s_fast']:.3f}s "
        f"({grid['speedup']:.2f}x over {grid['graphs']} world-{WORLD_SIZE} "
        f"graphs, {grid['scheduled_ranks']} scheduled ranks, "
        f"identical={grid['identical_output']})"
    )
    print(
        f"batch: {batch['wall_s_slow']:.3f}s -> {batch['wall_s_batched']:.3f}s "
        f"({batch['speedup']:.2f}x, identical={batch['identical_output']})"
    )
    failures = _check(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
