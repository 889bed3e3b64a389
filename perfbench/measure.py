"""One workload's measurement loop, run in a process of its own.

Untraced runs time each iteration with no wrapper installed.  Traced
runs alternate untraced and traced iterations, so the difference of
their median wall-clocks is the tracing overhead.  Output checks run
after the timed region and never count towards an iteration's time.
The :mod:`~perfbench.reference` kernel runs after set-up and after every
iteration; set-up, iteration and per-layer times are reported in seconds
of the nominal host (:func:`perfbench.reference.normalised`), and the raw
host seconds of set-up and iterations alongside.
"""

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from repro import perf

from . import reference, stats, tracing
from .workloads import WORKLOADS, Workload, paper_speedups

#: Cache counters that must repeat exactly from iteration to iteration.
COUNTERS = ("hits", "misses", "evictions", "time_layer_calls")


def cache_counts() -> dict[str, dict[str, int]]:
    """The :func:`repro.perf.cache_stats` counters, per cache."""
    return {
        name: {key: doc[key] for key in COUNTERS if key in doc}
        for name, doc in perf.cache_stats().items()
    }


def setup(name: str, seed: int, spawned_at: float) -> tuple[Workload, Any, float, float]:
    """Build a workload's inputs; also returns the seconds since the
    process was spawned (``time.monotonic`` is system-wide on Linux) and
    the reference time measured right after."""
    workload = WORKLOADS[name]
    inputs = workload.setup(seed)
    setup_s = time.monotonic() - spawned_at
    return workload, inputs, setup_s, reference.reference_s()


def run(
    name: str, seed: int, seconds: float, trace: bool, spawned_at: float, out_dir: Path
) -> dict[str, Any]:
    """Measure one workload for ``seconds``; returns the raw samples."""
    workload, inputs, raw_setup_s, before = setup(name, seed, spawned_at)
    instrumentation = tracing.Instrumentation() if trace else None
    export_gate = stats.MustRepeat("export sha256")
    counts_gate = stats.MustRepeat("cache counters")
    walls: list[float] = []
    raw_walls: list[float] = []
    traced_walls: list[float] = []
    references = [before]
    items: list[int] = []
    layers: list[dict[str, float]] = []
    problems: list[str] = []
    first_spans: list | None = None
    attempted = failed = 0
    minimum = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    while attempted < minimum or time.perf_counter() < deadline:
        traced = trace and attempted % 2 == 1
        attempted += 1
        perf.clear_caches()
        # Start from a collected heap, as a fresh process would: without
        # it, garbage cycles of earlier iterations pile up and the peak
        # RSS grows with the iteration count.
        gc.collect()
        try:
            if traced:
                recorder = instrumentation.recorder = tracing.SpanRecorder()
                with instrumentation:
                    start = time.perf_counter()
                    recorder.enter(tracing.ITERATION)
                    result, export = workload.run(inputs)
                    recorder.exit()
                    raw_wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result, export = workload.run(inputs)
                raw_wall = time.perf_counter() - start
            after = reference.reference_s()
            wall = reference.normalised(raw_wall, before, after)
            before = after
            references.append(after)
            counts = cache_counts()
            found = workload.check(inputs, result)
            non_finite = stats.non_finite_values(export)
        except Exception:  # a failed iteration is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        if non_finite:
            found.append(f"{non_finite} NaN/Infinity values in the export")
        found += [
            problem
            for problem in (
                export_gate.check(stats.digest(export)),
                counts_gate.check(counts),
            )
            if problem is not None
        ]
        if found:
            failed += 1
            problems += found
            print(f"iteration {attempted} failed: {found}", file=sys.stderr)
            continue
        if traced:
            traced_walls.append(wall)
            scale = wall / raw_wall
            layers.append(
                {
                    metric: value * scale if tracing.LAYER_UNITS[metric] in ("s", "us") else value
                    for metric, value in tracing.layer_metrics(recorder, counts).items()
                }
            )
            if first_spans is None:
                first_spans = recorder.spans
        else:
            walls.append(wall)
            raw_walls.append(raw_wall)
            items.append(workload.items(result))
    doc: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seed_note": workload.seed_note(seed),
        "item_unit": workload.item_unit,
        "chosen_layers": list(workload.layers),
        "setup_s": reference.normalised(raw_setup_s, references[0]),
        "raw_setup_s": raw_setup_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "walls": walls,
        "raw_walls": raw_walls,
        "reference_s": references,
        "items": items,
        "digest": export_gate.first,
        "cache_counts": counts_gate.first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        doc.update(_traced_summary(name, seed, walls, traced_walls, layers, first_spans, out_dir))
    else:
        perf.clear_caches()
        doc["paper_speedups"] = paper_speedups()
    return doc


def _traced_summary(
    name: str,
    seed: int,
    walls: list[float],
    traced_walls: list[float],
    layers: list[dict[str, float]],
    first_spans: list | None,
    out_dir: Path,
) -> dict[str, Any]:
    """Median per-layer metrics, the overhead, and the Chrome trace file."""
    if not (walls and traced_walls):
        return {"layers": {}}
    medians = {
        metric: statistics.median(sample[metric] for sample in layers)
        for metric in layers[0]
    }
    medians["tracing_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(tracing.chrome_trace(first_spans)))
    return {
        "layers": medians,
        "traced_iterations": len(traced_walls),
        "dominant_layer": max(tracing.LAYERS, key=lambda layer: medians[f"{layer}.self_s"]),
        "trace_file": str(path),
    }
