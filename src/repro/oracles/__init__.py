"""Reference oracles: independent re-derivations the fast paths must equal.

Nothing on the simulation path imports this package; the tests and the
slow arm of ``benchmarks/bench_sim_speed.py`` do.  The oracle table in
``tests/test_oracles.py`` pairs every fast path and cache with the
oracle it is checked against.

* :mod:`repro.oracles.layer0_des` — the layer0 fused kernel as explicit
  DES processes (checks :func:`repro.kernels.fused.layer0_makespan_reference`);
* :mod:`repro.oracles.layer0_schedule` — the sorted layer0 row-block
  schedule walked token by token (checks
  :func:`repro.tensor.reschedule.build_layer0_schedule`);
* :mod:`repro.oracles.graph_des` — a DES executor for schedule graphs
  (checks :func:`repro.graph.scheduler.list_schedule`);
* :mod:`repro.oracles.distributed` — the MoE layer run on real payloads
  (checks the per-rank traffic the cost models price);
* :mod:`repro.oracles.routing` — Gumbel-top-k routing for every plan
  (checks :func:`repro.moe.routing.routing_from_fractions`' balanced
  plans, taken from the uniform draws);
* :mod:`repro.oracles.serve_des` — the serving engine as explicit DES
  processes, and per-token retirement (checks the sequential serving
  loop and the completion-map step kernel);
* :mod:`repro.oracles.fleet_des` — the fleet co-simulation as generator
  processes on the DES kernel, and power-of-two probes drawn one scalar
  call at a time (checks the fleet's timer loop and the router's block
  draws).

:func:`reference_paths` runs whole scenarios on the references.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator
from unittest import mock

__all__ = ["reference_paths"]

#: The key a bypassed cache looks up: never stored, so every read misses.
_NEVER_STORED = object()


def _every_row(rows) -> tuple[list[int], list[int]]:
    """:func:`repro.systems.comet._distinct_rows` with every row distinct."""
    ranks = list(range(len(rows)))
    return ranks, ranks


def _heapq_scan(ready_sorted, col_tiles, np_blocks, per_tile) -> float:
    """The analytic layer0 scan's input through the heapq loop."""
    import numpy as np

    from repro.kernels.fused import layer0_makespan_reference

    return layer0_makespan_reference(
        ready_sorted, np.arange(ready_sorted.size), col_tiles, np_blocks, per_tile
    )


def _bypassed(cache):
    """A ``get_or_compute`` for ``cache`` that stores nothing and counts
    every read as a miss."""
    def get_or_compute(key, compute):
        cache.get(_NEVER_STORED)
        return compute()

    return get_or_compute


def _drawn_balanced_plan(num_experts, topk, total_tokens, seed):
    """A balanced plan drawn on its own, not cut from an expert stream."""
    from repro.runtime.workload import _synthesise_routing

    return _synthesise_routing(num_experts, topk, total_tokens, 0.0, seed)


@contextmanager
def reference_paths(caches_only: bool = False) -> Iterator[None]:
    """Run every fast path's reference, with the timing, graph,
    graph-batch, step-cost and sweep caches bypassed.

    Inside the block the layer0 kernel prices with the heapq loop,
    COMET prices every rank, graphs schedule with the heapq list
    scheduler, the serving engine and the fleet co-simulation run as DES
    processes (:mod:`repro.oracles.serve_des`,
    :mod:`repro.oracles.fleet_des`), power-of-two routers draw each
    probe with a scalar call, every core retires by per-token count, and
    each balanced routing plan is drawn on its own instead of cut from
    its seed's expert stream.  A bypassed cache stores nothing and
    counts every read as a miss, so ``perf.time_layer_calls()`` still
    counts the real simulations.  The workload and routing caches stay
    on: their oracles are ``make_workload`` and the direct routing draw
    (``_synthesise_routing``), which every cached plan must equal.  With
    ``caches_only`` the fast paths keep running and only the caches are
    bypassed.

    The swaps patch module and class attributes, so they reach every
    thread while the block runs: a test and benchmark tool, never a
    product path.
    """
    from repro import perf
    from repro.fleet.router import PowerOfTwo
    from repro.fleet.simulator import FleetEngine
    from repro.graph.scheduler import list_schedule
    from repro.kernels import fused
    from repro.oracles.fleet_des import des_cosim, scalar_probes
    from repro.oracles.serve_des import des_run, per_token_close
    from repro.runtime import workload
    from repro.serve.scheduler import ContinuousBatchingScheduler, ReplicaCore
    from repro.systems import comet

    with ExitStack() as stack:
        def swap(target, name, value):
            stack.enter_context(mock.patch.object(target, name, value))

        for cache in (
            perf.TIMING_CACHE, perf.GRAPH_CACHE, perf.GRAPH_BATCH_CACHE,
            perf.STEP_COST_CACHE, perf.NC_SWEEP_CACHE,
        ):
            swap(cache, "get_or_compute", _bypassed(cache))
        if not caches_only:
            swap(workload, "_balanced_plan", _drawn_balanced_plan)
            swap(fused, "layer0_makespan_analytic", _heapq_scan)
            swap(comet, "_distinct_rows", _every_row)
            swap(perf, "_schedule_graph", lambda graph, durations=None: list_schedule(graph))
            swap(ContinuousBatchingScheduler, "_run_fast", des_run)
            swap(ReplicaCore, "close", per_token_close)
            swap(FleetEngine, "_run_cosim", des_cosim)
            swap(PowerOfTwo, "_probes", scalar_probes)
        yield
