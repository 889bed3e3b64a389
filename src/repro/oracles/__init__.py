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
  loop and the completion-map step kernel).

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


@contextmanager
def reference_paths(caches_only: bool = False) -> Iterator[None]:
    """Run every fast path's reference, with the timing, graph,
    graph-batch, step-cost and sweep caches bypassed.

    Inside the block the layer0 kernel prices with the heapq loop,
    COMET prices every rank, graphs schedule with the heapq list
    scheduler, the serving engine runs as DES processes and every core
    retires by per-token count.  A bypassed cache stores nothing and
    counts every read as a miss, so ``perf.time_layer_calls()`` still
    counts the real simulations.  The workload and routing caches stay
    on: their oracles are ``make_workload`` and the routing synthesis
    themselves.  With ``caches_only`` the fast paths keep running and
    only the caches are bypassed.

    The swaps patch module and class attributes, so they reach every
    thread while the block runs: a test and benchmark tool, never a
    product path.
    """
    from repro import perf
    from repro.graph.scheduler import list_schedule
    from repro.kernels import fused
    from repro.oracles.serve_des import des_run, per_token_close
    from repro.serve.scheduler import ContinuousBatchingScheduler, ReplicaCore
    from repro.systems import comet

    with ExitStack() as stack:
        def swap(target, name, value):
            stack.enter_context(mock.patch.object(target, name, value))

        for cache in (
            perf.TIMING_CACHE, perf.GRAPH_CACHE, perf.GRAPH_BATCH_CACHE,
            perf.STEP_COST_CACHE, perf.NC_SWEEP_CACHE,
        ):
            swap(cache, "get", lambda key, get=cache.get: get(_NEVER_STORED))
            swap(cache, "put", lambda key, value: value)
        if not caches_only:
            swap(fused, "layer0_makespan_analytic", _heapq_scan)
            swap(comet, "_distinct_rows", _every_row)
            swap(perf, "_schedule_graph", lambda graph, durations=None: list_schedule(graph))
            swap(ContinuousBatchingScheduler, "_run_fast", des_run)
            swap(ReplicaCore, "close", per_token_close)
        yield
