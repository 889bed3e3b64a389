"""Unit behaviour of :func:`repro.oracles.reference_paths`.

The context manager swaps module and class attributes, so these tests
import and walk every ``repro`` module (the oracles excluded), every
class defined in one, and every cache instance, and check what the block
changes: exactly the documented fast paths and cache lookups, no
binding of a swapped function left pointing at the fast path, and every
attribute back as it was once the block exits, however it exits.
"""

from contextlib import nullcontext

import pytest

import repro
from repro import MIXTRAL_8X7B, ParallelStrategy, h800_node, perf
from repro.fleet.router import PowerOfTwo
from repro.fleet.simulator import FleetEngine
from repro.kernels import fused
from repro.oracles import reference_paths
from repro.runtime import workload
from repro.runtime.workload import make_workload
from repro.serve.scheduler import ContinuousBatchingScheduler, ReplicaCore
from repro.systems import comet
from test_oracles import _product_modules

CLUSTER = h800_node()
STRATEGY = ParallelStrategy(1, 8)

#: The fast paths the block swaps for their references.
FAST_PATHS = {
    ("repro.kernels.fused", "layer0_makespan_analytic"): fused.layer0_makespan_analytic,
    ("repro.systems.comet", "_distinct_rows"): comet._distinct_rows,
    ("repro.perf", "_schedule_graph"): perf._schedule_graph,
    ("repro.serve.scheduler", "ContinuousBatchingScheduler._run_fast"):
        ContinuousBatchingScheduler._run_fast,
    ("repro.serve.scheduler", "ReplicaCore.close"): ReplicaCore.close,
    ("repro.fleet.simulator", "FleetEngine._run_cosim"): FleetEngine._run_cosim,
    ("repro.fleet.router", "PowerOfTwo._probes"): PowerOfTwo._probes,
    ("repro.runtime.workload", "_balanced_plan"): workload._balanced_plan,
}
BYPASSED = ("timing", "graph", "graph_batch", "step-cost", "nc-sweep")


#: Every product module, all imported, so that the scans below cover the
#: whole package whatever else the test process loaded.
PRODUCT_MODULES = [repro, *_product_modules()]


def _attributes() -> dict[tuple[str, str], object]:
    """Every attribute of the product modules, of the classes they
    define and of the perf caches, keyed by (owner, name)."""
    seen = {}
    for module in PRODUCT_MODULES:
        name = module.__name__
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    seen[(name, f"{attr}.{member}")] = inner
    for cache in perf._CACHES:
        for attr, value in vars(cache).items():
            seen[(f"cache {cache.name}", attr)] = value
    return seen


def _changed(before, after) -> set[tuple[str, str]]:
    return {
        key for key in before.keys() | after.keys()
        if before.get(key, before) is not after.get(key, before)
    }


@pytest.mark.parametrize("caches_only", (False, True), ids=("all", "caches-only"))
def test_swaps_exactly_the_documented_paths(caches_only):
    before = _attributes()
    with reference_paths(caches_only=caches_only):
        inside = _attributes()
    lookups = {(f"cache {name}", "get_or_compute") for name in BYPASSED}
    expected = lookups if caches_only else lookups | FAST_PATHS.keys()
    assert _changed(before, inside) == expected
    # A product module holding its own binding of a swapped fast path
    # would keep running it inside the block.
    stale = {
        key for key, value in inside.items()
        if any(value is fast for fast in FAST_PATHS.values())
    }
    assert stale == (set(FAST_PATHS) if caches_only else set())


@pytest.mark.parametrize("exit_by", ("return", "raise"))
def test_every_swap_is_undone_on_exit(exit_by):
    before = _attributes()
    with pytest.raises(RuntimeError) if exit_by == "raise" else nullcontext():
        with reference_paths():
            if exit_by == "raise":
                raise RuntimeError("leave the block early")
    assert _changed(before, _attributes()) == set()


def test_workload_and_routing_caches_stay_on():
    perf.clear_caches()
    with reference_paths():
        first = perf.shared_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, 1024)
        second = perf.shared_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, 1024)
        rebuilt = make_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, 1024, seed=0)
    assert second is first
    assert rebuilt.plan is first.plan
    assert (perf.WORKLOAD_CACHE.hits, perf.WORKLOAD_CACHE.misses) == (1, 1)
    assert (perf.ROUTING_CACHE.hits, perf.ROUTING_CACHE.misses) == (1, 1)

