"""Whole-model schedule-graph benchmark: per-layer vs cross-layer makespans.

Times a figure-sized model (Mixtral-8x7B, 32 layers) on a comm-bound
2-node H800 pod under every overlap policy and system, enforcing the
graph IR's contracts while measuring:

* ``per_layer`` graph composition must equal the legacy additive
  ``run_model`` total bit for bit;
* ``cross_layer`` / ``shortcut`` must be strictly faster end to end;
* the analytic list scheduler must agree exactly with the DES reference
  executor on the unrolled graphs it prices.

Run directly (CI smoke step) to emit ``BENCH_model_graph.json``::

    python benchmarks/bench_model_graph.py [--quick] [--out PATH]

or under pytest-benchmark like the other harnesses.
"""

from __future__ import annotations

import argparse
import json
import time

from repro import MIXTRAL_8X7B, ParallelStrategy, SYSTEM_REGISTRY, run_model
from repro.graph import (
    OVERLAP_POLICIES,
    build_forward_graph,
    forward_makespan,
    list_schedule,
)
from repro.hw.multinode import h800_pod
from repro.oracles.graph_des import des_schedule

STRATEGY = ParallelStrategy(tp_size=2, ep_size=8)
SYSTEMS = ("megatron-cutlass", "tutel", "comet")


def run_benchmark(quick: bool = False) -> dict:
    cluster = h800_pod(2).effective_cluster()
    tokens = 4096 if quick else 16384
    payload: dict = {
        "model": MIXTRAL_8X7B.name,
        "cluster": cluster.name,
        "strategy": str(STRATEGY),
        "tokens": tokens,
        "num_layers": MIXTRAL_8X7B.num_layers,
        "systems": {},
        "failures": [],
    }
    for name in SYSTEMS:
        t0 = time.perf_counter()
        timings = {
            policy: run_model(
                SYSTEM_REGISTRY.create(name), MIXTRAL_8X7B, cluster, STRATEGY,
                tokens, overlap_policy=policy,
            )
            for policy in OVERLAP_POLICIES
        }
        wall_s = time.perf_counter() - t0
        per, cross, short = (
            timings["per_layer"], timings["cross_layer"], timings["shortcut"]
        )

        # Contract 1: per_layer graph composition == legacy additive total.
        system = SYSTEM_REGISTRY.create(name)
        phases = system.lower_layer(per.moe)
        composed = forward_makespan(
            phases, per.attention_us, per.num_layers, "per_layer"
        )
        if composed != per.total_us:
            payload["failures"].append(f"{name}: per_layer not bit-identical")
        # Contract 2: cross-layer policies strictly faster.
        if not (cross.makespan_us < per.total_us > short.makespan_us):
            payload["failures"].append(f"{name}: no strict cross-layer gain")
        # Contract 3: analytic == DES on the unrolled cross_layer graph.
        graph = build_forward_graph(
            phases, per.attention_us, per.num_layers, "cross_layer"
        )
        analytic = list_schedule(graph)
        des_finish, des_makespan = des_schedule(graph)
        if analytic.finish_us != des_finish or (
            analytic.makespan_us != des_makespan
        ):
            payload["failures"].append(f"{name}: analytic/DES divergence")

        payload["systems"][name] = {
            "per_layer_ms": per.makespan_ms,
            "cross_layer_ms": cross.makespan_ms,
            "shortcut_ms": short.makespan_ms,
            "cross_layer_speedup": per.total_us / cross.makespan_us,
            "shortcut_speedup": per.total_us / short.makespan_us,
            "graph_nodes": len(graph),
            "wall_s": wall_s,
        }
    return payload


def test_model_graph(run_once):
    payload = run_once(run_benchmark, quick=True)
    print()
    print(json.dumps(payload, indent=2))
    assert not payload["failures"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller token count for CI smoke runs (contracts still enforced)",
    )
    parser.add_argument("--out", default="BENCH_model_graph.json", metavar="PATH")
    args = parser.parse_args()
    payload = run_benchmark(quick=args.quick)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    for name, doc in payload["systems"].items():
        print(
            f"{name:18s} per_layer {doc['per_layer_ms']:8.2f} ms   "
            f"cross_layer {doc['cross_layer_ms']:8.2f} ms "
            f"({doc['cross_layer_speedup']:.3f}x)   "
            f"shortcut {doc['shortcut_ms']:8.2f} ms "
            f"({doc['shortcut_speedup']:.3f}x)"
        )
    for failure in payload["failures"]:
        print(f"FAIL: {failure}")
    print(f"wrote {args.out}")
    return 1 if payload["failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
