"""Per-rank straggler schedule-graph benchmark: uniform identity + skew cost.

Times a figure-sized model (Mixtral-8x7B, 32 layers) on an H800 node
under per-rank straggler specs for every system and overlap policy,
enforcing the straggler IR's contracts while measuring:

* the **uniform** spec's per-rank graph makespan must equal the
  single-rank graph makespan bit for bit (the degenerate-case identity
  guarantee);
* a 1.5x slow-rank preset must be strictly slower end to end, with the
  slow rank on the critical path;
* the analytic list scheduler must agree exactly with the DES reference
  executor on every per-rank graph it prices;
* reported wall time covers lowering + scheduling of the per-rank
  graphs (8 stream pairs, cross-rank barrier edges) so regressions in
  the multi-rank path show up as a throughput drop.

Run directly (CI smoke step); ``--out`` writes the JSON record::

    python benchmarks/bench_straggler_graph.py [--quick] [--out PATH]

or under pytest-benchmark like the other harnesses.
"""

from __future__ import annotations

import argparse
import json
import time

from repro import (
    MIXTRAL_8X7B,
    ParallelStrategy,
    SYSTEM_REGISTRY,
    StragglerSpec,
    h800_node,
    run_model,
)
from repro.graph import (
    OVERLAP_POLICIES,
    build_forward_graph,
    list_schedule,
)
from repro.oracles.graph_des import des_schedule

STRATEGY = ParallelStrategy(tp_size=1, ep_size=8)
SYSTEMS = ("megatron-cutlass", "tutel", "comet")
SLOW_MULT = 1.5


def run_benchmark(quick: bool = False) -> dict:
    cluster = h800_node()
    tokens = 4096 if quick else 16384
    uniform = StragglerSpec.uniform(STRATEGY.world_size)
    slow = StragglerSpec.slow_rank(
        STRATEGY.world_size, rank=0, compute_mult=SLOW_MULT
    )
    payload: dict = {
        "model": MIXTRAL_8X7B.name,
        "cluster": cluster.name,
        "strategy": str(STRATEGY),
        "tokens": tokens,
        "num_layers": MIXTRAL_8X7B.num_layers,
        "slow_mult": SLOW_MULT,
        "systems": {},
        "failures": [],
    }
    for name in SYSTEMS:
        system = SYSTEM_REGISTRY.create(name)
        timing = run_model(system, MIXTRAL_8X7B, cluster, STRATEGY, tokens)
        phases = system.lower_layer(timing.moe)
        doc: dict = {"policies": {}}
        t0 = time.perf_counter()
        for policy in OVERLAP_POLICIES:
            single = list_schedule(
                build_forward_graph(
                    phases, timing.attention_us, timing.num_layers, policy
                )
            )
            per_rank_graph = build_forward_graph(
                system.lower_rank_phases(timing.moe, uniform),
                timing.attention_us,
                timing.num_layers,
                policy,
                uniform,
            )
            per_rank = list_schedule(per_rank_graph)
            # Contract 1: uniform degenerate case is bit-identical.
            if per_rank.makespan_us != single.makespan_us:
                payload["failures"].append(
                    f"{name}/{policy}: uniform per-rank makespan != single-rank"
                )
            if per_rank.imbalance_us() != 0.0:
                payload["failures"].append(
                    f"{name}/{policy}: uniform spec shows imbalance"
                )
            slow_graph = build_forward_graph(
                system.lower_rank_phases(timing.moe, slow),
                timing.attention_us,
                timing.num_layers,
                policy,
                slow,
            )
            slowed = list_schedule(slow_graph)
            # Contract 2: the slow rank strictly stretches the makespan
            # and paces the critical path.
            if not slowed.makespan_us > single.makespan_us:
                payload["failures"].append(
                    f"{name}/{policy}: slow rank not strictly slower"
                )
            if not any(n.stream.rank == 0 for n in slowed.critical_path()):
                payload["failures"].append(
                    f"{name}/{policy}: slow rank missing from critical path"
                )
            # Contract 3: analytic == DES on the per-rank graph.
            finish, makespan = des_schedule(slow_graph)
            if finish != slowed.finish_us or makespan != slowed.makespan_us:
                payload["failures"].append(
                    f"{name}/{policy}: analytic/DES divergence"
                )
            doc["policies"][policy] = {
                "single_rank_ms": single.makespan_us / 1000.0,
                "slow_rank_ms": slowed.makespan_us / 1000.0,
                "straggler_slowdown": slowed.makespan_us / single.makespan_us,
                "imbalance_ms": slowed.imbalance_us() / 1000.0,
                "straggler_rank": slowed.straggler_rank(),
                "graph_nodes": len(slow_graph),
                "graph_streams": len(slow_graph.streams()),
            }
        doc["wall_s"] = time.perf_counter() - t0
        payload["systems"][name] = doc
    return payload


def test_straggler_graph(run_once):
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
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the JSON record here; without it nothing is written",
    )
    args = parser.parse_args()
    payload = run_benchmark(quick=args.quick)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    for name, doc in payload["systems"].items():
        for policy, row in doc["policies"].items():
            print(
                f"{name:18s} {policy:12s} single {row['single_rank_ms']:8.2f} ms   "
                f"slow-rank {row['slow_rank_ms']:8.2f} ms "
                f"({row['straggler_slowdown']:.3f}x, imbalance "
                f"{row['imbalance_ms']:.3f} ms)"
            )
    for failure in payload["failures"]:
        print(f"FAIL: {failure}")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 1 if payload["failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
