"""Adaptive workload assignment walkthrough (paper §3.2.2 / Figure 8).

Shows the full offline-profile -> metadata -> runtime-selection loop:

1. sweep the pre-compiled kernel variant library (division points nc)
   for the layer1 fused kernel under several parallelisms and input
   lengths, printing each U-shaped duration curve;
2. store the optima in an :class:`AssignmentProfile`;
3. query the profile at "runtime" for shapes it has and hasn't seen
   (nearest-bucket fallback).

Run:
    python examples/adaptive_assignment.py
"""

from repro import MIXTRAL_8X7B, Comet, ParallelStrategy, h800_node, make_workload
from repro.kernels.assignment import (
    AssignmentProfile,
    ProfileKey,
    default_variants,
    profile_division_points,
    select_division_point,
)
from repro.kernels.fused import simulate_layer1_fused
from repro.tensor import build_layer1_schedule


def sweep_curve(workload, comet: Comet):
    """Offline profiling of the layer1 fused kernel for one workload."""
    config = workload.config
    geometry = workload.geometry
    rank = geometry.bottleneck_rank
    schedule = build_layer1_schedule(
        geometry.rank_workload(rank).expert_rows, cols=config.hidden_size
    )
    comm = comet.layer1_comm_work(workload, rank)
    k = config.ffn_size // workload.strategy.tp_size

    def simulate(nc: int) -> float:
        return simulate_layer1_fused(
            workload.cluster.gpu, workload.cluster.link, schedule, comm,
            k=k, cols=config.hidden_size, nc=nc, dtype_bytes=config.dtype_bytes,
            compute_scale=comet.gemm_scale,
        ).duration_us

    return profile_division_points(
        simulate, default_variants(workload.cluster.gpu.num_sms, step=8)
    )


def render_curve(sweep, width: int = 40) -> None:
    worst = max(sweep.durations_us.values())
    for nc, duration in sweep.curve():
        bar = "#" * max(1, int(width * duration / worst))
        marker = "  <- optimal" if nc == sweep.best_nc else ""
        print(f"  nc={nc:3d}  {duration / 1000:7.3f} ms  {bar}{marker}")


def main() -> None:
    cluster = h800_node()
    comet = Comet()
    profile = AssignmentProfile()

    cases = [
        (ParallelStrategy(8, 1), 4096),
        (ParallelStrategy(8, 1), 16384),
        (ParallelStrategy(4, 2), 16384),
        (ParallelStrategy(1, 8), 16384),
    ]
    for strategy, tokens in cases:
        workload = make_workload(MIXTRAL_8X7B, cluster, strategy, tokens)
        sweep = sweep_curve(workload, comet)
        key = ProfileKey.make(1, strategy.tp_size, strategy.ep_size, tokens)
        profile.record(key, sweep)
        print(f"\n{strategy}, M={tokens}: optimal nc = {sweep.best_nc}")
        render_curve(sweep)

    print("\nruntime selection from the stored metadata:")
    for strategy, tokens in [(ParallelStrategy(8, 1), 16384),
                             (ParallelStrategy(8, 1), 6000),   # unseen M
                             (ParallelStrategy(4, 2), 16384)]:
        key = ProfileKey.make(1, strategy.tp_size, strategy.ep_size, tokens)
        nc = select_division_point(profile, key)
        hit = "profiled" if key in profile else "nearest-bucket fallback"
        print(f"  {strategy}, M={tokens:5d} -> nc={nc:3d}  ({hit})")


if __name__ == "__main__":
    main()
