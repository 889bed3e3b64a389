"""Communication substrate: collective cost models and simulated NVSHMEM.

Two tiers, matching the paper's §4:

* :mod:`repro.comm.primitives` — kernel-level collectives (all-to-all,
  all-gather, reduce-scatter) with alpha-beta costs over the cluster's
  link model.  The baselines (Megatron/NCCL, FasterMoE, Tutel) live here.
* :mod:`repro.comm.nvshmem` — a simulated symmetric heap providing the
  fine-grained, GPU-initiated token get/put that COMET's fused kernels
  issue from communication thread blocks.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "NvshmemBuffer": "repro.comm.nvshmem",
    "SymmetricHeap": "repro.comm.nvshmem",
    "all_gather_cost": "repro.comm.primitives",
    "all_to_all_cost": "repro.comm.primitives",
    "CollectiveCost": "repro.comm.primitives",
    "hierarchical_all_to_all_cost": "repro.comm.primitives",
    "reduce_scatter_cost": "repro.comm.primitives",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
