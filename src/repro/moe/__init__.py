"""MoE model semantics: configs, gating, routing, experts, reference math.

Everything in this package is *functional* (numpy arrays in, numpy arrays
out) and time-free.  It defines what an MoE layer computes; the packages
:mod:`repro.kernels` and :mod:`repro.systems` define how long each
execution schedule of this computation takes.  The reference forward pass
here is the gold standard every scheduled execution is checked against.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "MIXTRAL_8X7B": "repro.moe.config",
    "MoEConfig": "repro.moe.config",
    "PAPER_MODELS": "repro.moe.config",
    "PHI35_MOE": "repro.moe.config",
    "QWEN2_MOE": "repro.moe.config",
    "ExpertWeights": "repro.moe.experts",
    "silu": "repro.moe.experts",
    "GateOutput": "repro.moe.gate",
    "TopKGate": "repro.moe.gate",
    "load_balancing_loss": "repro.moe.losses",
    "load_metrics": "repro.moe.losses",
    "LoadMetrics": "repro.moe.losses",
    "router_z_loss": "repro.moe.losses",
    "reference_moe_forward": "repro.moe.reference",
    "balanced_fractions": "repro.moe.routing",
    "ExpertStream": "repro.moe.routing",
    "imbalanced_fractions": "repro.moe.routing",
    "routing_from_fractions": "repro.moe.routing",
    "RoutingPlan": "repro.moe.routing",
    "token_owner_ranks": "repro.moe.routing",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
