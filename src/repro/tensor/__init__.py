"""Shared-tensor machinery — the paper's core abstraction (§3.1).

A *shared tensor* is the buffer linking a producer operator to a consumer
operator inside one of the MoE layer's two pipelines.  This package
provides:

* :mod:`repro.tensor.shared_tensor` — operator access-pattern descriptors
  and the :class:`SharedTensor` itself;
* :mod:`repro.tensor.dependency` — dependency resolving: find the
  dimension along which the consumer's accesses are independent, hence
  along which the tensor may be decomposed for fine-grained overlap;
* :mod:`repro.tensor.reschedule` — the two rescheduling policies
  (sort-tokens-by-source-rank for layer0, column-major GroupGEMM order
  for layer1) as schedule objects the fused-kernel simulator executes,
  plus numpy executors that run the *actual math* in rescheduled order so
  tests can prove schedule equivalence with the reference forward.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "DependencyError": "repro.tensor.dependency",
    "resolve_decomposition": "repro.tensor.dependency",
    "build_layer0_schedule": "repro.tensor.reschedule",
    "build_layer1_schedule": "repro.tensor.reschedule",
    "layer0_rescheduled_forward": "repro.tensor.reschedule",
    "Layer0Schedule": "repro.tensor.reschedule",
    "layer1_columnwise_forward": "repro.tensor.reschedule",
    "Layer1Schedule": "repro.tensor.reschedule",
    "AccessSpec": "repro.tensor.shared_tensor",
    "all2all_dispatch": "repro.tensor.shared_tensor",
    "group_gemm_consumer": "repro.tensor.shared_tensor",
    "group_gemm_producer": "repro.tensor.shared_tensor",
    "OpKind": "repro.tensor.shared_tensor",
    "SharedTensor": "repro.tensor.shared_tensor",
    "topk_combine_consumer": "repro.tensor.shared_tensor",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
