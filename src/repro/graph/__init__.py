"""Whole-model schedule graph: cross-layer overlap IR and schedulers.

The package lifts the per-layer timing substrate into a model-level
dependency graph so cross-layer computation–communication overlap —
Lancet's whole-graph overlapping and ScMoE's shortcut-connected expert
parallelism — becomes a first-class, sweepable policy axis on top of the
intra-layer overlapping the systems already model:

* :mod:`repro.graph.ir` — typed nodes, resource streams, the DAG;
* :mod:`repro.graph.scheduler` — deterministic analytic list scheduler;
* :mod:`repro.graph.lower` — policy-aware lowering of
  ``MoESystem.lower_layer`` phase lists into model / training graphs,
  single-rank or per-rank;
* :mod:`repro.graph.straggler` — per-rank straggler/skew multiplier
  specs (slow ranks, degraded links, skewed expert placement) that turn
  the lowering per-rank, with cross-rank barrier edges at every
  dispatch/combine/grad-sync collective;
* :mod:`repro.graph.batch` — compiled chain-topology recurrence and
  batched scheduling over same-topology duration vectors, plus the
  rank-symmetry fold in :mod:`repro.graph.scheduler` — both bit-exact
  against the list scheduler and gated by :mod:`repro.perf` flags.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "compile_topology": "repro.graph.batch",
    "CompiledTopology": "repro.graph.batch",
    "fast_schedule": "repro.graph.batch",
    "schedule_batch": "repro.graph.batch",
    "COMM": "repro.graph.ir",
    "COMPUTE": "repro.graph.ir",
    "GraphNode": "repro.graph.ir",
    "LayerPhase": "repro.graph.ir",
    "NodeKind": "repro.graph.ir",
    "ScheduleGraph": "repro.graph.ir",
    "Stream": "repro.graph.ir",
    "build_forward_graph": "repro.graph.lower",
    "build_moe_chain": "repro.graph.lower",
    "build_training_graph": "repro.graph.lower",
    "check_policy": "repro.graph.lower",
    "forward_makespan": "repro.graph.lower",
    "forward_schedule": "repro.graph.lower",
    "OVERLAP_POLICIES": "repro.graph.lower",
    "training_makespan": "repro.graph.lower",
    "training_schedule": "repro.graph.lower",
    "expand_symmetry": "repro.graph.scheduler",
    "GraphSchedule": "repro.graph.scheduler",
    "list_schedule": "repro.graph.scheduler",
    "rank_makespans": "repro.graph.scheduler",
    "reduce_symmetry": "repro.graph.scheduler",
    "SymmetryReduction": "repro.graph.scheduler",
    "StragglerSpec": "repro.graph.straggler",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
