"""Runtime layer: workload definition, single-layer executor, e2e runner."""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "compare_systems": "repro.runtime.executor",
    "ModelTiming": "repro.runtime.model_runner",
    "run_model": "repro.runtime.model_runner",
    "overlap_report": "repro.runtime.profiler",
    "OverlapReport": "repro.runtime.profiler",
    "StepTimingMixin": "repro.runtime.timing_base",
    "run_training_step": "repro.runtime.training",
    "TrainStepTiming": "repro.runtime.training",
    "render_breakdown_bars": "repro.runtime.visualize",
    "render_overlap_lanes": "repro.runtime.visualize",
    "make_workload": "repro.runtime.workload",
    "MoELayerWorkload": "repro.runtime.workload",
    "WorkloadGeometry": "repro.runtime.workload",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
