"""Runtime layer: workload definition, single-layer executor, e2e runner."""

from repro.runtime.workload import MoELayerWorkload, WorkloadGeometry, make_workload
from repro.runtime.executor import compare_systems
from repro.runtime.model_runner import ModelTiming, run_model
from repro.runtime.profiler import OverlapReport, overlap_report
from repro.runtime.timing_base import StepTimingMixin
from repro.runtime.training import TrainStepTiming, run_training_step
from repro.runtime.visualize import render_breakdown_bars, render_overlap_lanes

__all__ = [
    "render_breakdown_bars",
    "render_overlap_lanes",
    "ModelTiming",
    "MoELayerWorkload",
    "OverlapReport",
    "StepTimingMixin",
    "TrainStepTiming",
    "WorkloadGeometry",
    "compare_systems",
    "make_workload",
    "overlap_report",
    "run_model",
    "run_training_step",
]
