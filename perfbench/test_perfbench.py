"""Self-tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json

import pytest

from .reference import NOMINAL_S, normalised
from .stats import MustRepeat, digest, non_finite_values, tail
from .tracing import SpanRecorder


@pytest.mark.parametrize("n", [11, 12, 40, 57, 200])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    samples = [float(value) for value in range(n, 0, -1)]  # n..1, unsorted order
    percentile, value = tail(samples)
    assert percentile == pytest.approx(100.0 * (n - 10) / n)
    assert sum(sample > value for sample in samples) == 10
    assert value == n - 10  # the eleventh-largest sample


def test_tail_falls_back_to_the_median_below_eleven_samples():
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail([float(v) for v in range(10)]) == (50.0, 4.5)
    with pytest.raises(ValueError):
        tail([])


def test_self_time_subtracts_nested_child_spans():
    ticks = iter([0, 10, 15, 40, 45, 60, 100, 120])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    recorder.enter("outer")  # 0
    recorder.enter("middle")  # 10
    recorder.enter("inner")  # 15
    recorder.exit()  # 40: inner 25
    recorder.exit()  # 45: middle 35, of which 25 in inner
    recorder.enter("inner")  # 60
    recorder.exit()  # 100: inner 40
    recorder.exit()  # 120: outer 120, children 35 + 40
    assert recorder.total_ns == {"outer": 120, "middle": 35, "inner": 65}
    assert recorder.self_ns == {"outer": 45, "middle": 10, "inner": 65}
    assert recorder.calls == {"outer": 1, "middle": 1, "inner": 2}
    assert sum(recorder.self_ns.values()) == recorder.total_ns["outer"]
    assert [depth for *_, depth in recorder.spans] == [2, 1, 1, 0]


def test_instrumentation_rebinds_names_imported_by_callers():
    from repro import MIXTRAL_8X7B, ParallelStrategy, h800_node
    from repro.runtime import model_runner, workload

    from .tracing import Instrumentation

    original = workload.make_workload
    instrumentation = Instrumentation()
    with instrumentation:
        assert model_runner.make_workload is workload.make_workload is not original
        model_runner.make_workload(
            MIXTRAL_8X7B, h800_node(), ParallelStrategy(tp_size=1, ep_size=8), 2048
        )
    assert model_runner.make_workload is workload.make_workload is original
    assert instrumentation.recorder.calls["workload"] == 1


def test_digest_gate_fails_on_a_perturbed_export():
    export = json.dumps({"rows": [{"ttft_ms": 12.5, "system": "Comet"}]}, sort_keys=True)
    gate = MustRepeat("export sha256")
    assert gate.check(digest(export)) is None
    assert gate.check(digest(export)) is None
    perturbed = export.replace("12.5", "12.6")
    problem = gate.check(digest(perturbed))
    assert problem is not None and "differs" in problem


def test_non_finite_values_are_counted():
    assert non_finite_values('{"a": 1.5, "b": [null, 2]}') == 0
    assert non_finite_values('{"a": NaN, "b": [Infinity, -Infinity]}') == 3


def test_normalised_scales_by_the_geometric_mean_of_the_references():
    assert normalised(0.5, NOMINAL_S, NOMINAL_S) == pytest.approx(0.5)
    assert normalised(0.5, 2 * NOMINAL_S) == pytest.approx(0.25)
    assert normalised(0.5, NOMINAL_S, 4 * NOMINAL_S) == pytest.approx(0.25)
