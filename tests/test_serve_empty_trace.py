"""Zero-arrival traces: no NaN may leak into serve reports or exports.

Regression suite for the empty-window percentile bug: ``percentiles``
returns NaN markers on empty input, and those used to flow through
``ServeReport.summary()`` into CSV cells (as the literal string
``nan``) and into any SLO-goodput arithmetic a consumer ran on the
summary.  The ``count == 0`` guard now exports ``None`` (CSV: empty
cell, JSON: null) while every counting metric stays a well-defined
zero.
"""

import csv
import io
import json
import math

from repro import MIXTRAL_8X7B, Comet, ParallelStrategy, h800_node
from repro.serve import ServeScenario, ServeSpec, TraceSpec
from repro.serve.metrics import (
    PERCENTILES,
    RequestRecord,
    ServeReport,
    ServeResultSet,
    Table,
    TimelinePoint,
    percentiles,
)


def _empty_scenario() -> ServeScenario:
    # A replay trace with no arrivals: the deterministic zero-arrival
    # window (an idle replica between traffic bursts).
    return ServeScenario(
        config=MIXTRAL_8X7B,
        cluster=h800_node(),
        strategy=ParallelStrategy(1, 8),
        trace=TraceSpec(kind="replay", arrivals_ms=()),
    )


class TestPercentiles:
    def test_empty_returns_nan_markers(self):
        out = percentiles([])
        assert set(out) == {f"p{q}" for q in PERCENTILES}
        assert all(math.isnan(v) for v in out.values())

    def test_non_empty_is_finite(self):
        out = percentiles([1.0, 2.0, 3.0])
        assert all(math.isfinite(v) for v in out.values())
        assert out["p50"] == 2.0


class TestZeroArrivalTrace:
    def test_run_produces_empty_report(self):
        report = _empty_scenario().run_system(Comet())
        assert report.num_requests == 0
        assert report.makespan_ms == 0.0
        assert report.slo_attainment == 0.0
        assert report.goodput_rps == 0.0
        assert report.output_tokens_per_s == 0.0

    def test_summary_has_no_nan(self):
        report = _empty_scenario().run_system(Comet())
        summary = report.summary()
        for key, value in summary.items():
            if isinstance(value, float):
                assert not math.isnan(value), key
        # count == 0 guard: percentiles export as None, not NaN.
        assert summary["ttft_p50_ms"] is None
        assert summary["tpot_p99_ms"] is None
        assert summary["e2e_p99_ms"] is None
        assert summary["requests"] == 0

    def test_csv_has_no_nan_cells(self):
        results = ServeSpec(
            scenarios=(_empty_scenario(),), systems=("comet",)
        ).run()
        text = results.to_csv()
        assert "nan" not in text.lower()
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 2  # header + the empty report
        by_header = dict(zip(rows[0], rows[1]))
        assert by_header["ttft_p50_ms"] == ""  # empty cell, not "nan"
        assert by_header["requests"] == "0"
        assert by_header["goodput_rps"] == "0.0"

    def test_json_exports_null(self):
        results = ServeSpec(
            scenarios=(_empty_scenario(),), systems=("comet",)
        ).run()
        payload = json.loads(results.to_json())
        (doc,) = payload["reports"]
        assert doc["ttft_p99_ms"] is None
        assert doc["slo_attainment"] == 0.0

    def test_mixed_set_keeps_populated_rows_intact(self):
        """An empty report next to a real one must not perturb the real
        row's cells."""
        busy = ServeScenario(
            config=MIXTRAL_8X7B,
            cluster=h800_node(),
            strategy=ParallelStrategy(1, 8),
            trace=TraceSpec(kind="poisson", rps=10.0, duration_s=2.0),
        )
        spec = ServeSpec(scenarios=(_empty_scenario(), busy), systems=("comet",))
        results = spec.run()
        headers, table = results.to_rows()
        assert len(table) == 2
        empty_row, busy_row = table
        ttft_idx = headers.index("ttft_p50_ms")
        assert empty_row[ttft_idx] is None
        assert busy_row[ttft_idx] > 0.0
        assert "nan" not in results.to_csv().lower()


class TestNanNeverReachesRows:
    def test_synthetic_nan_is_scrubbed(self):
        """Belt-and-braces: even a NaN smuggled into a populated report's
        metrics is scrubbed at the to_rows boundary."""
        record = RequestRecord(
            rid=0, arrival_ms=0.0, first_token_ms=float("nan"),
            completion_ms=10.0, prompt_tokens=8, output_tokens=1,
        )
        report = ServeReport(
            system="X", scenario_label="synthetic",
            records=Table.of(RequestRecord, (record,)),
            timeline=Table.of(TimelinePoint, ()), slo_ttft_ms=500.0, slo_tpot_ms=75.0,
            horizon_ms=1000.0, max_batch_tokens=1024,
        )
        results = ServeResultSet(reports=(report,))
        _, table = results.to_rows()
        assert all(
            not (isinstance(cell, float) and math.isnan(cell))
            for cell in table[0]
        )
        assert "nan" not in results.to_csv().lower()
