"""Serving API tests: grids, reports, exports, CLI, and the paper-level
claim that COMET sustains higher SLO goodput than every baseline."""

import json

import pytest

from repro import ExperimentSpec, ServeScenario, ServeSpec, TraceSpec
from repro.api.results import rows_to_csv
from repro.cli import main
from repro.hw.presets import h800_node
from repro.moe.config import MIXTRAL_8X7B
from repro.parallel.strategy import ParallelStrategy
from repro.serve.metrics import RequestRecord, ServeReport, Table, TimelinePoint

SMALL_TRACE = TraceSpec(kind="poisson", rps=20, duration_s=3, seed=0)


def small_spec(systems=("comet", "tutel"), **kwargs):
    return ServeSpec.grid(
        models="mixtral", clusters="h800", traces=SMALL_TRACE,
        systems=systems, **kwargs,
    )


class TestServeSpecGrid:
    def test_grid_expands_cartesian_axes(self):
        spec = ServeSpec.grid(
            traces=(SMALL_TRACE, TraceSpec(kind="bursty", rps=10, duration_s=3)),
            policies=("fcfs", "spf"),
        )
        assert len(spec.scenarios) == 4

    def test_default_strategy_is_pure_ep(self):
        spec = small_spec()
        (scenario,) = {s for s in spec.scenarios}
        assert scenario.strategy == ParallelStrategy(tp_size=1, ep_size=8)

    def test_megatron_alias_resolves(self):
        spec = small_spec(systems=("comet", "megatron"))
        assert spec.systems == ("comet", "megatron-cutlass")

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ServeScenario(
                config=MIXTRAL_8X7B,
                cluster=h800_node(),
                strategy=ParallelStrategy(tp_size=1, ep_size=8),
                policy="lifo",
            )

    def test_unsupported_system_recorded_as_skip(self):
        spec = ServeSpec.grid(
            strategies=(2, 4),  # TP=2: FasterMoE cannot run this
            traces=SMALL_TRACE,
            systems=("fastermoe", "comet"),
        )
        results = spec.run()
        assert [r.system for r in results.reports] == ["Comet"]
        assert len(results.skips) == 1
        assert results.skips[0].system == "FasterMoE"

    def test_trace_shared_across_systems(self):
        results = small_spec().run()
        comet = results.get("comet")
        tutel = results.get("tutel")
        assert comet is not None and tutel is not None
        # Identical request streams: same arrivals, prompts, outputs.
        assert [
            (r.rid, r.arrival_ms, r.prompt_tokens, r.output_tokens)
            for r in comet.records
        ] == [
            (r.rid, r.arrival_ms, r.prompt_tokens, r.output_tokens)
            for r in tutel.records
        ]


class TestServeDeterminism:
    def test_bit_identical_reports_across_runs(self):
        first = small_spec().run()
        second = small_spec().run()
        assert first.reports == second.reports
        assert first.to_json() == second.to_json()

    def test_replay_trace_built_from_lists_serves_like_tuples(self):
        # A list-built replay trace used to construct, then fail in run()
        # on an unhashable scenario.
        arrivals, lengths = [0.0, 5.0, 9.0], [[64, 8], [32, 4], [16, 2]]
        listed = TraceSpec(kind="replay", arrivals_ms=arrivals, replay_lengths=lengths)
        tupled = TraceSpec(
            kind="replay", arrivals_ms=tuple(arrivals),
            replay_lengths=tuple(map(tuple, lengths)),
        )
        runs = [
            ServeSpec.grid(traces=trace, systems="comet").run()
            for trace in (listed, tupled)
        ]
        assert len(runs[0].get("comet").records) == 3
        assert runs[0].to_json() == runs[1].to_json()


class TestServeReportMetrics:
    def make_report(self, records, slo_ttft=100.0, slo_tpot=10.0, horizon=1000.0):
        return ServeReport(
            system="Test",
            scenario_label="test",
            records=Table.of(RequestRecord, records),
            timeline=Table.of(TimelinePoint, ()),
            slo_ttft_ms=slo_ttft,
            slo_tpot_ms=slo_tpot,
            horizon_ms=horizon,
            max_batch_tokens=1024,
        )

    def record(self, rid, arrival, first, done, output=5):
        return RequestRecord(
            rid=rid, arrival_ms=arrival, first_token_ms=first,
            completion_ms=done, prompt_tokens=10, output_tokens=output,
        )

    def test_latency_accessors(self):
        rec = self.record(0, arrival=10.0, first=40.0, done=80.0, output=5)
        assert rec.ttft_ms == pytest.approx(30.0)
        assert rec.tpot_ms == pytest.approx(10.0)
        assert rec.e2e_ms == pytest.approx(70.0)

    def test_single_token_output_has_zero_tpot(self):
        rec = self.record(0, arrival=0.0, first=5.0, done=5.0, output=1)
        assert rec.tpot_ms == 0.0

    def test_goodput_counts_only_slo_attaining_requests(self):
        good = self.record(0, arrival=0.0, first=50.0, done=90.0)  # both SLOs ok
        late = self.record(1, arrival=0.0, first=500.0, done=540.0)  # TTFT miss
        slow = self.record(2, arrival=0.0, first=10.0, done=100.0, output=2)
        # slow: tpot = 90 > 10 -> TPOT miss
        report = self.make_report([good, late, slow])
        assert report.good_requests == 1
        assert report.slo_attainment == pytest.approx(1 / 3)
        assert report.goodput_rps == pytest.approx(1.0)  # 1 good / 1 s horizon

    def test_percentiles_on_empty_report_are_nan(self):
        report = self.make_report([])
        assert all(v != v for v in report.ttft_percentiles().values())
        assert report.goodput_rps == 0.0


class TestExports:
    def test_serve_to_rows_and_csv(self, tmp_path):
        results = small_spec().run()
        headers, rows = results.to_rows()
        assert headers[0] == "scenario" and "goodput_rps" in headers
        assert len(rows) == 2
        path = tmp_path / "serve.csv"
        text = results.to_csv(str(path))
        assert path.read_text() == text
        assert text.splitlines()[0].startswith("scenario,system,")
        assert len(text.splitlines()) == 3

    def test_serve_to_json_round_trips(self):
        results = small_spec().run()
        payload = json.loads(results.to_json())
        assert {r["system"] for r in payload["reports"]} == {"Comet", "Tutel"}
        for report in payload["reports"]:
            assert report["goodput_rps"] >= 0

    def test_serve_to_json_is_strict_json_when_reports_are_empty(self):
        # NaN percentiles from empty reports must serialize as null, not
        # the bare NaN token strict JSON parsers reject.
        empty = ServeSpec.grid(
            traces=TraceSpec(kind="replay", arrivals_ms=()),
            systems="comet",
        )
        text = empty.run().to_json()
        assert "NaN" not in text
        payload = json.loads(text)
        assert payload["reports"][0]["ttft_p50_ms"] is None

    def test_resultset_to_csv(self, tmp_path):
        # Satellite: the offline ResultSet exports CSV with the same
        # conventions as its to_rows/to_json.
        results = ExperimentSpec.grid(
            tokens=2048, strategies=(1, 8), systems=("comet", "tutel")
        ).run()
        path = tmp_path / "sweep.csv"
        text = results.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "model,cluster,strategy,M,imbalance,seed,system,ms"
        assert len(lines) == 3
        assert text == path.read_text()

    def test_rows_to_csv_quotes_commas(self):
        text = rows_to_csv(["a", "b"], [["x,y", 1]])
        assert text.splitlines()[1] == '"x,y",1'


class TestServeCli:
    def test_serve_command_smoke(self, tmp_path, capsys):
        json_path = tmp_path / "serve.json"
        csv_path = tmp_path / "serve.csv"
        code = main([
            "serve", "--trace", "poisson", "--rps", "20", "--duration", "3",
            "--systems", "comet,tutel,megatron",
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput" in out and "Comet" in out and "Megatron-Cutlass" in out
        payload = json.loads(json_path.read_text())
        assert len(payload["reports"]) == 3
        assert csv_path.exists()

    def test_serve_rejects_unknown_system(self, capsys):
        assert main(["serve", "--systems", "nope"]) == 2
        assert "valid system" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_tp(self, capsys):
        assert main(["serve", "--tp", "0"]) == 2
        assert "tp must be positive" in capsys.readouterr().err

    def test_layer_report_flag(self, capsys):
        code = main(["layer", "--tokens", "2048", "--report"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Overlap report" in out
        assert "hidden %" in out


class TestGoodputOrdering:
    def test_comet_dominates_baselines_at_saturating_load(self):
        # The acceptance-criteria configuration, scaled to test time: at a
        # load past the baselines' saturation point on the Mixtral 8x7B
        # preset, COMET sustains strictly higher goodput than every
        # baseline at the same SLO.
        spec = ServeSpec.grid(
            models="mixtral",
            clusters="h800",
            traces=TraceSpec(kind="poisson", rps=160, duration_s=10, seed=0),
            slo_ttft_ms=500.0,
            systems=(
                "megatron-cutlass", "megatron-te", "fastermoe", "tutel", "comet"
            ),
        )
        goodput = spec.run().goodput_by_system()
        comet = goodput.pop("Comet")
        assert goodput, "no baselines ran"
        for system, value in goodput.items():
            assert comet > value, (system, value, comet)

    def test_all_registered_builtin_systems_are_servable(self):
        results = ServeSpec.grid(
            traces=TraceSpec(rps=10, duration_s=2, seed=0)
        ).run()
        served = {report.system for report in results.reports}
        assert served == {
            "Megatron-TE", "Megatron-Cutlass", "FasterMoE", "Tutel", "Comet"
        }
        assert not results.skips
