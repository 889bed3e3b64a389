"""Tests for result export, the table formatter, and the CLI."""

import json

import numpy as np
import pytest

from repro.bench import format_table, table3_memory
from repro.bench.export import result_to_json, save_json
from repro.cli import main


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbb"], [(1, 2.5), (10, 3.25)])
        lines = text.splitlines()
        assert lines[0].endswith("bbb")
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_title(self):
        text = format_table(["x"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = format_table(["x"], [(1.23456,)])
        assert "1.235" in text

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])


class TestExport:
    def test_table3_roundtrip(self, tmp_path):
        result = table3_memory()
        path = tmp_path / "table3.json"
        save_json(result, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["buffers_mb"]["Mixtral-8x7B/4096"] == 32.0

    def test_numpy_values_serialised(self):
        import dataclasses

        @dataclasses.dataclass
        class Dummy:
            array: np.ndarray
            scalar: np.int64

        text = result_to_json(Dummy(array=np.arange(3), scalar=np.int64(7)))
        loaded = json.loads(text)
        assert loaded == {"array": [0, 1, 2], "scalar": 7}

    def test_tuple_keys_flattened(self):
        text = result_to_json({("a", 1): 2.0})
        assert json.loads(text) == {"a/1": 2.0}


class TestCli:
    def test_figure_table3(self, capsys):
        assert main(["figure", "table3"]) == 0
        out = capsys.readouterr().out
        assert "NVSHMEM buffer" in out
        assert "32.000" in out

    def test_figure_json_export(self, capsys, tmp_path):
        path = tmp_path / "t3.json"
        assert main(["figure", "table3", "--json", str(path)]) == 0
        assert json.loads(path.read_text())["buffers_mb"]["Qwen2-MoE-2.7B/8192"] == 32.0

    def test_layer_command(self, capsys):
        assert main(["layer", "--tokens", "2048", "--model", "mixtral"]) == 0
        out = capsys.readouterr().out
        assert "Comet" in out
        assert "communication hidden" in out

    def test_layer_systems_selection(self, capsys):
        assert main(
            ["layer", "--tokens", "2048", "--systems", "comet,megatron-cutlass"]
        ) == 0
        out = capsys.readouterr().out
        assert "Comet" in out and "Megatron-Cutlass" in out
        assert "Tutel" not in out

    def test_layer_unknown_system_lists_names(self, capsys):
        assert main(["layer", "--tokens", "2048", "--systems", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "warp-drive" in err and "comet" in err and "tutel" in err

    def test_layer_annotates_skipped_systems(self, capsys):
        assert main(["layer", "--tokens", "2048", "--tp", "2", "--ep", "4"]) == 0
        out = capsys.readouterr().out
        assert "skipped: FasterMoE does not support TP2xEP4" in out

    def test_model_command(self, capsys):
        assert main(
            ["model", "--tokens", "2048", "--systems", "comet,megatron-cutlass"]
        ) == 0
        out = capsys.readouterr().out
        assert "Whole-model schedule graph makespans" in out
        assert "per_layer ms" in out and "cross_layer ms" in out
        assert "shortcut ms" in out and "best speedup" in out

    def test_model_report_prints_critical_path(self, capsys):
        assert main(
            [
                "model", "--tokens", "2048", "--systems", "comet",
                "--overlap-policy", "per_layer", "cross_layer", "--report",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert "L00.attention[compute0]" in out
        assert "overlap saves" in out

    def test_model_training_mode(self, capsys):
        assert main(
            [
                "model", "--tokens", "2048", "--systems", "comet",
                "--training", "--overlap-policy", "per_layer", "cross_layer",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "training step" in out

    def test_model_annotates_skipped_systems(self, capsys):
        assert main(
            ["model", "--tokens", "2048", "--tp", "2", "--ep", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "skipped: FasterMoE does not support TP2xEP4" in out

    def test_sweep_overlap_policy_axis(self, capsys):
        assert main(
            [
                "sweep", "--tokens", "2048", "--tp", "1", "--ep", "8",
                "--systems", "comet",
                "--overlap-policy", "per_layer", "shortcut",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "end-to-end model ms" in out
        assert "per_layer" in out and "shortcut" in out

    def test_serve_overlap_policy_flag(self, capsys):
        assert main(
            [
                "serve", "--rps", "8", "--duration", "2", "--systems", "comet",
                "--overlap-policy", "cross_layer",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "overlap=cross_layer" in out

    def test_sweep_command(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        assert main(
            [
                "sweep", "--models", "mixtral", "--tokens", "2048",
                "--tp", "1", "--ep", "8",
                "--systems", "comet", "megatron-cutlass",
                "--json", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Scenario sweep" in out and "Comet" in out
        doc = json.loads(path.read_text())
        assert {row["system"] for row in doc["rows"]} == {
            "Comet", "Megatron-Cutlass"
        }

    def test_sweep_default_strategies_cover_factorisations(self, capsys):
        assert main(
            ["sweep", "--tokens", "2048", "--systems", "comet"]
        ) == 0
        out = capsys.readouterr().out
        for strategy in ("TP1xEP8", "TP2xEP4", "TP4xEP2", "TP8xEP1"):
            assert strategy in out

    def test_sweep_invalid_grid_rejected(self, capsys):
        assert main(["sweep", "--tp", "3", "--ep", "2", "--tokens", "2048"]) == 1
        assert "no valid scenario" in capsys.readouterr().err

    def test_sweep_nc_command(self, capsys):
        assert main(["sweep-nc", "--tokens", "4096", "--tp", "1", "--ep", "8"]) == 0
        out = capsys.readouterr().out
        assert "<- optimal" in out

    def test_sweep_nc_unknown_strategy(self, capsys):
        # TP=3 never appears in the power-of-two sweep.
        assert main(["sweep-nc", "--tokens", "4096", "--tp", "3", "--ep", "2"]) == 1

    def test_trace_command(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--tokens", "2048", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "not-a-figure"])
