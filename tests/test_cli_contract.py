"""The CLI contract, pinned: every option's parse behaviour and the
exact bytes of representative runs.

``OPTIONS`` records each subcommand's options: dest, default, nargs,
type, choices and action class.  Help text, metavars and argparse usage
text are free to change.  ``RUNS`` records, for in-process invocations
run in an empty directory, the sha256 (first 16 hex digits) of stdout,
stderr and every file written, plus the exit code.

The runs cover the CI CLI smokes, every subcommand, and the CLI error
paths.  They leave out ``--workers``/``--report`` (the cache table
depends on cache state and thread timing) and ``--metrics-out`` (its
manifest is wall-clock stamped).

Re-record both tables only for an intended CLI change: run this module
as a script (``PYTHONPATH=src python tests/test_cli_contract.py``) and
paste what it prints over the two tables below.
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import _build_parser, main

FLEET = ["--systems", "comet"]

ARGVS = {
    # -- the CI CLI smokes -----------------------------------------------------
    "ci-figure": ["figure", "fig11"],
    "ci-sweep": [
        "sweep", "--models", "mixtral", "--tokens", "2048", "--tp", "1",
        "--ep", "8", "--systems", "comet", "megatron-cutlass",
    ],
    "ci-serve": [
        "serve", "--trace", "poisson", "--rps", "20", "--duration", "5",
        "--systems", "comet,tutel", "--json", "serve-report.json",
    ],
    "ci-sweep-two-tokens": [
        "sweep", "--models", "mixtral", "--tokens", "2048", "4096", "--tp",
        "1", "--ep", "8", "--systems", "comet", "tutel",
    ],
    "ci-model-report": [
        "model", "--tokens", "2048", "--systems", "comet,megatron-cutlass",
        "--report",
    ],
    "ci-model-stragglers": [
        "model", "--tokens", "2048", "--systems", "comet,megatron-cutlass",
        "--stragglers", "1.5",
    ],
    "ci-fleet-routers": [
        "fleet", "--replicas", "4", "--router", "round_robin", "least_queue",
        "power_of_two", "--rps", "40", "--duration", "4", *FLEET,
        "--json", "fleet-report.json",
    ],
    "ci-fleet-two-systems": [
        "fleet", "--replicas", "2", "--router", "round_robin", "least_queue",
        "--rps", "30", "--duration", "2", "--systems", "comet,tutel",
    ],
    "ci-fleet-disaggregated": [
        "fleet", "--replicas", "2p+2d", "--failures", "1@500:1500",
        "--rps", "30", "--duration", "4", *FLEET,
    ],
    "ci-fleet-resilience": [
        "fleet", "--replicas", "3", "--router", "least_queue", "--failures",
        "0@300:1200:x2.0", "1@400:800", "--timeout-ms", "4000", "--retry",
        "1", "--shed", "1.5", "--detect", "1.5", "--kv-migration", "--rps",
        "40", "--duration", "3", *FLEET,
    ],
    "ci-model-trace-out": [
        "model", "--tokens", "2048", "--systems", "comet",
        "--trace-out", "model-trace.json",
    ],
    "ci-fleet-trace-out": [
        "fleet", "--replicas", "2", "--failures", "0@500:1500", "--rps", "30",
        "--duration", "3", *FLEET, "--trace-out", "fleet-trace.json",
    ],
    # -- every subcommand ------------------------------------------------------
    "layer-report": ["layer", "--tokens", "2048", "--report"],
    "model-training-report": [
        "model", "--tokens", "2048", "--systems", "comet", "--training",
        "--report",
    ],
    "sweep-overlap-policy": [
        "sweep", "--tokens", "2048", "--tp", "1", "--ep", "8", "--systems",
        "comet", "--overlap-policy", "per_layer", "cross_layer",
        "--json", "sweep.json",
    ],
    "sweep-straggler-mult": [
        "sweep", "--tokens", "2048", "--tp", "1", "--ep", "8", "--systems",
        "comet", "--straggler-mult", "1.0", "1.5",
    ],
    "sweep-nc": ["sweep-nc", "--tokens", "4096"],
    "serve-csv": [
        "serve", "--rps", "20", "--duration", "2", "--systems", "comet",
        "--overlap-policy", "cross_layer", "--straggler-mult", "1.5",
        "--csv", "serve.csv", "--trace-out", "serve-trace.json",
    ],
    "fleet-autoscale": [
        "fleet", "--replicas", "3", "--autoscale", "1", "--trace", "diurnal",
        "--rps", "20", "--duration", "3", *FLEET, "--csv", "fleet.csv",
    ],
    "trace-kernels": ["trace", "--tokens", "2048", "--out", "kernels.json"],
    # -- error paths -----------------------------------------------------------
    "fleet-unknown-router": ["fleet", "--router", "random"],
    "fleet-unknown-system": ["fleet", "--systems", "nope"],
    "fleet-bad-failure-spec": ["fleet", "--failures", "bogus"],
    "fleet-nan-failure": [
        "fleet", "--failures", "0@nan", "--rps", "20", "--duration", "1", *FLEET,
    ],
    "fleet-bad-replica-shape": ["fleet", "--replicas", "2x+3q"],
    "serve-unknown-system": ["serve", "--systems", "nope"],
    "serve-zero-tp": ["serve", "--tp", "0"],
    "layer-unknown-system": ["layer", "--tokens", "2048", "--systems", "warp-drive"],
    "layer-unreachable-imbalance": [
        "layer", "--tokens", "2048", "--imbalance-std", "0.5",
    ],
    "sweep-skips-unreachable-imbalance": [
        "sweep", "--tokens", "2048", "--ep", "8", "--systems", "comet",
        "tutel", "--imbalance-std", "0", "0.5",
    ],
    "sweep-no-valid-scenario": ["sweep", "--tp", "3", "--ep", "2", "--tokens", "2048"],
    "sweep-nc-no-curve": ["sweep-nc", "--tokens", "4096", "--tp", "3", "--ep", "2"],
    "serve-zero-batch-budget": [
        "serve", "--rps", "20", "--duration", "1", "--systems", "comet",
        "--max-batch-tokens", "0",
    ],
    "fleet-zero-batch-budget": [
        "fleet", "--rps", "20", "--duration", "1", *FLEET,
        "--max-batch-tokens", "0",
    ],
    "layer-zero-tp": ["layer", "--tokens", "2048", "--tp", "0"],
    "model-zero-tp": ["model", "--tokens", "2048", "--tp", "0"],
    "sweep-nc-zero-tp": ["sweep-nc", "--tokens", "2048", "--tp", "0"],
    "trace-zero-tp": ["trace", "--tokens", "2048", "--tp", "0"],
}


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def run_digests(argv: list[str], workdir: Path) -> dict:
    """Run ``main(argv)`` in ``workdir`` and digest everything it produced."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {
        "exit": code,
        "stdout": _digest(out.getvalue()),
        "stderr": _digest(err.getvalue()),
        "files": {p.name: _digest(p.read_bytes()) for p in sorted(workdir.iterdir())},
    }


def parser_options() -> dict:
    """``{command: {option: (dest, default, nargs, type, choices, action)}}``."""
    sub = next(
        action for action in _build_parser()._actions
        if action.dest == "command"
    )
    return {
        command: {
            (action.option_strings[0] if action.option_strings else action.dest): (
                action.dest,
                action.default,
                action.nargs,
                getattr(action.type, "__name__", action.type),
                None if action.choices is None else list(action.choices),
                type(action).__name__,
            )
            for action in parser._actions
        }
        for command, parser in sub.choices.items()
    }


OPTIONS = {
    "figure": {
        "--json": ("json", None, None, None, None, "_StoreAction"),
        "-h": ("help", "==SUPPRESS==", 0, None, None, "_HelpAction"),
        "name": ("name", None, None, None, ["fig10", "fig11", "fig12", "fig13", "fig14-imbalance", "fig14-l20", "fig1a", "fig8", "fig9", "table3"], "_StoreAction"),
    },
    "fleet": {
        "--autoscale": ("autoscale", None, None, "int", None, "_StoreAction"),
        "--autoscale-interval-ms": ("autoscale_interval_ms", 1000.0, None, "float", None, "_StoreAction"),
        "--cluster": ("cluster", "h800", None, None, ["h800", "l20"], "_StoreAction"),
        "--csv": ("csv", None, None, None, None, "_StoreAction"),
        "--detect": ("detect", None, None, "float", None, "_StoreAction"),
        "--duration": ("duration", 30.0, None, "float", None, "_StoreAction"),
        "--ep": ("ep", None, None, "int", None, "_StoreAction"),
        "--executor": ("executor", "thread", None, None, ["thread", "process"], "_StoreAction"),
        "--failures": ("failures", None, "+", None, None, "_StoreAction"),
        "--json": ("json", None, None, None, None, "_StoreAction"),
        "--kv-migration": ("kv_migration", False, 0, None, None, "_StoreTrueAction"),
        "--max-batch-tokens": ("max_batch_tokens", 8192, None, "int", None, "_StoreAction"),
        "--metrics-out": ("metrics_out", None, None, None, None, "_StoreAction"),
        "--model": ("model", "mixtral", None, None, ["mixtral", "phi3.5", "qwen2"], "_StoreAction"),
        "--output-mean": ("output_mean", 128, None, "int", None, "_StoreAction"),
        "--policy": ("policy", "fcfs", None, None, None, "_StoreAction"),
        "--prompt-mean": ("prompt_mean", 512, None, "int", None, "_StoreAction"),
        "--replicas": ("replicas", "1", None, None, None, "_StoreAction"),
        "--report": ("report", False, 0, None, None, "_StoreTrueAction"),
        "--retry": ("retry", 0, None, "int", None, "_StoreAction"),
        "--router": ("router", ["round_robin"], "+", None, None, "_StoreAction"),
        "--router-seed": ("router_seed", 0, None, "int", None, "_StoreAction"),
        "--rps": ("rps", 160.0, None, "float", None, "_StoreAction"),
        "--scale-down-queue": ("scale_down_queue", 1.0, None, "float", None, "_StoreAction"),
        "--scale-up-queue": ("scale_up_queue", 8.0, None, "float", None, "_StoreAction"),
        "--seed": ("seed", 0, None, "int", None, "_StoreAction"),
        "--shed": ("shed", None, None, "float", None, "_StoreAction"),
        "--slo-tpot-ms": ("slo_tpot_ms", 75.0, None, "float", None, "_StoreAction"),
        "--slo-ttft-ms": ("slo_ttft_ms", 500.0, None, "float", None, "_StoreAction"),
        "--systems": ("systems", None, None, None, None, "_StoreAction"),
        "--timeout-ms": ("timeout_ms", None, None, "float", None, "_StoreAction"),
        "--tp": ("tp", 1, None, "int", None, "_StoreAction"),
        "--trace": ("trace", "poisson", None, None, ["poisson", "bursty", "diurnal"], "_StoreAction"),
        "--trace-out": ("trace_out", None, None, None, None, "_StoreAction"),
        "--warmup-ms": ("warmup_ms", 2000.0, None, "float", None, "_StoreAction"),
        "--workers": ("workers", None, None, "int", None, "_StoreAction"),
        "-h": ("help", "==SUPPRESS==", 0, None, None, "_HelpAction"),
    },
    "layer": {
        "--cluster": ("cluster", "h800", None, None, ["h800", "l20"], "_StoreAction"),
        "--ep": ("ep", None, None, "int", None, "_StoreAction"),
        "--imbalance-std": ("imbalance_std", 0.0, None, "float", None, "_StoreAction"),
        "--model": ("model", "mixtral", None, None, ["mixtral", "phi3.5", "qwen2"], "_StoreAction"),
        "--report": ("report", False, 0, None, None, "_StoreTrueAction"),
        "--seed": ("seed", 0, None, "int", None, "_StoreAction"),
        "--systems": ("systems", None, None, None, None, "_StoreAction"),
        "--tokens": ("tokens", 16384, None, "int", None, "_StoreAction"),
        "--tp": ("tp", 1, None, "int", None, "_StoreAction"),
        "-h": ("help", "==SUPPRESS==", 0, None, None, "_HelpAction"),
    },
    "model": {
        "--cluster": ("cluster", "h800", None, None, ["h800", "l20"], "_StoreAction"),
        "--ep": ("ep", None, None, "int", None, "_StoreAction"),
        "--imbalance-std": ("imbalance_std", 0.0, None, "float", None, "_StoreAction"),
        "--metrics-out": ("metrics_out", None, None, None, None, "_StoreAction"),
        "--model": ("model", "mixtral", None, None, ["mixtral", "phi3.5", "qwen2"], "_StoreAction"),
        "--overlap-policy": ("overlap_policy", ["per_layer", "cross_layer", "shortcut"], "+", None, ["per_layer", "cross_layer", "shortcut"], "_StoreAction"),
        "--report": ("report", False, 0, None, None, "_StoreTrueAction"),
        "--seed": ("seed", 0, None, "int", None, "_StoreAction"),
        "--stragglers": ("stragglers", None, None, "float", None, "_StoreAction"),
        "--systems": ("systems", None, None, None, None, "_StoreAction"),
        "--tokens": ("tokens", 16384, None, "int", None, "_StoreAction"),
        "--tp": ("tp", 1, None, "int", None, "_StoreAction"),
        "--trace-out": ("trace_out", None, None, None, None, "_StoreAction"),
        "--training": ("training", False, 0, None, None, "_StoreTrueAction"),
        "-h": ("help", "==SUPPRESS==", 0, None, None, "_HelpAction"),
    },
    "serve": {
        "--cluster": ("cluster", "h800", None, None, ["h800", "l20"], "_StoreAction"),
        "--csv": ("csv", None, None, None, None, "_StoreAction"),
        "--duration": ("duration", 30.0, None, "float", None, "_StoreAction"),
        "--ep": ("ep", None, None, "int", None, "_StoreAction"),
        "--executor": ("executor", "thread", None, None, ["thread", "process"], "_StoreAction"),
        "--json": ("json", None, None, None, None, "_StoreAction"),
        "--max-batch-tokens": ("max_batch_tokens", 8192, None, "int", None, "_StoreAction"),
        "--metrics-out": ("metrics_out", None, None, None, None, "_StoreAction"),
        "--model": ("model", "mixtral", None, None, ["mixtral", "phi3.5", "qwen2"], "_StoreAction"),
        "--output-mean": ("output_mean", 128, None, "int", None, "_StoreAction"),
        "--overlap-policy": ("overlap_policy", "per_layer", None, None, ["per_layer", "cross_layer", "shortcut"], "_StoreAction"),
        "--policy": ("policy", "fcfs", None, None, None, "_StoreAction"),
        "--prompt-mean": ("prompt_mean", 512, None, "int", None, "_StoreAction"),
        "--report": ("report", False, 0, None, None, "_StoreTrueAction"),
        "--rps": ("rps", 160.0, None, "float", None, "_StoreAction"),
        "--seed": ("seed", 0, None, "int", None, "_StoreAction"),
        "--slo-tpot-ms": ("slo_tpot_ms", 75.0, None, "float", None, "_StoreAction"),
        "--slo-ttft-ms": ("slo_ttft_ms", 500.0, None, "float", None, "_StoreAction"),
        "--straggler-mult": ("straggler_mult", None, None, "float", None, "_StoreAction"),
        "--systems": ("systems", None, None, None, None, "_StoreAction"),
        "--tp": ("tp", 1, None, "int", None, "_StoreAction"),
        "--trace": ("trace", "poisson", None, None, ["poisson", "bursty", "diurnal"], "_StoreAction"),
        "--trace-out": ("trace_out", None, None, None, None, "_StoreAction"),
        "--workers": ("workers", None, None, "int", None, "_StoreAction"),
        "-h": ("help", "==SUPPRESS==", 0, None, None, "_HelpAction"),
    },
    "sweep": {
        "--clusters": ("clusters", ["h800"], "+", None, ["h800", "l20"], "_StoreAction"),
        "--ep": ("ep", None, "+", "int", None, "_StoreAction"),
        "--executor": ("executor", "thread", None, None, ["thread", "process"], "_StoreAction"),
        "--imbalance-std": ("imbalance_std", [0.0], "+", "float", None, "_StoreAction"),
        "--json": ("json", None, None, None, None, "_StoreAction"),
        "--models": ("models", ["mixtral"], "+", None, ["mixtral", "phi3.5", "qwen2"], "_StoreAction"),
        "--overlap-policy": ("overlap_policy", None, "+", None, ["per_layer", "cross_layer", "shortcut"], "_StoreAction"),
        "--report": ("report", False, 0, None, None, "_StoreTrueAction"),
        "--seed": ("seed", [0], "+", "int", None, "_StoreAction"),
        "--straggler-mult": ("straggler_mult", None, "+", "float", None, "_StoreAction"),
        "--systems": ("systems", None, "+", None, None, "_StoreAction"),
        "--tokens": ("tokens", [16384], "+", "int", None, "_StoreAction"),
        "--tp": ("tp", None, "+", "int", None, "_StoreAction"),
        "--workers": ("workers", None, None, "int", None, "_StoreAction"),
        "-h": ("help", "==SUPPRESS==", 0, None, None, "_HelpAction"),
    },
    "sweep-nc": {
        "--cluster": ("cluster", "h800", None, None, ["h800", "l20"], "_StoreAction"),
        "--ep": ("ep", None, None, "int", None, "_StoreAction"),
        "--model": ("model", "mixtral", None, None, ["mixtral", "phi3.5", "qwen2"], "_StoreAction"),
        "--tokens": ("tokens", 16384, None, "int", None, "_StoreAction"),
        "--tp": ("tp", 1, None, "int", None, "_StoreAction"),
        "-h": ("help", "==SUPPRESS==", 0, None, None, "_HelpAction"),
    },
    "trace": {
        "--cluster": ("cluster", "h800", None, None, ["h800", "l20"], "_StoreAction"),
        "--ep": ("ep", None, None, "int", None, "_StoreAction"),
        "--model": ("model", "mixtral", None, None, ["mixtral", "phi3.5", "qwen2"], "_StoreAction"),
        "--out": ("out", "comet_timeline.json", None, None, None, "_StoreAction"),
        "--tokens": ("tokens", 16384, None, "int", None, "_StoreAction"),
        "--tp": ("tp", 1, None, "int", None, "_StoreAction"),
        "-h": ("help", "==SUPPRESS==", 0, None, None, "_HelpAction"),
    },
}

RUNS = {
    "ci-figure": {"exit": 0, "stdout": "be1d453791aa453f", "stderr": "e3b0c44298fc1c14", "files": {}},
    "ci-fleet-disaggregated": {"exit": 0, "stdout": "fe154a348efd441f", "stderr": "e3b0c44298fc1c14", "files": {}},
    "ci-fleet-resilience": {"exit": 0, "stdout": "7e8b1a22936a6c3c", "stderr": "e3b0c44298fc1c14", "files": {}},
    "ci-fleet-routers": {"exit": 0, "stdout": "d52f0dc7024269d7", "stderr": "e3b0c44298fc1c14", "files": {"fleet-report.json": "4901eb9c515a0022"}},
    "ci-fleet-trace-out": {"exit": 0, "stdout": "3e5fa5c29ac1e05b", "stderr": "e3b0c44298fc1c14", "files": {"fleet-trace.json": "49ecb9fd8c8f5024"}},
    "ci-fleet-two-systems": {"exit": 0, "stdout": "dc6d964f299a2d99", "stderr": "e3b0c44298fc1c14", "files": {}},
    "ci-model-report": {"exit": 0, "stdout": "a81a024f73669e08", "stderr": "e3b0c44298fc1c14", "files": {}},
    "ci-model-stragglers": {"exit": 0, "stdout": "9660b9cc4b515813", "stderr": "e3b0c44298fc1c14", "files": {}},
    "ci-model-trace-out": {"exit": 0, "stdout": "94fb66f0e51b4258", "stderr": "e3b0c44298fc1c14", "files": {"model-trace.json": "9a11702187d41f36"}},
    "ci-serve": {"exit": 0, "stdout": "875ac083d9a1e721", "stderr": "e3b0c44298fc1c14", "files": {"serve-report.json": "4812bb0137927efa"}},
    "ci-sweep": {"exit": 0, "stdout": "eaed350a4ef8610f", "stderr": "e3b0c44298fc1c14", "files": {}},
    "ci-sweep-two-tokens": {"exit": 0, "stdout": "f87fb6b515ceaca4", "stderr": "e3b0c44298fc1c14", "files": {}},
    "fleet-autoscale": {"exit": 0, "stdout": "691e0edbd3e90e0d", "stderr": "e3b0c44298fc1c14", "files": {"fleet.csv": "1a3a970e55ad3dcd"}},
    "fleet-bad-failure-spec": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "6a305ee3492edd98", "files": {}},
    "fleet-bad-replica-shape": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "12f305571ea3bc86", "files": {}},
    "fleet-nan-failure": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "5add285c6d3420ee", "files": {}},
    "fleet-unknown-router": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "81300be5692c8fe7", "files": {}},
    "fleet-unknown-system": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "9296476cc469dd6c", "files": {}},
    "fleet-zero-batch-budget": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "d8111cafeeb2127e", "files": {}},
    "layer-report": {"exit": 0, "stdout": "aba4789deb49ad5b", "stderr": "e3b0c44298fc1c14", "files": {}},
    "layer-unknown-system": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "9a80c901e042a323", "files": {}},
    "layer-unreachable-imbalance": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "7908b24fa61d5055", "files": {}},
    "layer-zero-tp": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "3565355762428af3", "files": {}},
    "model-training-report": {"exit": 0, "stdout": "43a96a9e3da372ce", "stderr": "e3b0c44298fc1c14", "files": {}},
    "model-zero-tp": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "3565355762428af3", "files": {}},
    "serve-csv": {"exit": 0, "stdout": "5de599e7798c6ff2", "stderr": "e3b0c44298fc1c14", "files": {"serve-trace.json": "bd8118e042203473", "serve.csv": "6a9b21d07ce13002"}},
    "serve-unknown-system": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "9296476cc469dd6c", "files": {}},
    "serve-zero-batch-budget": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "d8111cafeeb2127e", "files": {}},
    "serve-zero-tp": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "3565355762428af3", "files": {}},
    "sweep-nc": {"exit": 0, "stdout": "7730c99f62c6ed72", "stderr": "e3b0c44298fc1c14", "files": {}},
    "sweep-nc-no-curve": {"exit": 1, "stdout": "e3b0c44298fc1c14", "stderr": "de3b73e07ab2baea", "files": {}},
    "sweep-nc-zero-tp": {"exit": 1, "stdout": "e3b0c44298fc1c14", "stderr": "fa9e76bd1ce5d6ae", "files": {}},
    "sweep-no-valid-scenario": {"exit": 1, "stdout": "e3b0c44298fc1c14", "stderr": "31763a00dbd3ad76", "files": {}},
    "sweep-overlap-policy": {"exit": 0, "stdout": "e97b3e417f6533a8", "stderr": "e3b0c44298fc1c14", "files": {"sweep.json": "ec60f39ef66d4946"}},
    "sweep-skips-unreachable-imbalance": {"exit": 0, "stdout": "17546383d0ef241c", "stderr": "fba1b5e9b21a0b42", "files": {}},
    "sweep-straggler-mult": {"exit": 0, "stdout": "7f2273f5d8f1c7a4", "stderr": "e3b0c44298fc1c14", "files": {}},
    "trace-kernels": {"exit": 0, "stdout": "ed01a63cbf2627f8", "stderr": "e3b0c44298fc1c14", "files": {"kernels.json": "eff4853ac907579d"}},
    "trace-zero-tp": {"exit": 2, "stdout": "e3b0c44298fc1c14", "stderr": "3565355762428af3", "files": {}},
}


def test_every_option_keeps_its_parse_behaviour():
    assert parser_options() == OPTIONS


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_run_is_byte_identical(name, tmp_path):
    assert run_digests(ARGVS[name], tmp_path) == RUNS[name]


if __name__ == "__main__":
    import tempfile

    print("OPTIONS = {")
    for command, options in sorted(parser_options().items()):
        print(f"    {command!r}: {{")
        for option, pinned in sorted(options.items()):
            print(f"        {option!r}: {pinned!r},")
        print("    },")
    print("}\n\nRUNS = {")
    for name, argv in sorted(ARGVS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {run_digests(argv, Path(tmp))!r},")
    print("}")
