"""Run one benchmark workload and print its metrics, JSON result last.

    python3 perfbench/run.py --workload graph-sweep --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the ``repro`` package is imported
from its ``src/`` directory.  This process only orchestrates: the
workload runs in a child process of its own (so ``peak_rss_mb`` is the
workload's high-water mark), and ``setup_s`` is the median over
:data:`SETUP_SAMPLES` fresh processes of the time from spawn to the
first timed iteration.  Times are seconds of the nominal host of
:mod:`perfbench.reference`, which the shared host's drift does not move;
the raw host seconds are printed beside them.  ``--trace 1`` reports the per-layer metrics of
a traced run instead of the end-to-end ones and writes a Chrome trace
under ``.perfbench-out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
#: Every child is killed past this many seconds from the start of a run.
BUDGET_S = 170.0
#: Fresh processes whose set-up times give the median ``setup_s``.
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("paper-figures", "graph-sweep", "serve-poisson", "fleet-cosim")


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seeds are non-negative, got {seed}")
    return seed


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "measure", "setup"), default="main", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser


def _child(args: argparse.Namespace, role: str, deadline: float) -> dict | None:
    """Run this script in ``role`` and parse the JSON line it prints."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command + ["--spawned-at", repr(time.monotonic())],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {role} process exceeded the {BUDGET_S:.0f} s budget", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {role} process exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _in_child(args: argparse.Namespace) -> int:
    """The ``measure``/``setup`` roles: import ``repro`` from this checkout."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import measure, reference

    if args.role == "setup":
        _workload, _inputs, raw_setup_s, reference_s = measure.setup(
            args.workload, args.seed, args.spawned_at
        )
        doc = {"setup_s": reference.normalised(raw_setup_s, reference_s), "raw_setup_s": raw_setup_s}
    else:
        doc = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), args.spawned_at, OUT_DIR)
    print(json.dumps(doc))
    return 0


def _end_to_end(doc: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, and their report lines."""
    from perfbench import reference, stats

    walls = doc["walls"]
    n = len(walls)
    p50 = statistics.median(walls)
    percentile, tail_value = stats.tail(walls)
    items = statistics.median(doc["items"])
    layer_s, e2e_s = doc["paper_speedups"]
    raw_setup = statistics.median(probe["raw_setup_s"] for probe in setups)
    raw_p50 = statistics.median(doc["raw_walls"])
    metrics = {
        "setup_s": (
            statistics.median(probe["setup_s"] for probe in setups),
            "s",
            f"median of {len(setups)} process starts (raw host median {raw_setup:.4f} s)",
        ),
        "wall_s_p50": (p50, "s", f"median, n={n} iterations (raw host median {raw_p50:.4f} s)"),
        "wall_s_tail": (tail_value, "s", f"p{percentile:.1f}, n={n} iterations"),
        "items_per_s": (items / p50, "1/s", f"{items} {doc['item_unit']} per iteration / median wall, n={n}"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB", "high-water mark of the workload process, n=1"),
        "paper_gap_layer": (
            stats.paper_gap(layer_s, stats.PAPER_LAYER_SPEEDUP),
            "ratio",
            f"simulated {layer_s:.4f}x vs paper {stats.PAPER_LAYER_SPEEDUP}x (Fig. 10 grid, deterministic), n=1",
        ),
        "paper_gap_e2e": (
            stats.paper_gap(e2e_s, stats.PAPER_E2E_SPEEDUP),
            "ratio",
            f"simulated {e2e_s:.4f}x vs paper {stats.PAPER_E2E_SPEEDUP}x (Fig. 9 grid, deterministic), n=1",
        ),
    }
    lines = [f"  {name:<16} {value:<14.6g} {unit:<6} {note}" for name, (value, unit, note) in metrics.items()]
    lines.append(
        f"  times are nominal-host seconds: reference kernel {reference.NOMINAL_S * 1e3:g} ms nominal, "
        f"median {statistics.median(doc['reference_s']) * 1e3:.2f} ms on this host, n={len(doc['reference_s'])}"
    )
    rate = doc["failed"] / doc["attempted"]
    lines.append(f"  {'error_rate':<16} {rate:<14.6g} {'ratio':<6} {doc['failed']} failed of {doc['attempted']} iterations")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}, lines


def _per_layer(doc: dict) -> tuple[dict, list[str]]:
    """The per-layer metrics of a traced run, and their report lines."""
    from perfbench.tracing import LAYER_UNITS

    layers = doc["layers"]
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    n = doc["traced_iterations"]
    lines = [f"  {name:<26} {m['value']:<14.6g} {m['unit']:<6} median, n={n} traced iterations" for name, m in metrics.items()]
    lines.append(f"  dominant layer by self time: {doc['dominant_layer']} (chosen for: {', '.join(doc['chosen_layers'])})")
    lines.append(f"  chrome trace: {Path(doc['trace_file']).relative_to(ROOT)}")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.role != "main":
        return _in_child(args)
    sys.path.insert(0, str(ROOT))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    doc = _child(args, "measure", deadline)
    if doc is None:
        return 1
    setups = [doc]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        probe = _child(args, "setup", deadline)
        if probe is None:
            return 1
        setups.append(probe)
    complete = doc["walls"] and (not args.trace or doc["layers"])
    if complete:
        metrics, lines = _per_layer(doc) if args.trace else _end_to_end(doc, setups)
    else:
        metrics, lines = {}, ["  no iteration passed its checks"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  {doc['seed_note']}")
    print(*lines, sep="\n")
    print(f"  export sha256 {doc['digest']}")
    print(f"  cache counts per iteration {json.dumps(doc['cache_counts'], sort_keys=True)}")
    for problem in doc["problems"]:
        print(f"  check failed: {problem}")
    correct = bool(complete) and doc["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
