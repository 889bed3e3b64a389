"""Resilience benchmark: does the detect→drain→recover loop pay for
itself, and does front-door policy protect SLO goodput under crashes?

Two scenarios, each doubling as an acceptance check:

* **detect** — a round-robin fleet where one replica silently slows 4x
  mid-run.  The static router keeps feeding the straggler, so the
  health detector's probation/eviction is the only remediation; it must
  strictly improve p99 TTFT over the no-detector twin and must fire at
  least one probation.
* **survive** — a staggered two-crash schedule under bursty load, no
  policy vs front-door deadlines + seeded retries + SLO-aware shedding.
  Shedding rejects work the fleet cannot serve within SLO, so the
  policy run must hold strictly higher SLO goodput and attainment than
  letting every request queue through the outage, while conserving
  every offered request (completed + timed-out + shed).

Run directly (CI smoke step); ``--out`` writes the JSON record::

    python benchmarks/bench_resilience.py [--quick] [--out PATH]

or under pytest-benchmark like the other harnesses.
"""

from __future__ import annotations

import argparse
import json
import time

from repro import (
    DegradeEvent,
    FailureEvent,
    FaultPlan,
    FleetSpec,
    ResilienceSpec,
    TraceSpec,
)


def bench_detect(quick: bool = False) -> dict:
    """Mid-run 4x degradation: detector off vs on, round-robin."""
    duration_s = 4.0 if quick else 8.0
    trace = TraceSpec(kind="poisson", rps=70.0, duration_s=duration_s, seed=11)
    plan = FaultPlan(degrades=(
        DegradeEvent(
            replica=0,
            t0_ms=500.0,
            t1_ms=trace.horizon_ms,  # slow until the end: no self-healing
            compute_mult=4.0,
            comm_mult=4.0,
        ),
    ))
    detector = ResilienceSpec(
        slow_factor=1.5,
        check_interval_ms=250.0,
        health_window_ms=750.0,
        probation_ms=1500.0,
        max_probations=1,
    )
    start = time.perf_counter()
    blind, watched = (
        FleetSpec.grid(
            replicas=3,
            routers="round_robin",
            traces=trace,
            systems="comet",
            faults=plan,
            resilience=(None, detector),
        )
        .run(workers=2)
        .reports
    )
    wall_s = time.perf_counter() - start

    def doc(report) -> dict:
        return {
            "ttft_p99_ms": report.ttft_percentiles()["p99"],
            "ttft_p50_ms": report.ttft_percentiles()["p50"],
            "goodput_rps": report.goodput_rps,
            "probations": report.probations,
            "evictions": report.evictions,
            "unserved": report.unserved,
        }

    blind_doc, watched_doc = doc(blind), doc(watched)
    return {
        "trace": trace.label,
        "fault": "replica 0 slows 4x from 500ms to end of trace",
        "wall_s": wall_s,
        "no_detector": blind_doc,
        "detector": watched_doc,
        "detector_improves_p99": (
            watched_doc["ttft_p99_ms"] < blind_doc["ttft_p99_ms"]
        ),
    }


def bench_survive(quick: bool = False) -> dict:
    """Two staggered crashes: no policy vs deadlines+retry+shed."""
    duration_s = 3.0 if quick else 6.0
    trace = TraceSpec(kind="bursty", rps=120.0, duration_s=duration_s, seed=3)
    plan = FaultPlan(crashes=(
        FailureEvent(replica=0, fail_ms=500.0, recover_ms=2500.0),
        FailureEvent(replica=1, fail_ms=1000.0, recover_ms=2000.0),
    ))
    policy = ResilienceSpec(timeout_ms=8000.0, max_retries=2, shed_factor=0.75)
    start = time.perf_counter()
    bare, defended = (
        FleetSpec.grid(
            replicas=3,
            routers="least_queue",
            traces=trace,
            systems="comet",
            faults=plan,
            resilience=(None, policy),
            slo_ttft_ms=300.0,
        )
        .run(workers=2)
        .reports
    )
    wall_s = time.perf_counter() - start

    def doc(report) -> dict:
        return {
            "ttft_p99_ms": report.ttft_percentiles()["p99"],
            "goodput_rps": report.goodput_rps,
            "slo_attainment": report.slo_attainment,
            "completed": report.num_requests,
            "timed_out": report.timed_out,
            "shed": report.shed,
            "retries": report.retries,
            "offered": report.offered,
            "unserved": report.unserved,
        }

    bare_doc, defended_doc = doc(bare), doc(defended)
    return {
        "trace": trace.label,
        "fault": "replica 0 down 500-2500ms, replica 1 down 1000-2000ms",
        "slo_ttft_ms": 300.0,
        "wall_s": wall_s,
        "no_policy": bare_doc,
        "policy": defended_doc,
        "policy_raises_goodput": (
            defended_doc["goodput_rps"] > bare_doc["goodput_rps"]
        ),
        "policy_conserves_requests": (
            defended_doc["offered"]
            == defended_doc["completed"]
            + defended_doc["timed_out"]
            + defended_doc["shed"]
        ),
    }


def run_benchmark(quick: bool = False) -> dict:
    return {
        "benchmark": "resilience",
        "mode": "quick" if quick else "full",
        "detect": bench_detect(quick),
        "survive": bench_survive(quick),
    }


def _check(payload: dict) -> list[str]:
    """The acceptance conditions; returns human-readable failures."""
    failures = []
    detect, survive = payload["detect"], payload["survive"]
    if not detect["detector_improves_p99"]:
        failures.append(
            "detector p99 TTFT "
            f"{detect['detector']['ttft_p99_ms']:.1f}ms is not strictly below "
            f"no-detector {detect['no_detector']['ttft_p99_ms']:.1f}ms"
        )
    if detect["detector"]["probations"] < 1:
        failures.append("detector never put the straggler on probation")
    if detect["no_detector"]["unserved"] or detect["detector"]["unserved"]:
        failures.append("a degraded fleet dropped requests")
    if not survive["policy_raises_goodput"]:
        failures.append(
            "retry+shed goodput "
            f"{survive['policy']['goodput_rps']:.1f}/s is not strictly above "
            f"no-policy {survive['no_policy']['goodput_rps']:.1f}/s"
        )
    if not (
        survive["policy"]["slo_attainment"]
        > survive["no_policy"]["slo_attainment"]
    ):
        failures.append("policy did not raise SLO attainment under crashes")
    if not survive["policy_conserves_requests"]:
        failures.append("policy run lost requests (offered != resolved)")
    if survive["policy"]["unserved"] or survive["no_policy"]["unserved"]:
        failures.append("a crash-schedule run left requests unresolved")
    return failures


def test_resilience(run_once):
    payload = run_once(run_benchmark, quick=True)
    print()
    print(json.dumps(payload, indent=2))
    assert not _check(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller traces for CI smoke runs (acceptance still enforced)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the JSON record here; without it nothing is written",
    )
    args = parser.parse_args()
    payload = run_benchmark(quick=args.quick)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    detect = payload["detect"]
    print(
        f"detect: p99 TTFT {detect['no_detector']['ttft_p99_ms']:.1f}ms -> "
        f"{detect['detector']['ttft_p99_ms']:.1f}ms with "
        f"{detect['detector']['probations']} probation(s), "
        f"{detect['detector']['evictions']} eviction(s)"
    )
    survive = payload["survive"]
    print(
        f"survive: goodput {survive['no_policy']['goodput_rps']:.1f}/s -> "
        f"{survive['policy']['goodput_rps']:.1f}/s, SLO attainment "
        f"{survive['no_policy']['slo_attainment']:.3f} -> "
        f"{survive['policy']['slo_attainment']:.3f} "
        f"({survive['policy']['shed']} shed, "
        f"{survive['policy']['timed_out']} timed out)"
    )
    failures = _check(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
