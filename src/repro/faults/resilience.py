"""Resilience policies: health detection, deadlines/retries, shedding.

One :class:`ResilienceSpec` bundles the three front-door remediation
mechanisms the fleet co-simulation can run, each independently
switchable so sweeps can isolate their effects:

* **Detect → drain → recover** (MegaScale-MoE's straggler-remediation
  loop, arXiv:2505.11432): a windowed health detector ticks every
  ``check_interval_ms``, comparing each replica's recent mean TTFT
  against the fleet median (``slow_factor``) and its queue depth
  against the fleet mean (``queue_factor``).  The worst offender is put
  on *probation* — its waiting queue drains back through the router,
  in-flight work finishes in place, and no new requests route to it for
  ``probation_ms``.  A replica flagged more than ``max_probations``
  times is *evicted* for the rest of the run.  Enabled when
  ``slow_factor`` or ``queue_factor`` is set.
* **Deadlines with bounded seeded retry**: every request gets a
  per-attempt deadline of ``timeout_ms``; on expiry it is cancelled
  wherever it lives (queued, admitted, decoding, or mid-migration) and
  retried up to ``max_retries`` times after an exponential backoff of
  ``backoff_ms * 2**attempt``, jittered deterministically per request
  from ``seed``.  A request out of attempts resolves as *timed out*.
  Enabled when ``timeout_ms`` is set.
* **SLO-aware shedding**: an arriving request is rejected at the front
  door when every routable replica's estimated queue wait already
  exceeds ``shed_factor × slo_ttft_ms`` — graceful degradation instead
  of unbounded queueing under overload.  Enabled when ``shed_factor``
  is set.

The default-constructed spec enables nothing: a scenario carrying
``ResilienceSpec()`` co-simulates but reproduces the exact event stream
(and therefore records) of a scenario with no resilience at all — the
identity tests enforce it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.api.scenario import check_count, check_finite

__all__ = ["ResilienceSpec"]

#: FleetEvent kinds emitted by faults + resilience machinery (on top of
#: the PR-6 "up"/"down"/"fail"/"recover" set).  Front-door events carry
#: ``replica == -1``.
RESILIENCE_EVENT_KINDS = (
    "degrade", "restore", "probation", "readmit", "evict",
    "retry", "timeout", "shed",
)


@dataclass(frozen=True)
class ResilienceSpec:
    """Fleet resilience policy; every mechanism defaults to *off*."""

    # -- deadline + retry -----------------------------------------------------
    timeout_ms: float | None = None
    max_retries: int = 0
    backoff_ms: float = 50.0
    # -- shedding -------------------------------------------------------------
    shed_factor: float | None = None
    # -- health detector ------------------------------------------------------
    slow_factor: float | None = None
    queue_factor: float | None = None
    health_window_ms: float = 1000.0
    check_interval_ms: float = 500.0
    min_samples: int = 3
    probation_ms: float = 1000.0
    max_probations: int = 3
    # -- determinism ----------------------------------------------------------
    seed: int = 0

    def __post_init__(self) -> None:
        # The optional settings must be finite: NaN passes a plain `<= 0`.
        if self.timeout_ms is not None and not 0 < self.timeout_ms < math.inf:
            raise ValueError(
                f"timeout_ms must be finite and positive, got {self.timeout_ms}"
            )
        check_count("max_retries", self.max_retries)
        if self.max_retries > 0 and self.timeout_ms is None:
            raise ValueError("max_retries needs timeout_ms (retries fire on deadline expiry)")
        check_finite("backoff_ms", self.backoff_ms)
        if self.shed_factor is not None and not 0 < self.shed_factor < math.inf:
            raise ValueError(
                f"shed_factor must be finite and positive, got {self.shed_factor}"
            )
        if self.slow_factor is not None and not 1.0 < self.slow_factor < math.inf:
            raise ValueError(
                f"slow_factor must be finite and exceed 1 (a replica at the "
                f"median is not slow), got {self.slow_factor}"
            )
        if self.queue_factor is not None and not 1.0 < self.queue_factor < math.inf:
            raise ValueError(
                f"queue_factor must be finite and exceed 1, got {self.queue_factor}"
            )
        for name in ("health_window_ms", "check_interval_ms", "probation_ms"):
            check_finite(name, getattr(self, name), positive=True)
        check_count("min_samples", self.min_samples, low=1)
        check_count("max_probations", self.max_probations)
        check_count("seed", self.seed, low=None)

    # -- which mechanisms are live -------------------------------------------
    @property
    def wants_deadline(self) -> bool:
        return self.timeout_ms is not None

    @property
    def wants_shed(self) -> bool:
        return self.shed_factor is not None

    @property
    def wants_detector(self) -> bool:
        return self.slow_factor is not None or self.queue_factor is not None

    def __bool__(self) -> bool:
        return self.wants_deadline or self.wants_shed or self.wants_detector

    @property
    def label(self) -> str:
        """Compact scenario-label part; empty for the all-off spec."""
        parts = []
        if self.wants_deadline:
            parts.append(f"to{self.timeout_ms:g}")
            if self.max_retries:
                parts.append(f"r{self.max_retries}")
        if self.wants_shed:
            parts.append(f"shed{self.shed_factor:g}")
        if self.wants_detector:
            parts.append(
                f"det{self.slow_factor:g}" if self.slow_factor is not None
                else f"detq{self.queue_factor:g}"
            )
        return "res[" + ",".join(parts) + "]" if parts else ""

    def retry_backoff_ms(self, rid: int, attempt: int) -> float:
        """Seeded, jittered exponential backoff before retry ``attempt``.

        Deterministic per ``(seed, rid, attempt)`` — independent of
        event interleaving, so a retried request backs off identically
        no matter what the rest of the fleet is doing.
        """
        base = self.backoff_ms * (2 ** attempt)
        jitter = random.Random((self.seed << 20) ^ (rid << 4) ^ attempt).random()
        return base * (0.5 + jitter)  # uniform in [0.5, 1.5) x base
