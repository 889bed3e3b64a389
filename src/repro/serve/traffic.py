"""Seeded request-trace generators for the online serving simulator.

A trace is a tuple of :class:`Request` objects — arrival time plus
prompt/output token lengths — fully determined by a :class:`TraceSpec`.
Generators are bit-deterministic: the same spec (including its ``seed``)
produces the same trace on every run, which is what makes serving
results reproducible and cross-system comparisons fair (every system
replays the identical request stream).

Four arrival processes are registered in :data:`TRACE_REGISTRY`:

* ``poisson`` — homogeneous Poisson arrivals at ``rps``.
* ``bursty`` — a two-state Markov-modulated Poisson process (MMPP):
  exponentially-dwelling calm/burst states whose rates average ``rps``.
* ``diurnal`` — sinusoidally-modulated Poisson arrivals (one "day" over
  the trace duration), generated by thinning against the peak rate.
* ``replay`` — explicit arrival offsets carried in the spec, for
  replaying measured production traces.

Prompt and output lengths are lognormal (the standard fit for production
LLM traffic), clipped to ``[1, max]``.

A generator's loop iterations (poisson's arrival chunks, bursty's dwell
periods, diurnal's thinning candidates) are bounded by
:data:`~repro.api.scenario.BUDGET_PER_UNIT` per expected request, plus
one unit; past that the build raises
:class:`~repro.api.scenario.SimulationBudgetExceeded` naming the trace.
A dwell of ``1e-300`` s, finite and positive, cannot move the clock and
would otherwise loop forever.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.api.registry import Registry
from repro.api.scenario import BUDGET_PER_UNIT, SimulationBudgetExceeded
from repro.domains import knob, validate

__all__ = ["Request", "TRACE_REGISTRY", "TraceSpec", "build_trace"]


@dataclass(frozen=True)
class Request:
    """One inference request: when it arrives and how much work it is."""

    rid: int
    arrival_ms: float
    prompt_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        # Plain comparisons, not a domain walk: one Request is built per
        # simulated request.  NaN fails every comparison; a fractional
        # token count would never finish decoding.
        if not 0 <= self.arrival_ms < math.inf:
            raise ValueError(
                f"arrival_ms must be finite and >= 0, got {self.arrival_ms} "
                f"(request {self.rid})"
            )
        if type(self.prompt_tokens) is not int or self.prompt_tokens < 1:
            raise ValueError(
                f"prompt_tokens must be an integer >= 1, got {self.prompt_tokens!r} "
                f"(request {self.rid})"
            )
        if type(self.output_tokens) is not int or self.output_tokens < 1:
            raise ValueError(
                f"output_tokens must be an integer >= 1, got {self.output_tokens!r} "
                f"(request {self.rid})"
            )

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens


def _check_trace(trace: tuple[Request, ...]) -> None:
    """Reject a trace whose arrivals decrease or whose request ids repeat;
    the ``ValueError`` names the first offending request."""
    arrivals = [request.arrival_ms for request in trace]
    rids = [request.rid for request in trace]
    # Increasing ids are distinct: a generated trace needs no set of them.
    if arrivals == sorted(arrivals) and all(map(operator.lt, rids, rids[1:])):
        return
    seen: set[int] = set()
    for request, last in zip(trace, [0.0, *arrivals]):
        if request.arrival_ms < last:
            raise ValueError(
                f"trace arrivals must not decrease: request {request.rid} "
                f"arrives at {request.arrival_ms} ms, after one at {last} ms"
            )
        if request.rid in seen:
            raise ValueError(f"trace request ids must be distinct: {request.rid} repeats")
        seen.add(request.rid)


@dataclass(frozen=True)
class TraceSpec:
    """Everything that determines a request trace (hashable, grid-able).

    ``rps`` is the *mean* arrival rate for every generator kind — the
    bursty and diurnal processes modulate around it, so traces of equal
    ``rps`` carry comparable total load.  ``replay`` ignores ``rps`` /
    ``duration_s`` and uses ``arrivals_ms`` verbatim.
    """

    kind: str = "poisson"
    # Every number is finite: an infinite rate or horizon never ends
    # trace generation.  rps and duration_s must also be positive unless
    # the kind is replay (checked below).
    rps: float = knob(8.0)
    duration_s: float = knob(30.0, help="trace seconds")
    # numpy rejects a negative or fractional seed only mid-run, and a
    # bool seed runs as 0 or 1 under its own label.
    seed: int = knob(0, ge=0, integral=True)
    # A length mean <= 0 has no lognormal fit (numpy warns and every
    # length clips to 1); a fractional length caps or fails only inside
    # build().
    prompt_mean: int = knob(512, gt=0, integral=True, help="mean prompt tokens")
    prompt_sigma: float = knob(0.6, ge=0)
    max_prompt: int = knob(4096, gt=0, integral=True)
    output_mean: int = knob(128, gt=0, integral=True, help="mean output tokens")
    output_sigma: float = knob(0.6, ge=0)
    max_output: int = knob(1024, gt=0, integral=True)
    # bursty (MMPP) knobs: the burst state runs at burst_factor * rps and
    # is occupied burst_fraction of the time; the calm state's rate is
    # derived so the long-run mean stays rps.  A negative burst factor
    # would inflate the calm rate past the mean, and a zero dwell never
    # advances the bursty clock.
    burst_factor: float = knob(4.0, ge=0)
    burst_fraction: float = knob(0.2, gt=0, lt=1)
    burst_dwell_s: float = knob(2.0, gt=0)
    # diurnal knob: rate(t) = rps * (1 + amplitude * sin(2*pi*t/duration)).
    amplitude: float = knob(0.8, ge=0, le=1)
    # replay: explicit arrival offsets (ms); lengths still sampled unless
    # prompt/output pairs are given too.
    arrivals_ms: tuple[float, ...] = field(default=())
    replay_lengths: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in TRACE_REGISTRY:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; valid kinds: "
                f"{', '.join(TRACE_REGISTRY.names())}"
            )
        # Stored as tuples, so the spec hashes into grid points and caches.
        object.__setattr__(self, "arrivals_ms", tuple(self.arrivals_ms))
        object.__setattr__(
            self, "replay_lengths", tuple(tuple(pair) for pair in self.replay_lengths)
        )
        validate(self)
        # The replay entries must be finite too: NaN slips past every
        # ordered comparison.
        entries = [("arrivals_ms", value) for value in self.arrivals_ms]
        entries += [
            ("replay_lengths", value)
            for pair in self.replay_lengths
            for value in pair
        ]
        for name, value in entries:
            if not (isinstance(value, int) or math.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.kind != "replay":
            if self.rps <= 0:
                raise ValueError(f"rps must be positive, got {self.rps}")
            if self.duration_s <= 0:
                raise ValueError(
                    f"duration_s must be positive, got {self.duration_s}"
                )
        if self.burst_factor * self.burst_fraction > 1:
            # Calm-state rate would go negative while preserving the mean.
            raise ValueError(
                f"burst_factor {self.burst_factor} too large for "
                f"burst_fraction {self.burst_fraction}"
            )
        if self.replay_lengths and len(self.replay_lengths) != len(self.arrivals_ms):
            raise ValueError(
                "replay_lengths must be empty or match arrivals_ms in length"
            )

    @property
    def label(self) -> str:
        if self.kind == "replay":
            return f"replay({len(self.arrivals_ms)} reqs)"
        return f"{self.kind}@{self.rps:g}rps/{self.duration_s:g}s/seed{self.seed}"

    @property
    def horizon_ms(self) -> float:
        """End of the arrival window (denominator of goodput)."""
        if self.kind == "replay":
            return max(self.arrivals_ms) if self.arrivals_ms else 0.0
        return self.duration_s * 1000.0

    def build(self) -> tuple[Request, ...]:
        """Generate the trace (deterministic in the spec)."""
        return build_trace(self)


TRACE_REGISTRY = Registry("trace")


def _register(name: str) -> Callable:
    def decorate(fn: Callable) -> Callable:
        TRACE_REGISTRY.register(name, fn)
        return fn

    return decorate


def _budget(spec: TraceSpec) -> Callable[[], None]:
    """One call per loop iteration of ``spec``'s generator; raises
    :class:`SimulationBudgetExceeded` past ``BUDGET_PER_UNIT`` iterations
    per expected request, plus one unit."""
    expected = spec.rps * spec.duration_s
    budget = BUDGET_PER_UNIT * (expected + 1)
    count = itertools.count(1)

    def spend() -> None:
        if next(count) > budget:
            raise SimulationBudgetExceeded(
                f"trace {spec.label!r} ran {budget:g} loop iterations, its "
                f"budget for {expected:g} expected requests"
            )

    return spend


def _sample_lengths(
    rng: np.random.Generator, n: int, mean: int, sigma: float, maximum: int
) -> np.ndarray:
    """Lognormal token lengths with the requested mean, clipped to [1, max]."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    mu = np.log(float(mean)) - 0.5 * sigma * sigma
    raw = rng.lognormal(mean=mu, sigma=sigma, size=n)
    return np.clip(np.rint(raw).astype(np.int64), 1, maximum)


def _requests_from_arrivals(
    spec: TraceSpec, rng: np.random.Generator, arrivals_ms: np.ndarray
) -> tuple[Request, ...]:
    n = len(arrivals_ms)
    if spec.replay_lengths:
        prompts = np.array([p for p, _ in spec.replay_lengths], dtype=np.int64)
        outputs = np.array([o for _, o in spec.replay_lengths], dtype=np.int64)
    else:
        prompts = _sample_lengths(
            rng, n, spec.prompt_mean, spec.prompt_sigma, spec.max_prompt
        )
        outputs = _sample_lengths(
            rng, n, spec.output_mean, spec.output_sigma, spec.max_output
        )
    return tuple(
        Request(
            rid=i,
            arrival_ms=float(arrivals_ms[i]),
            prompt_tokens=int(prompts[i]),
            output_tokens=int(outputs[i]),
        )
        for i in range(n)
    )


@_register("poisson")
def poisson_trace(spec: TraceSpec) -> tuple[Request, ...]:
    """Homogeneous Poisson arrivals: i.i.d. exponential interarrivals."""
    rng = np.random.default_rng(spec.seed)
    horizon = spec.duration_s * 1000.0
    mean_gap_ms = 1000.0 / spec.rps
    # Draw in chunks until past the horizon; deterministic in the seed.
    arrivals: list[float] = []
    spend = _budget(spec)
    t = 0.0
    while t < horizon:
        spend()
        for gap in rng.exponential(mean_gap_ms, size=256):
            t += float(gap)
            if t >= horizon:
                break
            arrivals.append(t)
    return _requests_from_arrivals(spec, rng, np.array(arrivals))


@_register("bursty")
def bursty_trace(spec: TraceSpec) -> tuple[Request, ...]:
    """Two-state MMPP: calm/burst states with exponential dwell times.

    The burst state runs at ``burst_factor * rps``; the calm rate is
    chosen so the long-run mean rate is exactly ``rps``.
    """
    rng = np.random.default_rng(spec.seed)
    horizon = spec.duration_s * 1000.0
    rate_burst = spec.burst_factor * spec.rps
    rate_calm = (
        spec.rps * (1.0 - spec.burst_fraction * spec.burst_factor)
        / (1.0 - spec.burst_fraction)
    )
    # Mean dwell per state, scaled so the occupancy matches burst_fraction.
    dwell_burst = spec.burst_dwell_s * 1000.0
    dwell_calm = dwell_burst * (1.0 - spec.burst_fraction) / spec.burst_fraction
    arrivals: list[float] = []
    spend = _budget(spec)
    t = 0.0
    in_burst = False
    while t < horizon:
        spend()
        dwell = float(
            rng.exponential(dwell_burst if in_burst else dwell_calm)
        )
        end = min(t + dwell, horizon)
        rate = rate_burst if in_burst else rate_calm
        if rate > 0:
            gap_ms = 1000.0 / rate
            cursor = t
            while True:
                cursor += float(rng.exponential(gap_ms))
                if cursor >= end:
                    break
                arrivals.append(cursor)
        t = end
        in_burst = not in_burst
    return _requests_from_arrivals(spec, rng, np.array(arrivals))


@_register("diurnal")
def diurnal_trace(spec: TraceSpec) -> tuple[Request, ...]:
    """Sinusoidal rate over one "day" (= the trace duration), by thinning.

    Candidate arrivals are generated at the peak rate and accepted with
    probability ``rate(t) / peak`` — the classic Lewis-Shedler thinning
    construction for a non-homogeneous Poisson process.
    """
    rng = np.random.default_rng(spec.seed)
    horizon = spec.duration_s * 1000.0
    peak = spec.rps * (1.0 + spec.amplitude)
    gap_ms = 1000.0 / peak
    arrivals: list[float] = []
    spend = _budget(spec)
    t = 0.0
    while True:
        spend()
        t += float(rng.exponential(gap_ms))
        if t >= horizon:
            break
        rate = spec.rps * (
            1.0 + spec.amplitude * np.sin(2.0 * np.pi * t / horizon)
        )
        if rng.uniform() * peak < rate:
            arrivals.append(t)
    return _requests_from_arrivals(spec, rng, np.array(arrivals))


@_register("replay")
def replay_trace(spec: TraceSpec) -> tuple[Request, ...]:
    """Replay explicit arrival offsets (ms), sorted ascending."""
    rng = np.random.default_rng(spec.seed)
    order = np.argsort(np.array(spec.arrivals_ms, dtype=np.float64), kind="stable")
    arrivals = np.array(spec.arrivals_ms, dtype=np.float64)[order]
    if spec.replay_lengths:
        reordered = tuple(spec.replay_lengths[i] for i in order)
        spec = TraceSpec(
            kind="replay",
            seed=spec.seed,
            prompt_mean=spec.prompt_mean,
            prompt_sigma=spec.prompt_sigma,
            max_prompt=spec.max_prompt,
            output_mean=spec.output_mean,
            output_sigma=spec.output_sigma,
            max_output=spec.max_output,
            arrivals_ms=tuple(float(a) for a in arrivals),
            replay_lengths=reordered,
        )
    return _requests_from_arrivals(spec, rng, arrivals)


def build_trace(spec: TraceSpec) -> tuple[Request, ...]:
    """Dispatch to the registered generator for ``spec.kind``."""
    return TRACE_REGISTRY.get(spec.kind)(spec)
