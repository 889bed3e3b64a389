"""Trace-generator tests: determinism, rate calibration, validation."""

import pytest

from repro.serve.traffic import TRACE_REGISTRY, Request, TraceSpec, build_trace


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_same_seed_identical_trace(self, kind):
        spec = TraceSpec(kind=kind, rps=20, duration_s=10, seed=42)
        first = spec.build()
        second = spec.build()
        assert first == second  # bit-identical Request tuples

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_equal_specs_build_equal_traces(self, kind):
        a = TraceSpec(kind=kind, rps=20, duration_s=10, seed=7)
        b = TraceSpec(kind=kind, rps=20, duration_s=10, seed=7)
        assert a == b and hash(a) == hash(b)
        assert a.build() == b.build()

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_different_seeds_differ(self, kind):
        base = TraceSpec(kind=kind, rps=20, duration_s=10, seed=0)
        other = TraceSpec(kind=kind, rps=20, duration_s=10, seed=1)
        assert base.build() != other.build()


class TestRatesAndShapes:
    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_mean_rate_near_rps(self, kind):
        spec = TraceSpec(kind=kind, rps=50, duration_s=60, seed=0)
        trace = spec.build()
        observed = len(trace) / spec.duration_s
        assert 0.75 * spec.rps < observed < 1.25 * spec.rps

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_arrivals_sorted_and_in_window(self, kind):
        trace = TraceSpec(kind=kind, rps=30, duration_s=10, seed=3).build()
        arrivals = [r.arrival_ms for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < 10_000 for a in arrivals)

    def test_rids_are_sequential(self):
        trace = TraceSpec(rps=20, duration_s=5, seed=0).build()
        assert [r.rid for r in trace] == list(range(len(trace)))

    def test_lengths_clipped_to_bounds(self):
        spec = TraceSpec(
            rps=100, duration_s=10, seed=0,
            prompt_mean=512, max_prompt=600, output_mean=128, max_output=150,
        )
        trace = spec.build()
        assert all(1 <= r.prompt_tokens <= 600 for r in trace)
        assert all(1 <= r.output_tokens <= 150 for r in trace)

    def test_prompt_mean_roughly_respected(self):
        trace = TraceSpec(rps=100, duration_s=30, seed=0).build()
        mean = sum(r.prompt_tokens for r in trace) / len(trace)
        assert 0.7 * 512 < mean < 1.3 * 512

    def test_bursty_has_heavier_interarrival_tail_than_poisson(self):
        poisson = TraceSpec(kind="poisson", rps=40, duration_s=60, seed=0).build()
        bursty = TraceSpec(
            kind="bursty", rps=40, duration_s=60, seed=0, burst_factor=4.0
        ).build()

        def max_gap(trace):
            arrivals = [r.arrival_ms for r in trace]
            return max(b - a for a, b in zip(arrivals, arrivals[1:]))

        assert max_gap(bursty) > max_gap(poisson)


class TestReplay:
    def test_replay_uses_exact_arrivals_sorted(self):
        spec = TraceSpec(kind="replay", arrivals_ms=(30.0, 10.0, 20.0))
        trace = spec.build()
        assert [r.arrival_ms for r in trace] == [10.0, 20.0, 30.0]

    def test_replay_lengths_follow_their_arrivals(self):
        spec = TraceSpec(
            kind="replay",
            arrivals_ms=(30.0, 10.0),
            replay_lengths=((300, 3), (100, 1)),
        )
        trace = spec.build()
        assert (trace[0].prompt_tokens, trace[0].output_tokens) == (100, 1)
        assert (trace[1].prompt_tokens, trace[1].output_tokens) == (300, 3)

    def test_replay_horizon_is_last_arrival(self):
        spec = TraceSpec(kind="replay", arrivals_ms=(5.0, 125.0))
        assert spec.horizon_ms == 125.0


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace kind"):
            TraceSpec(kind="lunar")

    def test_nonpositive_rps_rejected(self):
        with pytest.raises(ValueError, match="rps"):
            TraceSpec(rps=0)

    def test_excessive_burst_factor_rejected(self):
        with pytest.raises(ValueError, match="burst_factor"):
            TraceSpec(burst_factor=10.0, burst_fraction=0.5)

    def test_burst_factor_rejected_as_soon_as_calm_rate_goes_negative(self):
        # factor * fraction = 1.1 > 1: calm-state rate would be negative
        # and the trace could no longer preserve the mean rps.
        with pytest.raises(ValueError, match="burst_factor"):
            TraceSpec(burst_factor=5.5, burst_fraction=0.2)
        # factor * fraction = 1 exactly: calm rate 0, still valid (all
        # arrivals land inside bursts; with so few burst cycles per trace
        # the realised count is high-variance, so only sanity-check it).
        trace = TraceSpec(
            kind="bursty", rps=50, duration_s=30, burst_factor=5.0,
            burst_fraction=0.2,
        ).build()
        assert trace
        assert all(r.arrival_ms < 30_000 for r in trace)

    @pytest.mark.parametrize("dwell", (0.0, -1.0))
    def test_nonpositive_burst_dwell_rejected(self, dwell):
        # A zero mean dwell never advanced the bursty clock (build() hung);
        # a negative one failed inside numpy at build time.
        with pytest.raises(ValueError, match="burst_dwell_s must be positive"):
            TraceSpec(kind="bursty", burst_dwell_s=dwell)

    def test_negative_burst_factor_rejected(self):
        # -1 made a 50 rps spec generate 66.4 rps: the calm rate absorbed
        # the negative burst rate.
        with pytest.raises(ValueError, match="burst_factor must be >= 0"):
            TraceSpec(kind="bursty", rps=50, burst_factor=-1.0)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")],
        ids=["nan", "inf", "-inf"],
    )
    @pytest.mark.parametrize(
        "name",
        [
            "rps", "duration_s", "prompt_mean", "prompt_sigma", "max_prompt",
            "output_mean", "output_sigma", "max_output", "burst_factor",
            "burst_fraction", "burst_dwell_s", "amplitude",
        ],
    )
    def test_non_finite_number_rejected(self, name, value):
        # Regression: rps=nan built 256 requests with NaN TTFTs,
        # duration_s=nan an empty trace, and rps/duration_s=inf hung.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TraceSpec(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_replay_arrival_rejected(self, value):
        with pytest.raises(ValueError, match="arrivals_ms must be finite"):
            TraceSpec(kind="replay", arrivals_ms=(1.0, value))

    def test_non_finite_replay_length_rejected(self):
        with pytest.raises(ValueError, match="replay_lengths must be finite"):
            TraceSpec(
                kind="replay", arrivals_ms=(1.0,),
                replay_lengths=((float("nan"), 4),),
            )

    def test_mismatched_replay_lengths_rejected(self):
        with pytest.raises(ValueError, match="replay_lengths"):
            TraceSpec(
                kind="replay", arrivals_ms=(1.0, 2.0), replay_lengths=((10, 1),)
            )

    def test_request_validates_tokens(self):
        with pytest.raises(ValueError, match="output token"):
            Request(rid=0, arrival_ms=0.0, prompt_tokens=4, output_tokens=0)

    def test_registry_lists_all_kinds(self):
        assert set(TRACE_REGISTRY.names()) == {
            "poisson", "bursty", "diurnal", "replay"
        }

    def test_build_trace_dispatches(self):
        spec = TraceSpec(rps=5, duration_s=2, seed=0)
        assert build_trace(spec) == spec.build()
