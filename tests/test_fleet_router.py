"""Router policies: registry contents, unit behaviour, and the headline
load-balancing result.

The benchmark-grade claim lives here too: on a *heterogeneous* fleet
(one replica degraded by a compute straggler) power-of-two-choices
strictly beats round-robin on p99 TTFT under bursty load.  On a
homogeneous fleet round-robin's perfect count-balance is near-optimal,
which is why the acceptance scenario degrades one replica.
"""

import pytest

from repro import FleetSpec, StragglerSpec, TraceSpec
from repro.fleet import ReplicaSpec
from repro.fleet.router import (
    ROUTER_REGISTRY,
    LeastQueue,
    PowerOfTwo,
    RoundRobin,
    SessionAffinity,
    make_router,
)
from repro.hw.presets import h800_node
from repro.parallel.strategy import ParallelStrategy


class FakeView:
    def __init__(self, index, queue_depth=0, running=0, backlog_tokens=0):
        self.index = index
        self.queue_depth = queue_depth
        self.running = running
        self.backlog_tokens = backlog_tokens


class FakeRequest:
    def __init__(self, rid):
        self.rid = rid


class TestRegistry:
    def test_contents(self):
        assert set(ROUTER_REGISTRY.names()) == {
            "round_robin",
            "session_affinity",
            "least_queue",
            "power_of_two",
        }

    def test_make_router_unknown_name(self):
        with pytest.raises(Exception):
            make_router("nope", 4)

    def test_state_dependence_flags(self):
        # The decomposed fast path is only legal for routers whose
        # decision ignores live replica state.
        assert not RoundRobin(4).state_dependent
        assert not SessionAffinity(4).state_dependent
        assert LeastQueue(4).state_dependent
        assert PowerOfTwo(4).state_dependent


class TestRoundRobin:
    def test_cycles_over_candidates(self):
        router = RoundRobin(3)
        views = [FakeView(i) for i in range(3)]
        picks = [router.choose(FakeRequest(i), views, 0.0).index for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_missing_candidates(self):
        router = RoundRobin(3)
        views = [FakeView(0), FakeView(2)]  # replica 1 unhealthy
        picks = {router.choose(FakeRequest(i), views, 0.0).index for i in range(4)}
        assert picks == {0, 2}


class TestSessionAffinity:
    def test_same_session_sticks(self):
        router = SessionAffinity(4)
        views = [FakeView(i) for i in range(4)]
        sessions = 4 * 4
        first = router.choose(FakeRequest(7), views, 0.0).index
        again = router.choose(FakeRequest(7 + sessions), views, 0.0).index
        assert first == again

    def test_spreads_across_replicas(self):
        router = SessionAffinity(4)
        views = [FakeView(i) for i in range(4)]
        picks = {router.choose(FakeRequest(r), views, 0.0).index for r in range(64)}
        assert len(picks) > 1


class TestLeastQueue:
    def test_prefers_emptiest(self):
        router = LeastQueue(3)
        views = [
            FakeView(0, queue_depth=5, running=2),
            FakeView(1, queue_depth=0, running=1),
            FakeView(2, queue_depth=3, running=0),
        ]
        assert router.choose(FakeRequest(0), views, 0.0).index == 1

    def test_backlog_tokens_break_count_ties(self):
        router = LeastQueue(2)
        views = [
            FakeView(0, queue_depth=1, backlog_tokens=900),
            FakeView(1, queue_depth=1, backlog_tokens=100),
        ]
        assert router.choose(FakeRequest(0), views, 0.0).index == 1


class TestPowerOfTwo:
    def test_picks_lighter_of_two_probes(self):
        router = PowerOfTwo(2, seed=0)
        views = [
            FakeView(0, backlog_tokens=10_000),
            FakeView(1, backlog_tokens=10),
        ]
        # With only two candidates both are always probed: the light
        # one must win every time.
        for rid in range(16):
            assert router.choose(FakeRequest(rid), views, 0.0).index == 1

    def test_seeded_reproducibility(self):
        views = [FakeView(i, backlog_tokens=i * 100) for i in range(6)]
        a = PowerOfTwo(6, seed=3)
        b = PowerOfTwo(6, seed=3)
        for rid in range(32):
            assert (
                a.choose(FakeRequest(rid), views, 0.0).index
                == b.choose(FakeRequest(rid), views, 0.0).index
            )


HETERO_TRACE = TraceSpec(kind="bursty", rps=300, duration_s=8, seed=3)


def heterogeneous_pool():
    """3 healthy replicas + 1 with a 2.5x compute straggler on rank 0."""
    cluster = h800_node()
    strategy = ParallelStrategy(tp_size=1, ep_size=8)
    return (
        ReplicaSpec(cluster=cluster, strategy=strategy, count=3),
        ReplicaSpec(
            cluster=cluster,
            strategy=strategy,
            count=1,
            stragglers=StragglerSpec.slow_rank(8, rank=0, compute_mult=2.5),
        ),
    )


class TestP2CBeatsRoundRobinHeterogeneous:
    def test_p99_ttft_strictly_lower(self):
        results = FleetSpec.grid(
            replicas=heterogeneous_pool(),
            routers=("round_robin", "least_queue", "power_of_two"),
            traces=HETERO_TRACE,
            systems="comet",
        ).run(workers=2)
        rr = results.get("comet", router="round_robin")
        p2c = results.get("comet", router="power_of_two")
        # Every fleet serves the entire trace...
        assert all(report.unserved == 0 for report in results.reports)
        # ...but state-aware routing steers load away from the straggler.
        assert p2c.ttft_percentiles()["p99"] < rr.ttft_percentiles()["p99"]
        assert p2c.goodput_rps >= rr.goodput_rps
