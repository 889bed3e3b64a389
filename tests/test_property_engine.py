"""Property-based tests for the DES kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, Environment


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30))
@settings(max_examples=60)
def test_clock_visits_events_in_sorted_order(delays):
    """The environment's clock is non-decreasing and hits every timeout."""
    env = Environment()
    visited = []

    def proc(delay):
        yield env.timeout(delay)
        visited.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert visited == sorted(visited)
    assert len(visited) == len(delays)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=20))
@settings(max_examples=60)
def test_all_of_fires_at_max(delays):
    env = Environment()
    stamps = []

    def waiter(condition):
        yield condition
        stamps.append(env.now)

    env.process(waiter(AllOf(env, [env.timeout(d) for d in delays])))
    env.run()
    assert stamps == [max(delays)]


@given(
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40)
def test_deterministic_replay(n, seed):
    """Identical process structure yields identical event history."""
    import random

    def build():
        rng = random.Random(seed)
        env = Environment()
        log = []

        def proc(tag):
            for _ in range(3):
                yield env.timeout(rng.random())
                log.append((tag, env.now))

        for tag in range(n):
            env.process(proc(tag))
        env.run()
        return log

    assert build() == build()
