"""Unit tests for the FIFO store the layer0 DES oracle runs on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracles.layer0_des import Store
from repro.sim import Environment, SimulationError


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        received = []

        def producer():
            yield store.put("item")

        def consumer():
            item = yield store.get()
            received.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == ["item"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer():
            item = yield store.get()
            received.append((env.now, item))

        def producer():
            yield env.timeout(7.0)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert received == [(7.0, "late")]

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        received = []

        def producer():
            for i in range(4):
                yield store.put(i)

        def consumer():
            for _ in range(4):
                item = yield store.get()
                received.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == [0, 1, 2, 3]

    def test_bounded_store_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        put_times = []

        def producer():
            for _ in range(2):
                yield store.put("x")
                put_times.append(env.now)

        def consumer():
            yield env.timeout(5.0)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert put_times == [0.0, 5.0]

    def test_len_reflects_items(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        store.put("b")
        assert len(store) == 2

    def test_capacity_must_be_positive(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


@given(
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    gaps=st.lists(
        st.tuples(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10)),
        min_size=1, max_size=25,
    ),
)
@settings(max_examples=60)
def test_fifo_timing_law(capacity, gaps):
    """A producer puts items 0..n-1 and a consumer takes n, each waiting
    its own gap before every request.  Item i is accepted once the
    consumer has taken item i - capacity, and taken once it is accepted:
    the times follow that recurrence exactly, the items leave in put
    order and the store never holds more than its capacity."""
    env = Environment()
    store = Store(env) if capacity is None else Store(env, capacity=capacity)
    accepted, taken, items = [], [], []

    def producer():
        for i, (gap, _) in enumerate(gaps):
            yield env.timeout(gap)
            yield store.put(i)
            accepted.append(env.now)
            assert len(store) <= store.capacity

    def consumer():
        for _, gap in gaps:
            yield env.timeout(gap)
            items.append((yield store.get()))
            taken.append(env.now)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert items == list(range(len(gaps)))
    put_at = get_at = 0.0
    for i, (put_gap, get_gap) in enumerate(gaps):
        put_at = max(put_at + put_gap, taken[i - capacity] if capacity and i >= capacity else 0.0)
        get_at = max(get_at + get_gap, put_at)
        assert (accepted[i], taken[i]) == (put_at, get_at), i
