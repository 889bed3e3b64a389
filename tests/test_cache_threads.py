"""Cache stats stay consistent under thread hammering.

The oracle table checks cache *keys*; this suite hammers the
cache *implementations* — 8 threads of mixed get/get_or_compute/clear/
stats over ``BoundedCache``/``TimingCache`` instances and the live
``GRAPH_CACHE``/``STEP_COST_CACHE`` singletons — under a 1 µs thread
switch interval, and asserts the documented lock guarantees: counters
account exactly (every ``get`` and ``get_or_compute`` is one hit or one
miss), ``size`` never exceeds ``maxsize``, and every ``stats()``
snapshot is internally consistent rather than a torn mix.
"""

import sys
import threading

import pytest

from repro.perf import (
    GRAPH_CACHE,
    STEP_COST_CACHE,
    BoundedCache,
    TimingCache,
)

THREADS = 8
OPS = 400


@pytest.fixture
def fine_switch_interval():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_threads(worker):
    errors = []

    def wrapped(tid):
        try:
            worker(tid)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(tid,))
        for tid in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


def _assert_snapshot_consistent(doc):
    assert 0 <= doc["size"] <= doc["maxsize"]
    assert doc["hits"] >= 0
    assert doc["misses"] >= 0
    assert doc["evictions"] >= 0
    total = doc["hits"] + doc["misses"]
    expected = doc["hits"] / total if total else 0.0
    assert abs(doc["hit_rate"] - expected) < 1e-12, (
        "hit_rate torn from its own counters"
    )


@pytest.mark.parametrize("cache_cls", [BoundedCache, TimingCache])
def test_counters_account_exactly_without_clears(
    cache_cls, fine_switch_interval
):
    cache = cache_cls(maxsize=32)
    gets_per_thread = OPS
    puts_per_thread = OPS // 2

    def worker(tid):
        for i in range(OPS):
            key = (tid * 7 + i) % 96
            if i % 2 == 0:
                cache.get_or_compute(key, lambda: key + 1)
            cache.get(key)
        # Each thread issued OPS gets and OPS/2 get_or_computes in total.

    _run_threads(worker)
    doc = cache.stats()
    assert doc["hits"] + doc["misses"] == THREADS * (gets_per_thread + puts_per_thread)
    assert doc["size"] <= 32
    assert doc["size"] + doc["evictions"] <= THREADS * puts_per_thread
    _assert_snapshot_consistent(doc)


def test_live_caches_survive_mixed_clear_hammer(fine_switch_interval):
    caches = (GRAPH_CACHE, STEP_COST_CACHE, TimingCache(maxsize=16))
    stop = threading.Event()
    snapshots = []

    def reader():
        while not stop.is_set():
            for cache in caches:
                snapshots.append(cache.stats())

    def worker(tid):
        for i in range(OPS):
            cache = caches[i % len(caches)]
            key = ("thread-hammer", tid, i % 24)
            op = i % 5
            if op in (0, 1):
                cache.get_or_compute(key, lambda: i + 1)
            elif op in (2, 3):
                value = cache.get(key)
                assert value is None or value >= 1
            else:
                cache.clear()
            assert len(cache) <= cache.maxsize

    sampler = threading.Thread(target=reader)
    sampler.start()
    try:
        _run_threads(worker)
    finally:
        stop.set()
        sampler.join()

    assert snapshots, "the stats sampler never ran"
    for doc in snapshots:
        _assert_snapshot_consistent(doc)
    for cache in caches:
        _assert_snapshot_consistent(cache.stats())
        cache.clear()
