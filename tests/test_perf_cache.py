"""Unit behaviour of the perf layer: caches and fingerprints."""

import dataclasses
import gc
import sys
import threading
import time
import weakref
from contextlib import nullcontext

import pytest

from repro import (
    MIXTRAL_8X7B,
    SYSTEM_REGISTRY,
    ParallelStrategy,
    StepCostModel,
    h800_node,
    perf,
)
from repro.oracles import reference_paths
from repro.runtime.workload import make_workload
from repro.systems import Comet, MegatronCutlass, Tutel

CLUSTER = h800_node()
STRATEGY = ParallelStrategy(1, 8)
#: Mixtral resized to narrower experts; ``replace`` keeps its name.
NARROW = dataclasses.replace(MIXTRAL_8X7B, hidden_size=1024, ffn_size=3584)


def _workload(tokens=1024, seed=0):
    return make_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, tokens, seed=seed)


def _uncached():
    return reference_paths(caches_only=True)


#: Run with the caches on, then with them bypassed.
CACHING = pytest.mark.parametrize("caching", (nullcontext, _uncached), ids=("cached", "uncached"))


class TestBoundedCache:
    def test_hit_miss_counters(self):
        cache = perf.BoundedCache(maxsize=4, name="t")
        assert cache.get_or_compute("a", lambda: 1) == 1  # miss: stored
        assert cache.get_or_compute("a", lambda: 2) == 1  # hit
        assert cache.misses == 1 and cache.hits == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_lru_eviction_is_bounded(self):
        cache = perf.BoundedCache(maxsize=2, name="t")
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get("a")  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b (least recently used)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_clear_resets_counters(self):
        cache = perf.BoundedCache(maxsize=2, name="t")
        cache.get_or_compute("a", lambda: 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == cache.evictions == 0

    def test_rejects_none_and_bad_maxsize(self):
        with pytest.raises(ValueError):
            perf.BoundedCache(maxsize=0)
        with pytest.raises(ValueError):
            perf.BoundedCache(maxsize=1).get_or_compute("k", lambda: None)


class TestGetOrCompute:
    """Each key is computed once, however many threads miss it at once."""

    THREADS = 8

    def _race(self, cache, compute):
        """Release every thread on one key at once; returns what each
        got back (a value or the exception it raised)."""
        barrier = threading.Barrier(self.THREADS)
        results = [None] * self.THREADS

        def ask(index):
            barrier.wait()
            try:
                results[index] = cache.get_or_compute("key", compute)
            except Exception as exc:  # returned for the assert
                results[index] = exc

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        return results

    def _until_all_wait(self, cache):
        """Block the computing thread until the other threads found the
        key in flight (each counts a hit before it waits)."""
        deadline = time.monotonic() + 10
        while cache.hits < self.THREADS - 1 and time.monotonic() < deadline:
            time.sleep(0.001)

    def test_concurrent_misses_compute_once(self):
        cache = perf.BoundedCache(maxsize=4, name="t")
        computed = []

        def compute():
            computed.append(threading.get_ident())
            self._until_all_wait(cache)
            return "value"

        assert self._race(cache, compute) == ["value"] * self.THREADS
        assert len(computed) == 1
        assert (cache.misses, cache.hits) == (1, self.THREADS - 1)
        assert cache.get_or_compute("key", compute) == "value"
        assert len(computed) == 1

    def test_a_raising_computation_reaches_every_caller_and_stores_nothing(self):
        cache = perf.BoundedCache(maxsize=4, name="t")
        computed = []

        def compute():
            computed.append(None)
            self._until_all_wait(cache)
            raise KeyError("no such bucket")

        results = self._race(cache, compute)
        assert len(computed) == 1
        assert all(isinstance(result, KeyError) for result in results)
        assert len(cache) == 0 and cache._flights == {}
        # The next caller computes again, and stores what it gets.
        assert cache.get_or_compute("key", lambda: 7) == 7
        assert cache.get("key") == 7

    def test_a_raising_computation_leaves_no_reference_cycle(self):
        """The stored error must not keep the failed call's frames alive
        until the collector runs: perfbench collects once per iteration,
        and the frames hold workloads."""

        class Payload:
            pass

        payload = Payload()
        alive = weakref.ref(payload)

        def compute(payload=payload):
            raise KeyError("unsupported")

        cache = perf.BoundedCache(maxsize=4, name="t")
        gc.disable()
        try:
            try:
                cache.get_or_compute("key", compute)
            except KeyError:
                pass
            del compute, payload
            assert alive() is None
        finally:
            gc.enable()

    def test_a_computation_may_read_other_keys_but_not_its_own(self):
        cache = perf.BoundedCache(maxsize=4, name="t")
        outer = cache.get_or_compute(
            "plan", lambda: ("plan", cache.get_or_compute("stream", lambda: "rows"))
        )
        assert outer == ("plan", "rows")
        assert (cache.misses, cache.hits) == (2, 0)
        with pytest.raises(RuntimeError, match="depends on itself"):
            cache.get_or_compute("loop", lambda: cache.get_or_compute("loop", lambda: 1))
        assert cache._flights == {}

    def test_none_is_not_stored(self):
        cache = perf.BoundedCache(maxsize=4, name="t")
        with pytest.raises(ValueError, match="cannot store None"):
            cache.get_or_compute("key", lambda: None)
        assert len(cache) == 0 and cache._flights == {}


class TestFingerprints:
    def test_workload_fingerprint_deterministic(self):
        assert _workload().fingerprint() == _workload().fingerprint()

    def test_workload_fingerprint_sensitive_to_inputs(self):
        base = _workload().fingerprint()
        assert _workload(tokens=2048).fingerprint() != base
        assert _workload(seed=1).fingerprint() != base

    def test_system_fingerprint_covers_knobs(self):
        assert Comet().fingerprint() == Comet().fingerprint()
        assert Comet().fingerprint() != Comet(reschedule=False).fingerprint()
        assert Comet().fingerprint() != Comet(fixed_nc=8).fingerprint()
        assert Tutel().fingerprint() != MegatronCutlass().fingerprint()

    def test_backward_variant_fingerprint_differs(self):
        system = Tutel()
        assert system.fingerprint() != system.backward_variant().fingerprint()


class TestTimingCache:
    def test_cached_time_layer_hits_and_counts(self):
        perf.clear_caches()
        workload = _workload()
        system = MegatronCutlass()
        first = perf.cached_time_layer(system, workload)
        second = perf.cached_time_layer(MegatronCutlass(), workload)
        assert first == second
        assert perf.TIMING_CACHE.hits >= 1
        assert perf.time_layer_calls() == 1

    def test_bypassed_cache_still_counts_calls(self):
        perf.clear_caches()
        workload = _workload()
        with _uncached():
            perf.cached_time_layer(MegatronCutlass(), workload)
            perf.cached_time_layer(MegatronCutlass(), workload)
        assert len(perf.TIMING_CACHE) == 0
        assert perf.time_layer_calls() == 2
        assert perf.cache_stats()["timing"]["time_layer_calls"] == 2

    def test_time_layer_calls_are_the_timing_misses(self):
        perf.clear_caches()
        for tokens in (1024, 2048, 1024, 2048, 1024):
            perf.cached_time_layer(MegatronCutlass(), _workload(tokens=tokens))
        stats = perf.cache_stats()["timing"]
        assert (stats["misses"], stats["hits"]) == (2, 3)
        assert stats["time_layer_calls"] == perf.time_layer_calls() == 2

    def test_shared_workload_returns_same_object(self):
        perf.clear_caches()
        a = perf.shared_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, 1024)
        b = perf.shared_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, 1024)
        assert a is b
        assert perf.WORKLOAD_CACHE.hits == 1


class TestStepCostModelCache:
    def test_step_cache_bounded_with_stats_and_clear(self):
        perf.clear_caches()
        model = StepCostModel(
            SYSTEM_REGISTRY.create("megatron-cutlass"),
            MIXTRAL_8X7B,
            CLUSTER,
            STRATEGY,
            bucket_tokens=256,
        )
        cost = model.step_us(100, 20)
        assert model.step_us(90, 30) == cost  # same bucket -> memoised
        stats = model.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["maxsize"] > 0
        model.clear()
        assert model.cache_stats()["hits"] == 0
        assert model.step_us(100, 20) == cost  # recomputed identically

    def test_step_ms_at_is_a_fresh_models_step_ms_for_every_bucket(self):
        """Every bucket a seeded serving run steps through, at both edges
        and three prefill/decode splits each: on first use, warm, after
        ``clear()``, and through the windows of a time-varying model."""
        from repro import ServeSpec, TraceSpec
        from repro.faults import TimeVaryingStepCost
        from repro.graph.straggler import StragglerSpec

        trace = TraceSpec(kind="bursty", rps=60, duration_s=3, seed=4)
        (report,) = ServeSpec.grid(traces=trace, systems="comet").run().reports
        totals = set(report.timeline["batch_tokens"].tolist())
        bucket = 256
        numbers = sorted({(total - 1) // bucket for total in totals})
        assert len(numbers) > 3
        totals |= {n * bucket + 1 for n in numbers} | {(n + 1) * bucket for n in numbers}
        steps = [
            split
            for total in sorted(totals)
            for split in ((total, 0), (0, total), (total // 2, total - total // 2))
        ]
        slow = StragglerSpec.slow_rank(8, rank=3, compute_mult=1.5, comm_mult=1.2)

        def model(stragglers=None):
            return StepCostModel(
                SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, CLUSTER, STRATEGY,
                bucket_tokens=bucket, stragglers=stragglers,
            )

        def fresh(stragglers=None):
            return [model(stragglers).step_ms(*step) for step in steps]

        expected, degraded = fresh(), fresh(slow)
        assert expected != degraded
        shared = model()
        for _ in range(2):  # first use, then every bucket priced
            assert [shared.step_ms_at(0.0, *step) for step in steps] == expected
        assert shared.cache_stats()["misses"] == len(numbers)
        shared.clear()
        for _ in range(2):
            assert [shared.step_ms_at(0.0, *step) for step in steps] == expected
        varying = TimeVaryingStepCost((0.0, 100.0, 200.0), (shared, model(slow), shared))
        for now, want in ((0.0, expected), (150.0, degraded), (250.0, expected)):
            assert [varying.step_ms_at(now, *step) for step in steps] == want
        with pytest.raises(ValueError, match="at least one token"):
            shared.step_ms_at(0.0, 0, 0)

    def test_threads_sharing_a_model_price_each_bucket_once_and_count_every_lookup(self):
        perf.clear_caches()
        model = StepCostModel(
            SYSTEM_REGISTRY.create("megatron-cutlass"), MIXTRAL_8X7B, CLUSTER, STRATEGY
        )
        totals = [1 + (i * 97) % 2048 for i in range(3000)]
        threads = 8
        barrier = threading.Barrier(threads)

        def step():
            barrier.wait()
            for total in totals:
                model.step_ms_at(0.0, total, 0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=step) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        stats = model.cache_stats()
        assert stats["misses"] == len({(total - 1) // model.bucket for total in totals})
        assert stats["hits"] + stats["misses"] == threads * len(totals)
        assert model.cache_stats()["hits"] == stats["hits"]  # reading counts no hit

    def test_workload_shared_across_systems(self):
        """Every system prices the identical bucket geometry (the old
        module-level workload cache contract, now bounded in repro.perf)."""
        perf.clear_caches()
        kwargs = dict(
            config=MIXTRAL_8X7B,
            cluster=CLUSTER,
            strategy=STRATEGY,
            bucket_tokens=256,
        )
        a = StepCostModel(SYSTEM_REGISTRY.create("comet"), **kwargs)
        b = StepCostModel(SYSTEM_REGISTRY.create("tutel"), **kwargs)
        assert a._workload(512) is b._workload(512)

    def test_cache_stats_shape(self):
        stats = perf.cache_stats()
        assert set(stats) == {
            "timing",
            "workload",
            "graph",
            "graph_batch",
            "step-cost",
            "routing",
            "nc-sweep",
        }
        for doc in stats.values():
            assert {"hits", "misses", "evictions", "size", "maxsize"} <= set(doc)


class TestRoutingCache:
    """One routing plan per (E, top-k, tokens, imbalance, seed)."""

    # Mixtral's four TP x EP splits, then a Fig. 13 variant with
    # Mixtral's (E, top-k), then a second seed: two distinct keys.
    POINTS = [
        (MIXTRAL_8X7B, ParallelStrategy(tp, 8 // tp), 0) for tp in (1, 2, 4, 8)
    ] + [(MIXTRAL_8X7B.with_experts(8, 2), STRATEGY, 0), (MIXTRAL_8X7B, STRATEGY, 1)]

    def _build(self):
        return [
            make_workload(config, CLUSTER, strategy, 2048, seed=seed)
            for config, strategy, seed in self.POINTS
        ]

    def test_one_synthesis_per_distinct_key(self):
        perf.clear_caches()
        workloads = self._build()
        stats = perf.cache_stats()["routing"]
        # Two plans and the expert stream each of them is cut from.
        assert (stats["misses"], stats["hits"]) == (4, 4)
        assert all(w.plan is workloads[0].plan for w in workloads[:5])
        assert workloads[5].plan is not workloads[0].plan

    def test_cached_plans_match_fresh_synthesis(self):
        perf.clear_caches()
        workloads = self._build()
        fingerprints = [w.fingerprint() for w in workloads]
        perf.clear_caches()
        rebuilt = self._build()
        assert rebuilt[0].plan is not workloads[0].plan
        assert [w.fingerprint() for w in rebuilt] == fingerprints

    def test_unseeded_plans_are_not_shared(self):
        perf.clear_caches()
        first = make_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, 1024, seed=None)
        second = make_workload(MIXTRAL_8X7B, CLUSTER, STRATEGY, 1024, seed=None)
        assert first.fingerprint() != second.fingerprint()
        assert len(perf.ROUTING_CACHE) == 0

    def test_shared_plan_is_read_only(self):
        plan = _workload().plan
        with pytest.raises(ValueError):
            plan.experts[0, 0] = 0
        with pytest.raises(ValueError):
            plan.weights[0, 0] = 0.0


class TestNcSweepCache:
    """Division-point sweeps shared across equal-config COMET instances."""

    @staticmethod
    def _division_points(system, workload):
        return system.division_point(workload, 0), system.division_point(workload, 1)

    @CACHING
    def test_bucket_ignores_the_probe_order(self, caching):
        # 3072 and 4096 tokens share the 4096 bucket, which is profiled
        # on its canonical 4096-token workload whichever comes first.
        perf.clear_caches()
        with caching():
            probed = Comet()
            self._division_points(probed, _workload(tokens=3072))
            assert self._division_points(probed, _workload(tokens=4096)) == (10, 34)
            assert self._division_points(Comet(), _workload(tokens=4096)) == (10, 34)

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The layers of every sweep that actually runs."""
        ran = []
        original = Comet.sweep_division_points

        def counted(system, workload, layer, *args, **kwargs):
            ran.append(layer)
            return original(system, workload, layer, *args, **kwargs)

        monkeypatch.setattr(Comet, "sweep_division_points", counted)
        return ran

    def test_fresh_instance_reuses_the_sweep(self, sweeps):
        perf.clear_caches()
        workload = _workload(tokens=4096)
        first = self._division_points(Comet(), workload)
        assert sweeps == [0, 1]
        second = Comet()
        assert self._division_points(second, workload) == first
        assert sweeps == [0, 1]
        stats = perf.cache_stats()["nc-sweep"]
        assert (stats["misses"], stats["hits"]) == (2, 2)
        # Still recorded in the instance's own profile.
        assert len(second._profiles[(CLUSTER, MIXTRAL_8X7B)].entries) == 2

    def test_bypassed_cache_runs_every_sweep(self, sweeps):
        perf.clear_caches()
        workload = _workload(tokens=4096)
        self._division_points(Comet(), workload)
        before = perf.cache_stats()["nc-sweep"]
        with _uncached():
            self._division_points(Comet(), workload)
            self._division_points(Comet(), workload)
        after = perf.cache_stats()["nc-sweep"]
        assert (after["hits"], after["size"]) == (before["hits"], before["size"])
        assert after["misses"] == before["misses"] + 4
        assert sweeps == [0, 1] * 3


class TestHistoryIndependence:
    """A COMET layer's timing is a function of the workload alone, not of
    what the same instance priced before."""

    @staticmethod
    def _price(workload, probe=None):
        perf.clear_caches()
        system = Comet()
        if probe is not None:
            perf.cached_time_layer(system, probe)
        return perf.cached_time_layer(system, workload)

    @CACHING
    @pytest.mark.parametrize(
        "probe, workload",
        [
            # 3072 tokens probe the 4096-token bucket first.
            (_workload(tokens=3072), _workload(tokens=4096)),
            # A resized config keeps Mixtral's name but not its optimum.
            (_workload(tokens=4096), make_workload(NARROW, CLUSTER, STRATEGY, 4096)),
        ],
        ids=["shared-bucket", "same-name-config"],
    )
    def test_equal_timings_after_different_histories(self, caching, probe, workload):
        with caching():
            assert self._price(workload, probe) == self._price(workload)


class TestCacheConcurrencyHammer:
    """Eviction-race hardening: every cache operation is atomic.

    Eight threads hammer one small cache (every put evicts) while a
    reader polls stats; afterwards — and at every sampled instant — the
    counters must be coherent: non-negative, size bounded by maxsize,
    and hit_rate in [0, 1].  A second hammer drives the real grid
    entry point and asserts the ResultSets are byte-identical to the
    serial run.
    """

    THREADS = 8

    def test_bounded_cache_hammer(self):
        import threading

        cache = perf.BoundedCache(maxsize=4, name="hammer")
        samples = []
        stop = threading.Event()

        def writer(tid):
            for i in range(400):
                key = (tid * 7 + i) % 32
                assert cache.get_or_compute(key, lambda: key + 1) == key + 1

        def reader():
            while not stop.is_set():
                samples.append((cache.stats(), len(cache)))

        threads = [
            threading.Thread(target=writer, args=(tid,))
            for tid in range(self.THREADS)
        ]
        poll = threading.Thread(target=reader)
        poll.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        poll.join()

        final = cache.stats()
        samples.append((final, len(cache)))
        for stats, size in samples:
            assert stats["hits"] >= 0
            assert stats["misses"] >= 0
            assert stats["evictions"] >= 0
            assert 0 <= stats["size"] <= stats["maxsize"]
            assert 0.0 <= stats["hit_rate"] <= 1.0
            assert 0 <= size <= stats["maxsize"]
        assert final["hits"] + final["misses"] == self.THREADS * 400

    def test_timing_cache_hammer_under_eviction(self):
        """A tiny TimingCache forces the popitem loop on nearly every
        put; concurrent time_layer calls must stay correct and the
        counters coherent."""
        import threading

        cache = perf.TimingCache(maxsize=2, name="hammer-timing")
        workloads = [_workload(tokens=1024 * (1 + i)) for i in range(4)]
        system = Comet()
        expected = {
            w.fingerprint(): system.time_layer(w) for w in workloads
        }
        errors = []

        def worker(tid):
            try:
                for i in range(30):
                    workload = workloads[(tid + i) % len(workloads)]
                    timing = cache.time_layer(system, workload)
                    assert timing == expected[workload.fingerprint()]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["evictions"] >= 1  # the hammer really evicted
        assert stats["size"] <= 2
        assert min(stats["hits"], stats["misses"], stats["evictions"]) >= 0

    def test_grid_byte_identical_with_8_workers(self):
        """The full ExperimentSpec path: 8 worker threads sharing the
        global caches must reproduce the serial export byte for byte."""
        from repro import ExperimentSpec

        spec = ExperimentSpec.grid(
            models="mixtral", clusters="h800", strategies="sweep",
            tokens=(1024, 2048), seeds=(0, 1),
            systems=("comet", "tutel", "megatron-cutlass"),
        )
        perf.clear_caches()
        serial = spec.run()
        perf.clear_caches()
        threaded = spec.run(workers=self.THREADS)
        assert threaded.to_csv() == serial.to_csv()
        assert threaded.to_json() == serial.to_json()
        for name, stats in perf.cache_stats().items():
            assert stats["hits"] >= 0 and stats["misses"] >= 0, name
            assert stats["evictions"] >= 0
            assert 0 <= stats["size"] <= stats["maxsize"]
