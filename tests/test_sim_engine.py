"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Interrupt,
    SimulationError,
)


class TestEnvironmentClock:
    def test_initial_time(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_deadline_advances_clock(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_deadline_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_peek_empty_queue(self):
        assert Environment().peek() == float("inf")

    def test_step_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestTimeout:
    def test_timeout_fires_at_delay(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(3.5)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [3.5]

    def test_timeout_carries_value(self):
        env = Environment()
        seen = []

        def proc():
            value = yield env.timeout(1.0, value="payload")
            seen.append(value)

        env.process(proc())
        env.run()
        assert seen == ["payload"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_allowed(self):
        env = Environment()
        done = []

        def proc():
            yield env.timeout(0.0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_timeouts_fire_in_order(self):
        env = Environment()
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(3, "c"))
        env.process(proc(1, "a"))
        env.process(proc(2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_equal_time_fifo_tiebreak(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in range(5):
            env.process(proc(tag))
        env.run()
        assert order == list(range(5))


class TestEvents:
    def test_manual_succeed(self):
        env = Environment()
        event = env.event()
        results = []

        def waiter():
            value = yield event
            results.append(value)

        def trigger():
            yield env.timeout(2.0)
            event.succeed(42)

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert results == [42]

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_propagates_into_process(self):
        env = Environment()
        event = env.event()
        caught = []

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        def trigger():
            yield env.timeout(1.0)
            event.fail(RuntimeError("boom"))

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert caught == ["boom"]

    def test_unhandled_failure_surfaces(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("nobody listening"))
        with pytest.raises(RuntimeError, match="nobody listening"):
            env.run()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            return "result"

        def parent(collected):
            value = yield env.process(child())
            collected.append(value)

        collected = []
        env.process(parent(collected))
        env.run()
        assert collected == ["result"]

    def test_run_until_process(self):
        env = Environment()

        def proc():
            yield env.timeout(4.0)
            return 7

        assert env.run(until=env.process(proc())) == 7
        assert env.now == 4.0

    def test_process_exception_propagates_to_parent(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            raise ValueError("child died")

        def parent(caught):
            try:
                yield env.process(child())
            except ValueError as exc:
                caught.append(str(exc))

        caught = []
        env.process(parent(caught))
        env.run()
        assert caught == ["child died"]

    def test_yield_non_event_raises(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        stamps = []

        def proc():
            for _ in range(3):
                yield env.timeout(2.0)
                stamps.append(env.now)

        env.process(proc())
        env.run()
        assert stamps == [2.0, 4.0, 6.0]

class TestInterrupts:
    def test_interrupt_delivers_cause(self):
        env = Environment()
        causes = []

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                causes.append((env.now, interrupt.cause))

        def attacker(target):
            yield env.timeout(3.0)
            target.interrupt("preempted")

        target = env.process(victim())
        env.process(attacker(target))
        env.run()
        assert causes == [(3.0, "preempted")]

    def test_interrupt_dead_process_raises(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        p = env.process(proc())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self):
        env = Environment()
        log = []

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            log.append(env.now)

        def attacker(target):
            yield env.timeout(2.0)
            target.interrupt()

        target = env.process(victim())
        env.process(attacker(target))
        env.run()
        assert log == [3.0]


class TestConditions:
    def test_all_of_waits_for_every_event(self):
        env = Environment()
        done = []

        def proc():
            yield AllOf(env, [env.timeout(1), env.timeout(5), env.timeout(3)])
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [5.0]

    def test_all_of_fails_with_its_first_failing_event(self):
        env = Environment()
        broken = env.event()
        caught = []

        def proc():
            try:
                yield AllOf(env, [env.timeout(5), broken])
            except RuntimeError as exc:
                caught.append((str(exc), env.now))

        def breaker():
            yield env.timeout(1)
            broken.fail(RuntimeError("boom"))

        env.process(proc())
        env.process(breaker())
        env.run()
        assert caught == [("boom", 1.0)]

    def test_empty_all_of_fires_immediately(self):
        env = Environment()
        done = []

        def proc():
            yield AllOf(env, [])
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_all_of_collects_values(self):
        env = Environment()
        seen = {}

        def proc():
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(2, value="b")
            values = yield AllOf(env, [t1, t2])
            seen.update({v for v in values.values()} and values)

        env.process(proc())
        env.run()
        assert sorted(seen.values()) == ["a", "b"]


class TestInterruptWhileBlockedOnConditions:
    """Interrupting a process that is waiting on AllOf."""

    def test_interrupt_while_blocked_on_all_of(self):
        env = Environment()
        log = []

        def victim():
            t1 = env.timeout(10, value="a")
            t2 = env.timeout(20, value="b")
            try:
                yield AllOf(env, [t1, t2])
                log.append("completed")
            except Interrupt as exc:
                log.append(("interrupted", exc.cause, env.now))

        def attacker(proc):
            yield env.timeout(5)
            proc.interrupt("stop waiting")

        proc = env.process(victim())
        env.process(attacker(proc))
        env.run()
        assert log == [("interrupted", "stop waiting", 5.0)]

    def test_condition_firing_after_interrupt_does_not_resume_victim(self):
        # The constituent timeouts still fire at t=10/t=20; the detached
        # condition must not resume (or crash) the interrupted process.
        env = Environment()
        resumptions = []

        def victim():
            t1 = env.timeout(10)
            t2 = env.timeout(20)
            try:
                yield AllOf(env, [t1, t2])
            except Interrupt:
                resumptions.append(("interrupt", env.now))
                yield env.timeout(100)  # waits past both timeouts
                resumptions.append(("woke", env.now))

        def attacker(proc):
            yield env.timeout(5)
            proc.interrupt()

        proc = env.process(victim())
        env.process(attacker(proc))
        env.run()
        assert resumptions == [("interrupt", 5.0), ("woke", 105.0)]
        assert env.now == 105.0

    def test_interrupted_process_can_rewait_on_remaining_events(self):
        # After the interrupt the victim re-waits on one of the original
        # constituent events, which must still deliver its value.
        env = Environment()
        log = []

        def victim():
            t1 = env.timeout(10, value="late")
            try:
                yield AllOf(env, [t1, env.timeout(30)])
            except Interrupt:
                value = yield t1
                log.append((value, env.now))

        def attacker(proc):
            yield env.timeout(2)
            proc.interrupt()

        proc = env.process(victim())
        env.process(attacker(proc))
        env.run()
        assert log == [("late", 10.0)]
