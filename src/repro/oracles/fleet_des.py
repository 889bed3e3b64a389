"""The fleet co-simulation as generator processes on the DES kernel.

:meth:`repro.fleet.simulator.FleetEngine._run_cosim` runs the coupled
fleet as one loop over a heap of timers, and
:meth:`repro.fleet.router.PowerOfTwo._probes` draws its probes in
blocks.  This module keeps what both must equal: :func:`des_cosim` runs
the same fleet as processes on :class:`~repro.sim.engine.Environment` —
one for arrivals, one engine per replica, one per failure, degrade
window, front-door deadline, KV delivery, probation and warm-up, plus
the autoscaler and the detector — and :func:`scalar_probes` draws each
probe pair with two scalar calls.  The processes call the engine's own
helpers; only starting a process, waking an engine and aborting a step
(an :class:`~repro.sim.engine.Interrupt`) differ from the loop.
"""

from __future__ import annotations

from typing import Generator

from repro.fleet.metrics import FleetEvent, FleetReport
from repro.fleet.router import PowerOfTwo
from repro.fleet.simulator import FleetEngine, _Replica
from repro.serve.scheduler import _Sequence
from repro.sim.engine import Environment, Event, Interrupt, Process

__all__ = ["DesFleetEngine", "des_cosim", "scalar_probes"]


def des_cosim(engine: FleetEngine, system_name: str) -> FleetReport:
    """Co-simulate ``engine``'s fleet as DES processes."""
    des = DesFleetEngine(engine.scenario, engine.cost_models, engine.trace)
    return des._run_cosim(system_name)


def scalar_probes(router: PowerOfTwo, n: int) -> tuple[int, int]:
    """A power-of-two probe pair for ``n`` candidates, one scalar draw
    each."""
    rng = router._rng
    return int(rng.integers(n)), int(rng.integers(n - 1))


class DesFleetEngine(FleetEngine):
    """A :class:`FleetEngine` whose co-simulation runs on the DES kernel."""

    def _run_cosim(self, system_name: str) -> FleetReport:
        env = self._env = Environment()
        self._wakeups: dict[int, Event | None] = {}
        self._processes: dict[int, Process] = {}
        self._start_cosim()
        total = len(self.trace)
        # Manual stepping (not run(until=...)): the queue legitimately
        # drains with requests still unserved when every replica is dead
        # and no recovery is coming — peek() going +inf ends the run.
        # Scheduled recoveries are part of the fault plan even when the
        # last request resolves first, so drain them before closing the
        # window.
        while (
            self._resolved < total or self._recoveries_outstanding
        ) and env.peek() != float("inf"):
            env.step()
        return self._cosim_report(system_name)

    # -- the event mechanism ----------------------------------------------------
    def _start(self, process: str, *args) -> None:
        self._env.process(getattr(self, f"_{process}")(self._env, *args))

    def _wake(self, rep: _Replica) -> None:
        wakeup = self._wakeups.get(rep.index)
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()

    def _abort_step(self, rep: _Replica) -> None:
        self._processes[rep.index].interrupt("replica failure")

    # -- the processes ------------------------------------------------------------
    def _arrivals(self, env: Environment) -> Generator:
        for request in self.trace:
            delay = request.arrival_ms - env.now
            if delay > 0:
                yield env.timeout(delay)
            self._arrive(request, env.now)
        self._arrivals_done = True

    def _engine(self, env: Environment, rep: _Replica) -> Generator:
        self._processes[rep.index] = env.active_process
        total = len(self.trace)
        while True:
            if not rep.waiting and not rep.resident:
                if not rep.active:
                    # Drained after scale-down: stop the meter.
                    rep.close_window(env.now)
                if self._resolved >= total:
                    return
                wakeup = self._wakeups[rep.index] = env.event()
                yield wakeup
                self._wakeups[rep.index] = None
                continue
            step = self._launch(rep, env.now)
            try:
                yield env.timeout(step)
            except Interrupt:
                # Failed mid-step: the work is lost but the GPUs burned.
                rep.busy_ms += env.now - rep.step_started
                rep.in_step = False
                continue
            self._step_done(rep, env.now)

    def _failure(self, env: Environment, event) -> Generator:
        yield env.timeout(event.fail_ms)
        rep = self._replicas[event.replica]
        self._crash(rep, env.now)
        if event.recover_ms is not None:
            yield env.timeout(event.recover_ms - env.now)
            self._recover(rep, env.now)

    def _degrade_marker(self, env: Environment, event) -> Generator:
        yield env.timeout(event.t0_ms - env.now)
        self._events.append(FleetEvent(env.now, event.replica, "degrade"))
        yield env.timeout(event.t1_ms - env.now)
        self._events.append(FleetEvent(env.now, event.replica, "restore"))

    def _detector(self, env: Environment) -> Generator:
        while True:
            yield env.timeout(self._resilience.check_interval_ms)
            if not self._detect(env.now):
                return

    def _autoscaler(self, env: Environment) -> Generator:
        while True:
            yield env.timeout(self.scenario.autoscaler.interval_ms)
            if not self._autoscale(env.now):
                return

    def _frontdoor(self, env: Environment, seq: _Sequence) -> Generator:
        retries = 0
        while True:
            yield env.timeout(self._resilience.timeout_ms)
            backoff = self._deadline(seq, retries, env.now)
            if backoff is None:
                return
            retries += 1
            if backoff > 0:
                yield env.timeout(backoff)
            self._retry(seq, env.now)

    def _deliver(
        self,
        env: Environment,
        rep: _Replica,
        tagged: list[tuple[_Sequence, int]],
        delay: float,
        pool: str,
    ) -> Generator:
        if delay > 0:
            yield env.timeout(delay)
        self._delivered(rep, tagged, pool, env.now)

    def _readmit(self, env: Environment, rep: _Replica) -> Generator:
        yield env.timeout(rep.probation_until - env.now)
        self._end_probation(rep, env.now)

    def _warmup_flush(self, env: Environment, rep: _Replica) -> Generator:
        yield env.timeout(rep.warm_until - env.now)
        self._warmed(rep, env.now)
