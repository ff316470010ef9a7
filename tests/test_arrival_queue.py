"""The engine's arrival queue, replayed beside the single-heap engine.

Each workload arrival stream queues its next job on the engine's arrival
queue (:meth:`~repro.sim.engine.Engine.queue_arrival`), not on the event
heap. :class:`tests.oracles.HeapOnlyEngine` schedules the same entry as
an event-heap ``JOB_ARRIVAL`` event at the same moment, the way arrivals
ran before. Every run here goes on both engines and must make the same
callbacks in the same order and end in the same state: a tenanted row
(three generators on one stream), a three-row fleet under a demand
surge, and a run built to tie, where arrivals fall on whole seconds so
that streams tie with one another and with a late stream's start event.
"""

import sys

import numpy as np
import pytest

from repro.analysis.serialize import fleet_result_to_dict, result_to_dict
from repro.core.safety import SafetyConfig
from repro.faults.scenario import FaultScenario
from repro.fleet.config import FleetConfig
from repro.sim.engine import Engine, _PeriodicTask
from repro.sim.events import EventPriority
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import WorkloadSpec
from repro.tenancy.config import builtin_mixes
from repro.workload.generator import (
    ArrivalStream,
    BatchWorkloadGenerator,
    DiurnalRateProfile,
    ScaledRateProfile,
)
from tests import oracles

LOOP_CODES = {Engine.run.__code__, oracles.HeapOnlyEngine.run.__code__}


class CallbackLog:
    """Every callback an engine loop runs, in order, as ``(time, name,
    key)``: the key names the arrival stream (by its place in
    ``streams``), the job of a completion, or a periodic task's
    callback."""

    def __init__(self, engine: Engine, streams) -> None:
        self.engine = engine
        self.streams = streams
        self.entries = []

    def _key(self, frame):
        local = frame.f_locals
        this = local.get("self")
        if isinstance(this, ArrivalStream):
            return ("stream", [id(s) for s in self.streams].index(id(this)))
        if isinstance(this, _PeriodicTask):
            return ("periodic", this.callback.__qualname__)
        if "job" in local:
            return ("job", local["job"].job_id)
        return None

    def _on_event(self, frame, event, arg):
        if event == "call" and frame.f_back is not None and frame.f_back.f_code in LOOP_CODES:
            self.entries.append((self.engine.now, frame.f_code.co_qualname, self._key(frame)))

    def record(self, advance) -> None:
        previous = sys.getprofile()
        sys.setprofile(self._on_event)
        try:
            advance()
        finally:
            sys.setprofile(previous)


def store_state(state) -> dict:
    return {
        name: getattr(state, name)[: state.n].tolist()
        for name in ("used_cores", "used_memory_gb", "frozen", "failed", "frequency",
                     "jobs_started", "jobs_completed")
    }


def staged_replay(run) -> dict:
    """Run a staged experiment to its end under a callback log; return the
    log, the result document and the final state."""
    run.start()
    log = CallbackLog(run.engine, run.testbed._arrivals)
    log.record(run.advance)
    result = run.finish()
    document = (
        fleet_result_to_dict(result)
        if isinstance(run, FleetExperiment)
        else result_to_dict(result, include_series=True)
    )
    engine = run.engine
    return {
        "callbacks": log.entries,
        "result": document,
        "events": engine.events_processed,
        "scheduled": repr(engine._sequence),
        "pending": engine.pending_count(),
        "store": store_state(run.testbed.state),
        "waits": {name: r.wait_times for name, r in run.testbed.throughput.records.items()},
    }


def tenanted_row():
    return ControlledExperiment(
        ExperimentConfig(
            n_servers=80,
            duration_hours=1.25,
            warmup_hours=0.25,
            over_provision_ratio=0.25,
            workload=WorkloadSpec.typical(),
            tenancy=builtin_mixes()["three-tier"],
            seed=4,
        )
    )


def surging_fleet():
    heavy = WorkloadSpec.heavy()
    light = WorkloadSpec.light()
    return FleetExperiment(
        FleetExperimentConfig(
            rows=tuple(
                FleetRowSpec(n_servers=40, workload=heavy if i % 2 == 0 else light)
                for i in range(3)
            ),
            duration_hours=1.0,
            warmup_hours=0.25,
            over_provision_ratio=0.25,
            fleet=FleetConfig(policy="demand-following"),
            safety=SafetyConfig(),
            faults=FaultScenario(name="surge-2x", surges=((1020.0, 1500.0, 2.0),)),
            seed=6,
        )
    )


@pytest.mark.parametrize(
    "build", [tenanted_row, surging_fleet], ids=["tenanted-row", "fleet-surge"]
)
def test_staged_run_matches_the_heap_only_engine(build, monkeypatch):
    queued = staged_replay(build())
    with monkeypatch.context() as patch:
        oracles.use_heap_only_engine(patch)
        run = build()
        assert type(run.engine) is oracles.HeapOnlyEngine
        heap_only = staged_replay(run)
    arrivals = sum(1 for _, name, _ in queued["callbacks"] if name == "ArrivalStream.fire")
    assert arrivals > 1000
    assert queued["callbacks"] == heap_only["callbacks"]
    assert queued == heap_only


# ----------------------------------------------------------------------
# Forced ties
# ----------------------------------------------------------------------
class WholeSecondRng:
    """A workload rng whose candidate times are whole seconds, so arrivals
    of different streams fall at equal times; every other draw is the
    wrapped generator's."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def uniform(self, low, high, size):
        return np.floor(self._rng.uniform(low, high, size))

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Sink:
    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.jobs = []

    def submit(self, job) -> None:
        self.jobs.append((self.engine.now, job.job_id, job.tenant, job.work_seconds))


#: (rng seed, start time) per stream: streams 0 and 1 draw the same whole
#: seconds from one seed, and streams 2-4 start late, at whole seconds
#: where the others have arrivals queued
TIE_STREAMS = ((1, 0.0), (1, 0.0), (2, 600.0), (3, 1200.0), (4, 1801.0))
TIE_HORIZON = 2400.0


def tie_replay(engine: Engine) -> dict:
    sink = Sink(engine)
    streams = []
    for index, (seed, start_at) in enumerate(TIE_STREAMS):
        rng = WholeSecondRng(seed)
        stream = ArrivalStream(engine, rng)
        streams.append(stream)
        profile = DiurnalRateProfile(3.0, amplitude=0.3, period_seconds=900.0)
        generators = [
            BatchWorkloadGenerator(
                engine, sink, ScaledRateProfile(profile, share),
                rng=rng, stream=stream, tenant=f"s{index}-{k}",
                job_id_offset=1_000_000 * (2 * index + k),
            )
            for k, share in enumerate((0.6, 0.4))
        ]

        def start(generators=generators) -> None:
            for generator in generators:
                generator.start(TIE_HORIZON)

        # JOB_COMPLETION runs before every arrival at the same instant, so
        # the start event lands behind arrivals already queued there and
        # ahead of those queued after it.
        engine.schedule(start_at, EventPriority.JOB_COMPLETION, start)
    # a heap event of arrival priority on every whole minute
    engine.schedule_periodic(60.0, EventPriority.JOB_ARRIVAL, lambda: None)
    log = CallbackLog(engine, streams)
    log.record(lambda: engine.run(until=TIE_HORIZON))
    return {
        "callbacks": log.entries,
        "jobs": sink.jobs,
        "events": engine.events_processed,
        "scheduled": repr(engine._sequence),
        "pending": engine.pending_count(),
    }


def ties(callbacks) -> tuple:
    """Count, over each instant's run of callbacks, the arrivals that tie
    with another stream's arrival, and the start events (``_draw``) with
    another stream's arrival at their instant both before and after."""
    by_time = {}
    for time, name, key in callbacks:
        by_time.setdefault(time, []).append((name, key))
    arrival_ties = draw_ties = 0
    for events in by_time.values():
        fired = [key for name, key in events if name == "ArrivalStream.fire"]
        if len(set(fired)) > 1:
            arrival_ties += 1
        for position, (name, key) in enumerate(events):
            if name != "ArrivalStream._draw":
                continue
            before = {k for n, k in events[:position] if n == "ArrivalStream.fire"}
            after = {k for n, k in events[position + 1 :] if n == "ArrivalStream.fire"}
            if before - {key} and after - {key}:
                draw_ties += 1
    return arrival_ties, draw_ties


def test_forced_ties_resolve_as_on_the_heap_only_engine():
    queued = tie_replay(Engine())
    heap_only = tie_replay(oracles.HeapOnlyEngine())
    arrival_ties, draw_ties = ties(queued["callbacks"])
    assert arrival_ties > 1000
    assert draw_ties == 3  # each late stream's start event
    assert len(queued["jobs"]) > 10_000
    assert queued["callbacks"] == heap_only["callbacks"]
    assert queued == heap_only
