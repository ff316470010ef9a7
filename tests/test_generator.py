"""Tests for rate profiles and the batch workload generator."""

import numpy as np
import pytest

from repro.faults.scenario import FaultScenario
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.tenancy import TenancyConfig, TenantSpec
from repro.workload.generator import (
    ARRIVAL_WINDOW_SECONDS,
    ArrivalStream,
    BatchWorkloadGenerator,
    BurstyRateProfile,
    DiurnalRateProfile,
    ModulatedRateProfile,
    ScaledRateProfile,
    SECONDS_PER_DAY,
    SurgeRateProfile,
)
from tests import oracles
from tests.conftest import make_servers


class TestConstantProfile:
    """A constant rate is a zero-amplitude diurnal profile."""

    def test_rate_and_max(self):
        profile = DiurnalRateProfile(2.5, amplitude=0.0)
        assert profile.rate(0.0) == 2.5
        assert profile.rate(1e6) == 2.5
        assert profile.rates(np.linspace(0.0, 1e6, 7)).tolist() == [2.5] * 7
        assert profile.max_rate == 2.5

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError):
            DiurnalRateProfile(-1.0, amplitude=0.0)


class TestDiurnalProfile:
    def test_oscillates_around_base(self):
        profile = DiurnalRateProfile(10.0, amplitude=0.2)
        quarter = SECONDS_PER_DAY / 4
        assert profile.rate(quarter) == pytest.approx(12.0)
        assert profile.rate(3 * quarter) == pytest.approx(8.0)
        assert profile.rate(0.0) == pytest.approx(10.0)

    def test_max_rate_bounds_profile(self):
        profile = DiurnalRateProfile(10.0, amplitude=0.3)
        times = np.linspace(0, SECONDS_PER_DAY, 1000)
        assert all(profile.rate(t) <= profile.max_rate + 1e-9 for t in times)

    def test_phase_shifts_peak(self):
        profile = DiurnalRateProfile(10.0, amplitude=0.2, phase_seconds=3600.0)
        assert profile.rate(3600.0 + SECONDS_PER_DAY / 4) == pytest.approx(12.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"amplitude": 1.0}, {"amplitude": -0.1}, {"period_seconds": 0.0}],
    )
    def test_invalid_args(self, kwargs):
        with pytest.raises(ValueError):
            DiurnalRateProfile(10.0, **kwargs)


class TestModulatedProfile:
    def base(self):
        return DiurnalRateProfile(10.0, amplitude=0.0)

    def test_deterministic_for_seed(self):
        a = ModulatedRateProfile(self.base(), 3600.0, seed=42)
        b = ModulatedRateProfile(self.base(), 3600.0, seed=42)
        times = np.linspace(0, 3600, 50)
        assert [a.rate(t) for t in times] == [b.rate(t) for t in times]

    def test_different_seeds_differ(self):
        a = ModulatedRateProfile(self.base(), 3600.0, seed=1)
        b = ModulatedRateProfile(self.base(), 3600.0, seed=2)
        times = np.linspace(0, 3600, 50)
        assert [a.rate(t) for t in times] != [b.rate(t) for t in times]

    def test_respects_clip_range(self):
        profile = ModulatedRateProfile(
            self.base(), 86400.0, seed=7, sigma=0.5, floor=0.6, ceil=1.4
        )
        for t in np.linspace(0, 86400, 500):
            assert 6.0 - 1e-9 <= profile.rate(t) <= 14.0 + 1e-9

    def test_max_rate_includes_ceiling(self):
        profile = ModulatedRateProfile(self.base(), 3600.0, seed=1, ceil=1.3)
        assert profile.max_rate == pytest.approx(13.0)

    def test_piecewise_constant_on_grid(self):
        profile = ModulatedRateProfile(self.base(), 3600.0, seed=1, step_seconds=100.0)
        assert profile.rate(10.0) == profile.rate(90.0)

    def test_grid_index_clamps_at_both_ends(self):
        profile = ModulatedRateProfile(self.base(), 3600.0, seed=1, step_seconds=100.0)
        multipliers = profile._multipliers
        assert profile.rate(-250.0) == 10.0 * multipliers[0]
        assert profile.rate(1e9) == 10.0 * multipliers[-1]
        assert profile.rate(350.0) == 10.0 * multipliers[3]

    def test_mean_reverts_toward_one(self):
        profile = ModulatedRateProfile(self.base(), 40 * 86400.0, seed=3)
        rates = [profile.rate(t) for t in np.arange(0, 40 * 86400.0, 600.0)]
        assert np.mean(rates) == pytest.approx(10.0, rel=0.05)


class TestBurstyProfile:
    def test_rate_elevated_inside_burst(self):
        profile = BurstyRateProfile(
            DiurnalRateProfile(10.0, amplitude=0.0), 86400.0, seed=5,
            bursts_per_day=8.0, burst_factor=2.0,
        )
        windows = profile.burst_windows()
        assert windows, "expected at least one burst in a day at 8/day"
        start, end = windows[0]
        inside = (start + end) / 2
        assert profile.rate(inside) == pytest.approx(20.0)

    def test_rate_normal_outside_bursts(self):
        profile = BurstyRateProfile(
            DiurnalRateProfile(10.0, amplitude=0.0), 86400.0, seed=5,
            bursts_per_day=1.0, burst_factor=3.0,
        )
        windows = profile.burst_windows()
        t = 0.0
        while any(s <= t < e for s, e in windows):
            t += 60.0
        assert profile.rate(t) == pytest.approx(10.0)

    def test_zero_bursts(self):
        profile = BurstyRateProfile(
            DiurnalRateProfile(10.0, amplitude=0.0), 86400.0, seed=5, bursts_per_day=0.0
        )
        assert profile.burst_windows() == []
        assert profile.max_rate == 10.0

    @pytest.mark.parametrize(
        "kwargs", [{"burst_factor": 0.5}, {"bursts_per_day": -1.0}]
    )
    def test_invalid_args(self, kwargs):
        with pytest.raises(ValueError):
            BurstyRateProfile(DiurnalRateProfile(1.0, amplitude=0.0), 1000.0, seed=0, **kwargs)


class TestGenerator:
    def make(self, rate=1.0, until=3600.0):
        engine = Engine()
        servers = make_servers(8)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
        generator = BatchWorkloadGenerator(
            engine,
            scheduler,
            DiurnalRateProfile(rate, amplitude=0.0),
            rng=np.random.default_rng(1),
        )
        generator.start(until)
        return engine, scheduler, generator

    def test_arrival_count_matches_rate(self):
        engine, scheduler, generator = self.make(rate=1.0, until=3600.0)
        engine.run(until=3600.0)
        # Poisson(3600): within 5 sigma of the mean.
        assert abs(generator.jobs_generated - 3600) < 5 * 60

    def test_jobs_reach_scheduler(self):
        engine, scheduler, generator = self.make(rate=0.5, until=600.0)
        engine.run(until=600.0)
        assert scheduler.stats.submitted == generator.jobs_generated
        assert scheduler.stats.submitted > 0

    def test_zero_rate_generates_nothing(self):
        engine, scheduler, generator = self.make(rate=0.0)
        engine.run(until=100.0)
        assert generator.jobs_generated == 0

    def test_job_ids_unique_and_offset(self):
        engine = Engine()
        servers = make_servers(4)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
        seen = []
        generator = BatchWorkloadGenerator(
            engine, scheduler, DiurnalRateProfile(1.0, amplitude=0.0),
            rng=np.random.default_rng(1), job_id_offset=500,
        )
        generator.listeners.append(lambda job: seen.append(job.job_id))
        generator.start(120.0)
        engine.run(until=120.0)
        assert seen == sorted(set(seen))
        assert all(j >= 500 for j in seen)

    def test_row_affinity_attached(self):
        engine = Engine()
        servers = make_servers(4)
        for s in servers:
            s.row_id = 3
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
        jobs = []
        generator = BatchWorkloadGenerator(
            engine, scheduler, DiurnalRateProfile(1.0, amplitude=0.0),
            rng=np.random.default_rng(1), allowed_rows=[3], product="p3",
        )
        generator.listeners.append(jobs.append)
        generator.start(60.0)
        engine.run(until=60.0)
        assert jobs
        assert all(job.allowed_rows == frozenset({3}) for job in jobs)
        assert all(job.product == "p3" for job in jobs)

    def test_thinning_tracks_time_varying_rate(self):
        """Arrivals concentrate where the rate is high."""
        engine = Engine()
        servers = make_servers(4)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
        profile = DiurnalRateProfile(1.0, amplitude=0.8)
        arrivals = []
        generator = BatchWorkloadGenerator(
            engine, scheduler, profile, rng=np.random.default_rng(1)
        )
        generator.listeners.append(lambda job: arrivals.append(job.arrival_time))
        generator.start(SECONDS_PER_DAY)
        engine.run(until=SECONDS_PER_DAY)
        arrivals = np.asarray(arrivals)
        first_half = np.sum(arrivals < SECONDS_PER_DAY / 2)  # rising sine
        second_half = len(arrivals) - first_half
        assert first_half > second_half * 1.5


# ---------------------------------------------------------------------------
# The block cursor against the scalar v2 oracle
# ---------------------------------------------------------------------------
class _Sink:
    """A scheduler stand-in that keeps every submitted job."""

    def __init__(self) -> None:
        self.jobs = []

    def submit(self, job) -> None:
        self.jobs.append(job)


def _job_stream(jobs) -> list:
    return [
        (j.job_id, j.arrival_time, j.cores, j.memory_gb, j.work_seconds, j.tenant)
        for j in jobs
    ]


def _arrivals(stream_class, profiles, until, seed=3, join=0.0):
    """Run one generator per profile from ``join`` to ``until``, all on one
    rng and one ``stream_class`` stream; return the job stream and the
    rng's final state."""
    engine = Engine()
    engine.run(until=join)
    sink = _Sink()
    rng = np.random.default_rng(seed)
    stream = stream_class(engine, rng)
    for index, profile in enumerate(profiles):
        BatchWorkloadGenerator(
            engine, sink, profile, rng=rng, stream=stream,
            job_id_offset=index * 1_000_000,
            tenant=f"tenant-{index}" if len(profiles) > 1 else None,
        ).start(until)
    engine.run(until=until)
    return _job_stream(sink.jobs), rng.bit_generator.state


def _bursty(horizon=20_000.0):
    return BurstyRateProfile(
        DiurnalRateProfile(0.5, amplitude=0.5, period_seconds=7200.0),
        horizon,
        seed=1,
        bursts_per_day=40.0,
    )


def _windows_of(jobs) -> set:
    return {int(job[1] // ARRIVAL_WINDOW_SECONDS) for job in jobs}


class TestBlockCursor:
    """The block cursor takes each window's draws exactly as the scalar
    oracle does one call at a time: same jobs, same attributes, same
    final rng state."""

    @pytest.mark.parametrize(
        "profiles",
        [
            pytest.param(
                lambda: [DiurnalRateProfile(0.3, amplitude=0.8, period_seconds=5000.0)],
                id="single",
            ),
            pytest.param(lambda: [_bursty()], id="bursty"),
            pytest.param(
                lambda: [ScaledRateProfile(_bursty(), f) for f in (0.2, 0.5, 0.3)],
                id="three-tenants",
            ),
        ],
    )
    def test_job_stream_and_rng_state_match(self, profiles):
        cursor = _arrivals(ArrivalStream, profiles(), 20_000.0)
        oracle = _arrivals(oracles.ScalarArrivalStream, profiles(), 20_000.0)
        assert len(cursor[0]) > 1000
        assert cursor == oracle

    def test_empty_windows_are_drawn_and_skipped(self):
        """At 0.01 jobs/s most windows hold no job; the stream draws
        through them inline and still matches the oracle."""
        profiles = lambda: [  # noqa: E731
            DiurnalRateProfile(0.004, amplitude=0.0),
            DiurnalRateProfile(0.006, amplitude=0.0),
        ]
        cursor = _arrivals(ArrivalStream, profiles(), 20_000.0)
        assert 50 < len(cursor[0]) and len(_windows_of(cursor[0])) < 200
        assert cursor == _arrivals(oracles.ScalarArrivalStream, profiles(), 20_000.0)

    def test_window_clipped_at_join_and_until(self):
        """Joining and stopping off the 60 s grid clips the first and last
        windows; every job lies in ``[join, until)``."""
        join, until = 130.25, 19_990.5
        cursor = _arrivals(ArrivalStream, [_bursty()], until, join=join)
        oracle = _arrivals(oracles.ScalarArrivalStream, [_bursty()], until, join=join)
        assert cursor == oracle
        times = [job[1] for job in cursor[0]]
        assert join <= times[0] < 180.0 and 19_980.0 <= times[-1] < until
        # The grid is absolute: the same run joined on the grid differs.
        assert cursor != _arrivals(ArrivalStream, [_bursty()], until, join=120.0)

    def test_surge_scenario_experiment_matches(self, monkeypatch):
        """Tenant and row surges from a fault scenario, three tenants on
        the testbed's shared workload rng, through a whole run."""

        def jobs_of(scalar: bool):
            with monkeypatch.context() as patch:
                if scalar:
                    oracles.use_scalar_arrivals(patch)
                run = ControlledExperiment(
                    ExperimentConfig(
                        n_servers=40,
                        duration_hours=1.0,
                        warmup_hours=0.25,
                        workload=WorkloadSpec.typical(),
                        tenancy=TenancyConfig(
                            tenants=(
                                TenantSpec("alpha", share=0.2),
                                TenantSpec("bravo", share=0.5),
                                TenantSpec("charlie", share=0.3),
                            )
                        ),
                        faults=FaultScenario(
                            name="surges",
                            surges=((1500.0, 1200.0, 3.0),),
                            tenant_surges=(("bravo", 2000.0, 900.0, 2.0),),
                        ),
                        seed=11,
                    )
                )
                run.start()
                assert (run.injector.surges_applied, run.injector.tenant_surges_applied) == (1, 1)
                (stream,) = run.testbed._arrivals
                assert isinstance(stream, oracles.ScalarArrivalStream) == scalar
                jobs = []
                for generator in run.testbed.generators:
                    generator.listeners.append(jobs.append)
                run.finish()
                return _job_stream(jobs), run.testbed._workload_rngs[0].bit_generator.state

        cursor = jobs_of(scalar=False)
        assert len({job[-1] for job in cursor[0]}) == 3
        assert cursor == jobs_of(scalar=True)

    def test_warm_up_then_fresh_start_on_the_same_rng(self, monkeypatch):
        """A finished stream takes a new generator on the same rng."""

        def jobs_of(scalar: bool):
            with monkeypatch.context() as patch:
                if scalar:
                    oracles.use_scalar_arrivals(patch)
                testbed = Testbed(rows=(40,), seed=4)
                jobs = []
                warm = testbed.add_batch_workload(WorkloadSpec.typical(), 1800.0)
                warm.start(1800.0)
                testbed.engine.run(until=1800.0)
                warm.listeners.append(jobs.append)
                generator = testbed.add_batch_workload(WorkloadSpec.heavy(), 5400.0)
                generator.listeners.append(jobs.append)
                generator.start(5400.0)
                testbed.engine.run(until=5400.0)
                return _job_stream(jobs), testbed._workload_rngs[0].bit_generator.state

        cursor = jobs_of(scalar=False)
        assert cursor[0] and cursor[0][0][1] >= 1800.0
        assert cursor == jobs_of(scalar=True)


def _profiles_under_test() -> dict:
    diurnal = DiurnalRateProfile(0.8, amplitude=0.4, period_seconds=5000.0, phase_seconds=700.0)
    bursty = BurstyRateProfile(diurnal, 20_000.0, seed=2, bursts_per_day=60.0)
    assert any(  # overlapping bursts exercise the furthest-end lookup
        s1 < e0 for (_, e0), (s1, _) in zip(bursty.burst_windows(), bursty.burst_windows()[1:])
    )
    modulated = ModulatedRateProfile(bursty, 20_000.0, seed=3, step_seconds=90.0)
    return {
        "diurnal": diurnal,
        "constant": DiurnalRateProfile(1.7, amplitude=0.0),
        "bursty": bursty,
        "bursty-none": BurstyRateProfile(diurnal, 20_000.0, seed=2, bursts_per_day=0.0),
        "modulated": modulated,
        "scaled": ScaledRateProfile(modulated, 0.35),
        "surge": SurgeRateProfile(
            ScaledRateProfile(modulated, 0.35),
            ((1000.0, 500.0, 3.0), (1500.0, 60.0, 0.5), (9000.0, 2000.0, 2.0)),
        ),
    }


@pytest.mark.parametrize("name", sorted(_profiles_under_test()))
def test_rates_match_scalar_formulas(name):
    """``rates`` evaluates each profile's scalar formula elementwise,
    window edges and instants outside the horizon included."""
    profile = _profiles_under_test()[name]
    edges = [1000.0, 1500.0, 1560.0, 9000.0, 11_000.0]
    times = np.concatenate(
        [np.linspace(-500.0, 25_000.0, 4001), edges, np.nextafter(edges, 0.0)]
    )
    expected = np.array([oracles.scalar_rate(profile, t) for t in times.tolist()])
    np.testing.assert_allclose(profile.rates(times), expected, rtol=1e-12, atol=0.0)
    assert [profile.rate(t) for t in edges] == profile.rates(np.array(edges)).tolist()


class TestArrivalStream:
    def test_one_pending_event_per_stream(self):
        """One pending entry per stream: the start event on the event
        heap, then each next job on the arrival queue."""
        engine = Engine()
        rng = np.random.default_rng(0)
        stream = ArrivalStream(engine, rng)
        for share in (0.2, 0.5, 0.3):
            BatchWorkloadGenerator(
                engine, _Sink(), ScaledRateProfile(_bursty(), share),
                rng=rng, stream=stream,
            ).start(20_000.0)
        assert engine.pending_count() == len(engine._heap) == 1
        engine.run(until=5000.0)
        assert engine.pending_count() == 1
        assert [entry[3] for entry in engine._arrivals] == [stream]

    def test_joining_a_stream_that_thinned_ahead_raises(self):
        engine = Engine()
        rng = np.random.default_rng(0)
        stream = ArrivalStream(engine, rng)
        sink = _Sink()
        BatchWorkloadGenerator(
            engine, sink, _bursty(), rng=rng, stream=stream
        ).start(20_000.0)
        engine.run(until=100.0)  # the next accepted arrival lies ahead
        late = BatchWorkloadGenerator(engine, sink, _bursty(), rng=rng, stream=stream)
        state = rng.bit_generator.state
        with pytest.raises(RuntimeError, match="drawn ahead"):
            late.start(20_000.0)
        assert rng.bit_generator.state == state

    def test_shared_stream_must_be_on_the_generators_rng(self):
        engine = Engine()
        stream = ArrivalStream(engine, np.random.default_rng(0))
        with pytest.raises(ValueError, match="same engine and rng"):
            BatchWorkloadGenerator(
                engine, _Sink(), DiurnalRateProfile(1.0, amplitude=0.0),
                rng=np.random.default_rng(0), stream=stream,
            )
