"""Tests for the cooling extension (thermal model + controller)."""

import numpy as np
import pytest

from repro.cluster.group import ServerGroup
from repro.cooling.controller import (
    CoolingController,
    CoolingControllerConfig,
    StaticWorstCaseCooling,
)
from repro.cooling.thermal import AIR_RHO_CP, CoolingUnit, ThermalParams
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.workload.generator import BatchWorkloadGenerator, ConstantRateProfile
from tests.conftest import make_servers


class TestThermalModel:
    def test_energy_balance(self):
        unit = CoolingUnit()
        unit.set_airflow(10.0)
        unit.set_supply_temperature(20.0)
        q = 60_000.0
        expected = 20.0 + q / (AIR_RHO_CP * 10.0)
        assert unit.outlet_temperature_c(q) == pytest.approx(expected)

    def test_more_airflow_cooler_outlet(self):
        unit = CoolingUnit()
        unit.set_airflow(10.0)
        hot = unit.outlet_temperature_c(100_000.0)
        unit.set_airflow(40.0)
        assert unit.outlet_temperature_c(100_000.0) < hot

    def test_fan_power_cubic(self):
        params = ThermalParams(max_airflow_m3s=40.0, fan_power_max_watts=8000.0)
        unit = CoolingUnit(params)
        unit.set_airflow(20.0)
        assert unit.fan_power_watts() == pytest.approx(8000.0 * 0.125)
        unit.set_airflow(40.0)
        assert unit.fan_power_watts() == pytest.approx(8000.0)

    def test_warmer_supply_improves_cop(self):
        unit = CoolingUnit()
        unit.set_supply_temperature(15.0)
        cold = unit.chiller_power_watts(100_000.0)
        unit.set_supply_temperature(25.0)
        assert unit.chiller_power_watts(100_000.0) < cold

    def test_violation_counting(self):
        unit = CoolingUnit()
        unit.set_airflow(1.0)  # starved airflow
        unit.evaluate(100_000.0, 60.0)
        assert unit.thermal_violations == 1
        unit.set_airflow(unit.params.max_airflow_m3s)
        unit.evaluate(100_000.0, 60.0)
        assert unit.thermal_violations == 1
        assert unit.evaluations == 2
        assert unit.cooling_energy_joules > 0

    def test_required_airflow_keeps_outlet_at_limit(self):
        unit = CoolingUnit()
        unit.set_supply_temperature(25.0)
        q = 80_000.0
        unit.set_airflow(unit.required_airflow(q))
        assert unit.outlet_temperature_c(q) == pytest.approx(
            unit.params.max_outlet_c
        )

    @pytest.mark.parametrize("airflow", [0.0, -1.0, 1000.0])
    def test_airflow_validation(self, airflow):
        with pytest.raises(ValueError):
            CoolingUnit().set_airflow(airflow)

    @pytest.mark.parametrize("supply", [5.0, 35.0])
    def test_supply_validation(self, supply):
        with pytest.raises(ValueError):
            CoolingUnit().set_supply_temperature(supply)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ThermalParams(max_airflow_m3s=0.0)
        with pytest.raises(ValueError):
            ThermalParams(min_supply_c=30.0)  # above inlet limit
        with pytest.raises(ValueError):
            ThermalParams(thermal_time_constant_s=-1.0)


class TestThermalInertia:
    def test_steady_state_mode_tracks_instantly(self):
        unit = CoolingUnit()
        unit.set_airflow(10.0)
        unit.evaluate(100_000.0, 60.0)
        assert unit.outlet_c == pytest.approx(unit.outlet_temperature_c(100_000.0))

    def test_lagged_response_approaches_steady_state(self):
        unit = CoolingUnit(ThermalParams(thermal_time_constant_s=600.0))
        unit.set_airflow(10.0)
        steady = unit.outlet_temperature_c(100_000.0)
        unit.evaluate(100_000.0, 60.0)
        first = unit.outlet_c
        assert first < steady  # still warming up
        for _ in range(100):
            unit.evaluate(100_000.0, 60.0)
        assert unit.outlet_c == pytest.approx(steady, abs=0.1)

    def test_exponential_step_response(self):
        tau = 300.0
        unit = CoolingUnit(ThermalParams(thermal_time_constant_s=tau))
        unit.set_airflow(10.0)
        start = unit.outlet_c
        steady = unit.outlet_temperature_c(100_000.0)
        unit.evaluate(100_000.0, tau)  # exactly one time constant
        expected = steady + (start - steady) * pytest.approx(0.3679, abs=1e-4).expected
        assert unit.outlet_c == pytest.approx(expected, rel=1e-3)

    def test_inertia_filters_transient_spike(self):
        """A one-minute power spike that would violate at steady state is
        absorbed by the thermal mass."""
        steady_unit = CoolingUnit()
        lagged_unit = CoolingUnit(ThermalParams(thermal_time_constant_s=900.0))
        for unit in (steady_unit, lagged_unit):
            unit.set_airflow(unit.required_airflow(80_000.0) * 1.05)
            for _ in range(10):
                unit.evaluate(80_000.0, 60.0)  # settle at nominal load
            unit.evaluate(150_000.0, 60.0)  # one-minute spike
        assert steady_unit.thermal_violations == 1
        assert lagged_unit.thermal_violations == 0


class Rig:
    """A loaded row with monitor, for cooling-control tests."""

    def __init__(self, n=40, utilization=0.3, seed=0):
        self.engine = Engine()
        servers = make_servers(n)
        self.scheduler = OmegaScheduler(
            self.engine, servers, rng=np.random.default_rng(seed)
        )
        self.group = ServerGroup("row", servers)
        self.monitor = PowerMonitor(self.engine, noise_sigma=0.0)
        self.monitor.register_group(self.group)
        rate = utilization * n * 16 / (1.8 * 540.0)
        self.generator = BatchWorkloadGenerator(
            self.engine, self.scheduler, ConstantRateProfile(rate),
            rng=np.random.default_rng(seed + 1),
        )

    def run(self, hours, controller):
        horizon = hours * 3600.0
        self.generator.start(horizon)
        self.monitor.start(horizon)
        controller.start(horizon)
        self.engine.run(until=horizon)


class TestCoolingController:
    def test_no_thermal_violations_under_varying_load(self):
        rig = Rig()
        unit = CoolingUnit()
        controller = CoolingController(rig.engine, rig.monitor, rig.group, unit)
        rig.run(4.0, controller)
        assert unit.thermal_violations == 0
        assert controller.ticks > 200

    def test_saves_energy_vs_static_worst_case(self):
        adaptive_rig = Rig(seed=5)
        adaptive_unit = CoolingUnit()
        adaptive = CoolingController(
            adaptive_rig.engine, adaptive_rig.monitor, adaptive_rig.group, adaptive_unit
        )
        adaptive_rig.run(4.0, adaptive)

        static_rig = Rig(seed=5)
        static_unit = CoolingUnit()
        static = StaticWorstCaseCooling(static_rig.engine, static_rig.group, static_unit)
        static_rig.run(4.0, static)

        assert static_unit.thermal_violations == 0
        assert adaptive_unit.thermal_violations == 0
        assert adaptive_unit.cooling_energy_joules < 0.8 * static_unit.cooling_energy_joules

    def test_cooling_power_series_recorded(self):
        rig = Rig()
        unit = CoolingUnit()
        controller = CoolingController(rig.engine, rig.monitor, rig.group, unit)
        rig.run(1.0, controller)
        times, values = rig.monitor.db.query("cooling_power/row")
        assert len(times) > 30
        assert (values > 0).all()

    def test_assumes_worst_case_before_first_sample(self):
        rig = Rig()
        unit = CoolingUnit()
        controller = CoolingController(rig.engine, rig.monitor, rig.group, unit)
        controller.tick()  # no monitor sample yet
        # Airflow sized for rated power (plus margin, maybe clamped to max).
        assert unit.airflow_m3s >= min(
            unit.params.max_airflow_m3s,
            unit.required_airflow(rig.group.rated_watts()),
        ) - 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoolingControllerConfig(control_interval=0.0)
        with pytest.raises(ValueError):
            CoolingControllerConfig(min_airflow_fraction=0.0)
