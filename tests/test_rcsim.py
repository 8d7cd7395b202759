"""Thermal simulator: control law, AHU load, energy accounting, dynamics."""

import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from bemopt import rcsim
from bemopt import schema as sc
from bemopt.seeding import stream, substream
from bemopt.training import sample_episode_config
from bemopt.weather import generate_pool
from tests.conftest import channel, constant_occ, t_int
from tests.test_schema import default_bms, default_building, synthetic_weather


def constant_weather(tamb, iglob=0.0, rhum=50.0):
    data = np.zeros((168, 7))
    data[:, sc.WEATHER_CHANNELS.index("TAMB")] = tamb
    data[:, sc.WEATHER_CHANNELS.index("RHUM")] = rhum
    data[:, sc.WEATHER_CHANNELS.index("IGLOB_H")] = iglob
    if iglob:
        data[:, sc.WEATHER_CHANNELS.index("IDIFF_H")] = iglob
    return sc.WeatherSeries(data)


def winter_weather():
    hours = np.arange(168)
    tamb = 2.0 + 3.0 * np.sin(2 * np.pi * (hours % 24 - 14) / 24)
    elev = np.maximum(0.0, np.sin(np.pi * (hours % 24 - 8) / 8))
    data = np.zeros((168, 7))
    data[:, sc.WEATHER_CHANNELS.index("TAMB")] = tamb
    data[:, sc.WEATHER_CHANNELS.index("RHUM")] = 75.0
    data[:, sc.WEATHER_CHANNELS.index("IGLOB_H")] = 180.0 * elev
    data[:, sc.WEATHER_CHANNELS.index("IDIFF_H")] = 120.0 * elev
    data[:, sc.WEATHER_CHANNELS.index("IBEAM_H")] = 60.0 * elev
    data[:, sc.WEATHER_CHANNELS.index("DNI")] = 200.0 * elev
    data[:, sc.WEATHER_CHANNELS.index("IBEAM_N")] = 200.0 * elev
    return sc.WeatherSeries(data)


def quiet_building(**overrides):
    """Building with no internal gains and no HVAC capacity."""
    base = dict(
        airchange_infiltration_vol_per_h=0.3,
        capacitance_kJ_perdegreK_perm3=100,
        power_VCV_kW_heat=0,
        power_VCV_kW_clim=0,
        nb_occupants=0,
        nb_PCs=0,
        percent_light_night=0,
        percent_PCs_night=0,
        facade_1_thickness_2=0.1,
        facade_2_thickness_2=0.1,
        facade_3_thickness_2=0.1,
        facade_4_thickness_2=0.1,
        roof_1_thickness_3=0.1,
        facade_1_window_area_percent=45,
        facade_2_window_area_percent=45,
        facade_3_window_area_percent=45,
        facade_4_window_area_percent=45,
    )
    base.update(overrides)
    return sc.BuildingParams.from_dict(base)


OCC = constant_occ(8, 18)


INF = math.inf


def setpoints(bms, hour):
    """(heating setpoint, cooling threshold) at one hour of `week_schedule`."""
    table = rcsim.week_schedule(bms, constant_weather(10.0))
    return table.heat_sp[hour], table.cool_threshold[hour]


def ahu(bms, weather, hour, cfg=rcsim.DEFAULT_RC_CONFIG):
    """(Q_AHU_H, Q_AHU_C) at one hour of `week_schedule`."""
    table = rcsim.week_schedule(bms, weather, cfg)
    return table.q_ahu_h[hour], table.q_ahu_c[hour]


class TestHvacControl:
    """The setpoint schedule (`week_schedule`) and the proportional law."""

    def test_zero_demand_at_setpoint(self):
        heat_sp, cool_threshold = setpoints(default_bms(), 30)  # Tuesday 06:00, outside heat window
        assert rcsim.proportional(50.0, heat_sp - 22.0, INF) == 0.0
        assert rcsim.proportional(50.0, 22.0 - cool_threshold, INF) == 0.0

    def test_setpoint_outside_heat_schedule_is_reduced(self):
        bms = default_bms(start_heat_day=7, end_heat_day=18, t_heat_red_day=18, t_heat_conf_day=22)
        assert setpoints(bms, 5)[0] == 18.0  # Monday 05:00
        assert setpoints(bms, 7)[0] == 22.0  # window start is inclusive
        assert setpoints(bms, 18)[0] == 18.0  # window end is exclusive

    def test_demand_clipped_to_cap(self):
        heat_sp, _ = setpoints(default_bms(t_heat_conf_day=22), 8)
        assert rcsim.proportional(100.0, heat_sp - 12.0, 800.0) == 800.0  # min(100 kW/°C × 10 °C, 800 kW)
        assert rcsim.proportional(100.0, heat_sp - 12.0, 2000.0) == 1000.0

    def test_deadband_separates_bands(self):
        # cooling comfort setpoint below heating comfort: threshold must shift
        bms = default_bms(t_clim_conf_day=20, t_heat_conf_day=24)
        heat_sp, cool_threshold = setpoints(bms, 9)  # inside both windows on Monday
        assert rcsim.proportional(50.0, heat_sp - 24.2, INF) == 0.0
        assert rcsim.proportional(50.0, 24.2 - cool_threshold, INF) == 0.0
        assert rcsim.proportional(50.0, 25.0 - cool_threshold, INF) == pytest.approx(50.0 * (25.0 - 24.5))
        assert cool_threshold == 24.5
        assert rcsim.proportional(50.0, heat_sp - 23.0, INF) == pytest.approx(50.0)
        assert rcsim.proportional(50.0, 23.0 - cool_threshold, INF) == 0.0

    def test_at_most_one_branch_active(self):
        table = rcsim.week_schedule(default_bms(), constant_weather(10.0))
        rng = stream(2, "hvac-prop")
        for _ in range(200):
            t = rng.uniform(10, 35)
            hour = int(rng.integers(0, 168))
            heat = rcsim.proportional(50.0, table.heat_sp[hour] - t, INF)
            cool = rcsim.proportional(50.0, t - table.cool_threshold[hour], INF)
            assert min(heat, cool) == 0.0
            assert heat >= 0.0 and cool >= 0.0


class TestAhuLoad:
    """The AHU load formula (`week_schedule`)."""

    def test_no_lift_no_load(self):
        bms = default_bms(t_ventilation_day=18)
        w = constant_weather(18.0)
        assert ahu(bms, w, 10) == (0.0, 0.0)

    def test_zero_outside_schedule(self):
        bms = default_bms(start_ventilation_day=8, end_ventilation_day=19, t_ventilation_day=21)
        w = constant_weather(5.0)
        assert ahu(bms, w, 7) == (0.0, 0.0)
        assert ahu(bms, w, 19) == (0.0, 0.0)
        assert ahu(bms, w, 10)[0] > 0.0

    def test_hand_computed_heating_load(self):
        cfg = rcsim.DEFAULT_RC_CONFIG
        bms = default_bms(t_ventilation_day=20, vol_ventilation_day=1.0)
        w = constant_weather(10.0)
        q_h, q_c = ahu(bms, w, 9, cfg)
        expected = cfg.air_heat_capacity_kj_m3k * 1.0 * cfg.volume_m3 / 3600.0 * (20.0 - 10.0)
        assert q_h == pytest.approx(expected, rel=1e-12)
        assert q_c == 0.0

    def test_cooling_branch_when_outside_air_is_hot(self):
        cfg = rcsim.DEFAULT_RC_CONFIG
        bms = default_bms(t_ventilation_day=20, vol_ventilation_day=1.0)
        w = constant_weather(30.0)
        q_h, q_c = ahu(bms, w, 9, cfg)
        expected = cfg.air_heat_capacity_kj_m3k * cfg.volume_m3 / 3600.0 * 10.0
        assert q_c == pytest.approx(expected, rel=1e-12)
        assert q_h == 0.0


def hour_by_hour(bms, weather, hour, cfg):
    """One hour of `week_schedule`, each rule applied to that hour alone."""
    day, hod = divmod(hour, 24)

    def scheduled(start, end):
        return start[day] <= hod < end[day]

    heat_sp = (bms.t_heat_conf_day if scheduled(bms.start_heat_day, bms.end_heat_day)
               else bms.t_heat_red_day)[day]
    cool_sp = (bms.t_clim_conf_day if scheduled(bms.start_clim_day, bms.end_clim_day)
               else bms.t_clim_red_day)[day]
    t_vent = bms.t_ventilation_day[day]
    g_vent, q_h, q_c = 0.0, 0.0, 0.0
    if scheduled(bms.start_ventilation_day, bms.end_ventilation_day):
        g_vent = cfg.air_heat_capacity_kj_m3k * bms.vol_ventilation_day[day] * cfg.volume_m3 / 3600.0
        lift = t_vent - float(weather.tamb[hour])
        if lift > 0:
            q_h = g_vent * lift
        else:
            q_c = -g_vent * lift
    return heat_sp, max(cool_sp, heat_sp + cfg.deadband_k), g_vent, t_vent, q_h, q_c


def random_bms(rng):
    """Daily windows with whole- and half-hour bounds, and bands that may cross."""
    def window():
        start = rng.integers(0, 40, 7) / 2.0
        return start, start + rng.integers(1, 49 - 2 * start) / 2.0

    (s_c, e_c), (s_h, e_h), (s_v, e_v) = window(), window(), window()
    t_heat_red = rng.integers(30, 44, 7) / 2.0
    return sc.BmsSchedule(
        start_clim_day=s_c, end_clim_day=e_c,
        t_clim_red_day=rng.integers(44, 60, 7) / 2.0, t_clim_conf_day=rng.integers(38, 52, 7) / 2.0,
        start_heat_day=s_h, end_heat_day=e_h,
        t_heat_red_day=t_heat_red, t_heat_conf_day=t_heat_red + rng.integers(0, 12, 7) / 2.0,
        start_ventilation_day=s_v, end_ventilation_day=e_v,
        t_ventilation_day=rng.integers(36, 52, 7) / 2.0, vol_ventilation_day=rng.uniform(0.7, 1.7, 7),
    )


def test_week_schedule_equals_the_hour_by_hour_rules():
    cfg = rcsim.DEFAULT_RC_CONFIG
    rng = stream(13, "week-schedule")
    first_last = set()  # (window, "first"/"last") hours met inside a window
    branches = set()
    for _ in range(40):
        bms = random_bms(rng)
        weather = synthetic_weather(rng)
        data = weather.data.copy()
        # some hours have no lift at all: the AHU's cooling branch at zero
        tamb = data[:, sc.WEATHER_CHANNELS.index("TAMB")]
        tamb[::7] = np.repeat(bms.t_ventilation_day, 24)[::7]
        weather = sc.WeatherSeries(data)
        table = rcsim.week_schedule(bms, weather, cfg)
        assert all(len(column) == 168 for column in table)
        for hour in range(168):
            want = hour_by_hour(bms, weather, hour, cfg)
            got = tuple(column[hour] for column in table)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (hour, got, want)
            day, hod = divmod(hour, 24)
            for name in ("clim", "heat", "ventilation"):
                start = getattr(bms, f"start_{name}_day")[day]
                end = getattr(bms, f"end_{name}_day")[day]
                if hod == start:
                    first_last.add((name, "first"))
                if hod < end <= hod + 1 and hod >= start:
                    first_last.add((name, "last"))
            branches.add(("threshold is the deadband floor", want[1] == want[0] + cfg.deadband_k))
            if want[2]:
                branches.add(("ahu", "heat" if want[4] else "cool" if want[5] else "none"))
    assert len(first_last) == 6
    assert {("threshold is the deadband floor", True), ("threshold is the deadband floor", False),
            ("ahu", "heat"), ("ahu", "cool"), ("ahu", "none")} <= branches


class TestEquilibrium:
    def test_no_drivers_means_constant_state(self):
        t = 15.0
        # lighting runs off the fixed config, so a truly driver-free case
        # zeroes it there
        cfg = rcsim.RcModelConfig(ground_temp_c=t, light_w_m2=0.0)
        params = quiet_building()
        bms = default_bms(t_ventilation_day=t)
        occ = constant_occ(8, 18)
        res = rcsim.simulate_week_detailed(params, bms, occ, constant_weather(t), cfg, t0=t)
        out = res.output
        np.testing.assert_allclose(t_int(out), t, rtol=0, atol=1e-9)
        q = np.delete(out.data, sc.T_INT_INDEX, axis=1)
        np.testing.assert_allclose(q, 0.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.t_air, t, rtol=0, atol=1e-9)


class TestInternalGains:
    def test_people_gain_is_count_times_unit_gain(self):
        params = quiet_building(nb_occupants=1500)
        out = rcsim.simulate_week(params, default_bms(), OCC, winter_weather())
        occupied = sc.expand_daily(OCC) > 0
        q_people = channel(out, "Q_PEOPLE")
        assert np.all(q_people[occupied] == pytest.approx(150.0))  # 1500 × 100 W
        assert np.all(q_people[~occupied] == 0.0)

    def test_night_fractions_scale_equipment_and_light(self):
        cfg = rcsim.DEFAULT_RC_CONFIG
        params = quiet_building(nb_PCs=1000, percent_PCs_night=30, percent_light_night=10)
        out = rcsim.simulate_week(params, default_bms(), OCC, winter_weather())
        occupied = sc.expand_daily(OCC) > 0
        q_eqp = channel(out, "Q_EQP")
        q_day = 1000 * cfg.pc_gain_w / 1000.0
        assert np.all(q_eqp[occupied] == pytest.approx(q_day))
        assert np.all(q_eqp[~occupied] == pytest.approx(0.3 * q_day))
        q_light = channel(out, "Q_LIGHT")
        full = cfg.light_w_m2 * cfg.floor_area_m2 / 1000.0
        assert np.all(q_light[occupied] == pytest.approx(full))
        assert np.all(q_light[~occupied] == pytest.approx(0.1 * full))


def hand_conductances(params: sc.BuildingParams, cfg: rcsim.RcModelConfig):
    """Independent re-derivation of the envelope conductances (kW/K)."""
    wf = [p / 100.0 for p in (
        params.facade_1_window_area_percent, params.facade_2_window_area_percent,
        params.facade_3_window_area_percent, params.facade_4_window_area_percent)]
    th = (params.facade_1_thickness_2, params.facade_2_thickness_2,
          params.facade_3_thickness_2, params.facade_4_thickness_2)
    areas = cfg.facade_areas_m2
    window_area = sum(a * w for a, w in zip(areas, wf))
    g_win = cfg.window_u_w_m2k * window_area / 1000.0
    g_inf = cfg.air_heat_capacity_kj_m3k * params.airchange_infiltration_vol_per_h * cfg.volume_m3 / 3600.0
    u_op = [1.0 / (cfg.base_resistance_m2k_w + t / cfg.insulation_lambda_w_mk) for t in th]
    u_roof = 1.0 / (cfg.base_resistance_m2k_w + params.roof_1_thickness_3 / cfg.insulation_lambda_w_mk)
    opaque = [a * (1 - w) for a, w in zip(areas, wf)]
    g_om = (sum(a * u for a, u in zip(opaque, u_op))
            + cfg.wall5_u_w_m2k * cfg.wall5_area_m2 + u_roof * cfg.roof_area_m2) / 1000.0
    g_gnd = cfg.ground_u_w_m2k * cfg.ground_area_m2 / 1000.0
    g_ma = cfg.film_w_m2k * (sum(opaque) + cfg.wall5_area_m2 + cfg.roof_area_m2 + cfg.ground_area_m2) / 1000.0
    return g_win, g_inf, g_om, g_gnd, g_ma


class TestSteadyState:
    def test_heater_power_matches_analytic_fixed_point(self):
        sp, gain = 22.0, 1e5
        cfg = rcsim.RcModelConfig(ground_temp_c=0.0, hvac_gain_kw_k=gain, light_w_m2=0.0)
        params = quiet_building(capacitance_kJ_perdegreK_perm3=50, power_VCV_kW_heat=1e9)
        # continuous comfort setpoint and always-on ventilation at supply = TAMB = 0
        bms = dataclasses.replace(
            default_bms(),
            start_heat_day=[0] * 7, end_heat_day=[24] * 7,
            t_heat_conf_day=[sp] * 7, t_heat_red_day=[sp] * 7,
            start_ventilation_day=[0] * 7, end_ventilation_day=[24] * 7,
            t_ventilation_day=[0.0] * 7, vol_ventilation_day=[1.0] * 7,
            t_clim_red_day=[30] * 7,
        )
        occ = constant_occ(8, 18)
        out = rcsim.simulate_week(params, bms, occ, constant_weather(0.0), cfg, t0=sp)
        g_win, g_inf, g_om, g_gnd, g_ma = hand_conductances(params, cfg)
        g_vent = cfg.air_heat_capacity_kj_m3k * 1.0 * cfg.volume_m3 / 3600.0
        g_series = g_ma * (g_om + g_gnd) / (g_ma + g_om + g_gnd)
        g_tot = g_win + g_inf + g_vent + g_series  # envelope UA seen by the heater
        q_star = gain * sp * g_tot / (gain + g_tot)  # proportional droop included
        t_star = gain * sp / (gain + g_tot)
        q_sim = channel(out, "Q_HEAT_OFFICE")[-1]
        assert q_sim == pytest.approx(q_star, rel=1e-6)
        assert t_int(out)[-1] == pytest.approx(t_star, rel=1e-9)
        # high-gain limit: heater power = envelope UA × (setpoint − TAMB)
        assert q_sim == pytest.approx(g_tot * (sp - 0.0), rel=1e-3)


def max_relative_error(ledger: rcsim.EnergyLedger) -> float:
    """Largest hourly mismatch between stored-energy change and integrated
    flux, relative to the hour's total energy movement."""
    num = np.abs(ledger.air_delta - ledger.air_flux) + np.abs(ledger.mass_delta - ledger.mass_flux)
    scale = np.maximum(
        1e-9,
        np.abs(ledger.air_flux) + np.abs(ledger.mass_flux)
        + np.abs(ledger.air_delta) + np.abs(ledger.mass_delta),
    )
    return float(np.max(num / scale))


class TestSimulationContracts:
    def _episode(self, **overrides):
        params = default_building(**overrides)
        return params, default_bms(), constant_occ(8, 18)

    def test_energy_balance_per_hour(self):
        params, bms, occ = self._episode()
        res = rcsim.simulate_week_detailed(params, bms, occ, winter_weather())
        assert max_relative_error(res.ledger) < 1e-6

    def test_energy_balance_generic_weather(self):
        params, bms, occ = self._episode(capacitance_kJ_perdegreK_perm3=250)
        res = rcsim.simulate_week_detailed(params, bms, occ, synthetic_weather(stream(9, "w")))
        assert max_relative_error(res.ledger) < 1e-6

    def test_actuator_saturation(self):
        params, bms, occ = self._episode(power_VCV_kW_heat=300, power_VCV_kW_clim=200)
        out = rcsim.simulate_week(params, bms, occ, constant_weather(-10.0), t0=10.0)
        qh = channel(out, "Q_HEAT_OFFICE")
        assert qh.max() <= 300.0 + 1e-12
        assert qh.max() == pytest.approx(300.0)  # cold snap saturates the heater

    def test_heating_cooling_mutually_exclusive_each_hour(self):
        params, bms, occ = self._episode(power_VCV_kW_heat=800, power_VCV_kW_clim=800)
        hours = np.arange(168)
        swing = 12.0 + 14.0 * np.sin(2 * np.pi * (hours % 24 - 14) / 24)  # 26 °C afternoons
        data = np.zeros((168, 7))
        data[:, sc.WEATHER_CHANNELS.index("TAMB")] = swing
        data[:, sc.WEATHER_CHANNELS.index("RHUM")] = 60.0
        data[:, sc.WEATHER_CHANNELS.index("IGLOB_H")] = 400 * np.maximum(
            0, np.sin(np.pi * (hours % 24 - 7) / 10))
        w = sc.WeatherSeries(data)
        out = rcsim.simulate_week(params, bms, occ, w)
        qh, qc = channel(out, "Q_HEAT_OFFICE"), channel(out, "Q_AC_OFFICE")
        assert qh.max() > 0 and qc.max() > 0  # both regimes exercised
        assert np.all(np.minimum(qh, qc) == 0.0)

    def test_determinism(self):
        params, bms, occ = self._episode()
        w = synthetic_weather(stream(5, "w"))
        a = rcsim.simulate_week(params, bms, occ, w)
        b = rcsim.simulate_week(params, bms, occ, w)
        np.testing.assert_array_equal(a.data, b.data)

    def test_raising_heat_setpoint_never_reduces_weekly_heating(self):
        params, bms, occ = self._episode()
        w = winter_weather()
        totals = []
        for sp in (22.0, 22.5, 23.0, 23.5, 24.0):
            b = dataclasses.replace(bms, t_heat_conf_day=[sp] * 7)
            totals.append(channel(rcsim.simulate_week(params, b, occ, w), "Q_HEAT_OFFICE").sum())
        assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))
        assert totals[-1] > totals[0]

    def test_nonfinite_initial_state_aborts_with_hour(self):
        params, bms, occ = self._episode()
        with pytest.raises(rcsim.NumericalError, match="hour 0"):
            rcsim.simulate_week(params, bms, occ, winter_weather(), t0=float("nan"))

    def test_numerical_error_survives_pickling(self):
        # labeling workers send their exceptions to the parent process pickled
        err = pickle.loads(pickle.dumps(rcsim.NumericalError(7, "T_air left the band")))
        assert type(err) is rcsim.NumericalError
        assert err.hour == 7 and str(err) == "hour 7: T_air left the band"

    def test_sanity_band_abort_reports_hour(self):
        params, bms, occ = self._episode(power_VCV_kW_heat=0, power_VCV_kW_clim=0)
        with pytest.raises(rcsim.NumericalError) as err:
            rcsim.simulate_week(params, bms, occ, constant_weather(75.0, rhum=30.0), t0=59.0)
        assert err.value.hour >= 0
        assert f"hour {err.value.hour}" in str(err.value)


def reference_hour0_heat(params, bms, occ, weather, t0, cfg=rcsim.DEFAULT_RC_CONFIG,
                         steps=1000):
    """Hour-0 mean heating power (kW) by classical RK4 at dt = 1/steps hours.

    Integrates the two-node balance with the heating law latched at the hour
    start, q = clip(gain * (sp - T_air), 0, cap), independently of the
    simulator's exact exponential segments and event handling. Hour 0 must
    be unventilated and unoccupied, so the forcing reduces to ambient, solar
    and the night share of the internal gains.
    """
    assert bms.start_ventilation_day[0] > 0 and occ.start_occupation[0] > 0
    g_win, g_inf, g_om, g_gnd, g_ma = hand_conductances(params, cfg)
    c_air = cfg.air_heat_capacity_kj_m3k * cfg.volume_m3 / 3600.0
    c_mass = params.capacitance_kJ_perdegreK_perm3 * cfg.volume_m3 / 3600.0
    window_area = sum(a * w for a, w in zip(cfg.facade_areas_m2, params.window_fractions))
    q_sol = cfg.solar_projection * cfg.shgc * window_area / 1000.0 * weather.channel("IGLOB_H")[0]
    q_int = (params.nb_PCs * cfg.pc_gain_w / 1000.0 * params.percent_PCs_night / 100.0
             + cfg.light_w_m2 * cfg.floor_area_m2 / 1000.0 * params.percent_light_night / 100.0)
    tamb, tg, f_air = weather.tamb[0], cfg.ground_temp_c, cfg.solar_air_fraction
    gain, cap = cfg.hvac_gain_kw_k, params.power_VCV_kW_heat
    sp = bms.t_heat_red_day[0] if bms.start_heat_day[0] > 0 else bms.t_heat_conf_day[0]
    assert gain * (sp - t0) > 0  # the hour latches the heating branch

    def rhs(y):
        ta, tm, _ = y
        q = min(max(gain * (sp - ta), 0.0), cap)
        return np.array([
            ((g_win + g_inf) * (tamb - ta) + g_ma * (tm - ta) + q_int + f_air * q_sol + q) / c_air,
            (g_ma * (ta - tm) + g_om * (tamb - tm) + g_gnd * (tg - tm) + (1 - f_air) * q_sol) / c_mass,
            q,
        ])

    dt = 1.0 / steps
    y = np.array([t0, t0, 0.0])
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[2]  # kWh over one hour = mean kW


# Seed-11 episodes (of 0..299 on generate_pool(0, 30)) whose hour 0 starts with
# the heater exactly on its saturation level at t0 = 20 °C.
ON_LEVEL_EPISODES = (1, 35, 91, 116, 140, 197, 214)


def _corpus_episode(i):
    params, bms, occ, week = sample_episode_config(
        sc.DEFAULT_SCHEMA, 30, substream(11, "episode", i))
    return params, bms, occ, generate_pool(0, 30)[week]


class TestFineStepReference:
    """Hour-0 heating against an independent RK4 integration of the same law."""

    def test_reference_agrees_when_hour_starts_off_the_saturation_level(self):
        # a 100 kW heater and a 22 °C reduced Monday setpoint: saturated from 20 °C down
        params, bms, occ, weather = _corpus_episode(1)
        assert params.power_VCV_kW_heat == 100.0 and bms.t_heat_red_day[0] == 22.0
        for t0 in (19.0, 19.5, 20.5, 21.0):
            sim = channel(rcsim.simulate_week(params, bms, occ, weather, t0=t0), "Q_HEAT_OFFICE")[0]
            ref = reference_hour0_heat(params, bms, occ, weather, t0)
            assert sim == pytest.approx(ref, rel=1e-4), t0

    @pytest.mark.parametrize("episode", ON_LEVEL_EPISODES)
    def test_hour_starting_on_the_saturation_level_matches_reference(self, episode):
        params, bms, occ, weather = _corpus_episode(episode)
        cfg = rcsim.DEFAULT_RC_CONFIG
        heat_sp = rcsim.week_schedule(bms, weather, cfg).heat_sp[0]
        heat_kw = rcsim.proportional(cfg.hvac_gain_kw_k, heat_sp - 20.0, params.power_VCV_kW_heat)
        assert heat_kw == params.power_VCV_kW_heat > 0  # saturated at t0 ...
        assert 20.0 == heat_sp - heat_kw / cfg.hvac_gain_kw_k  # ... exactly on the level
        sim = channel(rcsim.simulate_week(params, bms, occ, weather, t0=20.0), "Q_HEAT_OFFICE")[0]
        ref = reference_hour0_heat(params, bms, occ, weather, 20.0)
        assert sim == pytest.approx(ref, rel=1e-9)


def random_segment(rng, kind):
    """Arguments of one crossing search: T_air(s) = xsa + c1·exp(l1·s) + c2·exp(l2·s)
    on (0, s_max], and one or two levels.

    ``interior``: both ends lie on one side of the first level and the
    interior extremum on the other. ``on_level``: the segment starts on it.
    """
    l1 = -rng.uniform(0.05, 5.0)
    l2 = l1 - rng.uniform(0.5, 80.0)
    s_max = rng.uniform(1e-3, 1.0)
    xsa = rng.uniform(5.0, 35.0)
    c1 = rng.normal(0.0, 3.0)
    if kind == "interior":
        s_ext = rng.uniform(0.1, 0.9) * s_max  # choose c2 so that T_air' vanishes here
        c2 = -c1 * l1 * math.exp((l1 - l2) * s_ext) / l2
    else:
        c2 = rng.normal(0.0, 3.0)

    def ta(s):
        return xsa + c1 * math.exp(l1 * s) + c2 * math.exp(l2 * s)

    ta_start, ta_end = xsa + c1 + c2, ta(s_max)
    skip_level = None
    if kind == "interior":
        t_ext = ta(s_ext)
        near = min((ta_start, ta_end), key=lambda t: abs(t - t_ext))
        level = t_ext + rng.uniform(0.05, 0.95) * (near - t_ext)
        assert (ta_start - level) * (ta_end - level) > 0 and (t_ext - level) * (near - level) < 0
    elif kind == "on_level":
        level = skip_level = ta_start
    else:
        level = rng.uniform(min(ta_start, ta_end) - 1.0, max(ta_start, ta_end) + 1.0)
    levels = (level,) if rng.random() < 0.5 else (level, rng.uniform(xsa - 10.0, xsa + 10.0))
    return (c1, c2, l1, l2, xsa, s_max, ta_start, ta_end, levels, skip_level)


def test_crossing_screen_returns_what_the_full_search_returns():
    rng = stream(17, "crossing-screen")
    hits = {"interior": 0, "on_level": 0, "random": 0}
    misses = 0
    for kind in ("interior", "on_level", "random") * 700:
        args = random_segment(rng, kind)
        want = rcsim._earliest_crossing(*args)
        assert rcsim._crossing(*args) == want, (kind, args)
        if want is None:
            misses += 1
        else:
            hits[kind] += 1
    # every interior case crosses its first level, which a screen that looks
    # only at the segment's ends would miss
    assert hits["interior"] == 700
    assert min(hits.values()) > 0 and misses > 0


def test_crossing_screen_on_simulated_segments(monkeypatch):
    """Every search of three simulated weeks, one starting on a saturation level."""
    calls = []
    screened = rcsim._crossing

    def record(*args):
        calls.append(args)
        return screened(*args)

    monkeypatch.setattr(rcsim, "_crossing", record)
    for episode in (1, 2, 3):
        params, bms, occ, weather = _corpus_episode(episode)
        rcsim.simulate_week(params, bms, occ, weather)
    assert any(args[-1] is not None for args in calls)
    results = [screened(*args) for args in calls]
    assert results == [rcsim._earliest_crossing(*args) for args in calls]
    assert any(r is not None for r in results)


def test_each_hour_is_one_segment_split_only_at_control_events(monkeypatch):
    """Over the golden weeks, an hour with a latched mode runs the crossing
    search once per segment: once without a control event, at most once more
    per event with them; an hour with no mode latched runs it never."""
    found = []  # per search: whether it found a control event
    ends = []  # len(found) at each `_check_state`: the start state, then each hour's end
    screened, check = rcsim._crossing, rcsim._check_state

    def record(*args):
        hit = screened(*args)
        found.append(hit is not None)
        return hit

    def mark(hour, t_air, t_mass):
        ends.append(len(found))
        check(hour, t_air, t_mass)

    monkeypatch.setattr(rcsim, "_crossing", record)
    monkeypatch.setattr(rcsim, "_check_state", mark)
    cfg = rcsim.DEFAULT_RC_CONFIG
    tally = {"quiet": 0, "one search": 0, "events": 0}
    for _, params, bms, occ, weather, t0 in _golden_cases():
        found.clear()
        ends.clear()
        t_air = rcsim.simulate_week_detailed(params, bms, occ, weather, t0=t0).t_air
        table = rcsim.week_schedule(bms, weather, cfg)
        assert len(ends) == 169
        for hour, (lo, hi) in enumerate(zip(ends, ends[1:])):
            latched = (rcsim.proportional(cfg.hvac_gain_kw_k, table.heat_sp[hour] - t_air[hour],
                                          params.power_VCV_kW_heat) > 0
                       or rcsim.proportional(cfg.hvac_gain_kw_k, t_air[hour] - table.cool_threshold[hour],
                                             params.power_VCV_kW_clim) > 0)
            searches, events = hi - lo, sum(found[lo:hi])
            if not latched:
                assert searches == 0, hour
                tally["quiet"] += 1
            elif events == 0:
                assert searches == 1, hour
                tally["one search"] += 1
            else:
                assert 1 <= searches <= 1 + events, (hour, searches, events)
                tally["events"] += 1
    assert min(tally.values()) > 0, tally


# sha256 over the golden runs that start off any control level, recorded when
# each hour became one segment split only at control events (the same bits as
# the earlier six-sub-step loop run at one sub-step per hour).
GOLDEN_SHA256 = "11e1121c5d269a21c769ab754077881d1a872d7d415b4d1a0cc59db9e6bab1ca"
# sha256 over the golden runs whose hour 0 starts on the heater's saturation
# level, with the boundary rule applied at every segment start; recorded at the
# same change.
ON_LEVEL_SHA256 = "0cad946338398fcf72910cbb28b98b6fc063d8bfeb231a643c181fae0675ea97"


def _golden_cases():
    """(starts_on_level, params, bms, occ, weather, t0) runs the digests cover."""
    pool = generate_pool(0, 30)
    episodes = [sample_episode_config(sc.DEFAULT_SCHEMA, 30, substream(11, "episode", i))
                for i in range(200)]
    cases = [(i, p, b, o, pool[w], 20.0) for i, (p, b, o, w) in enumerate(episodes)]
    p, b, o, w = episodes[1]
    cases += [(1, p, b, o, pool[w], t0) for t0 in (19.0, 19.5, 20.0, 20.5, 21.0)]
    return [(i in ON_LEVEL_EPISODES and t0 == 20.0, p, b, o, w, t0)
            for i, p, b, o, w, t0 in cases]


def _golden_digest(on_level: bool) -> str:
    digest = hashlib.sha256()
    for starts_on_level, params, bms, occ, weather, t0 in _golden_cases():
        if starts_on_level != on_level:
            continue
        res = rcsim.simulate_week_detailed(params, bms, occ, weather, t0=t0)
        ledger = res.ledger
        for arr in (res.output.data, res.t_air, res.t_mass, ledger.air_delta, ledger.air_flux,
                    ledger.mass_delta, ledger.mass_flux):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_simulator_output_is_pinned_bit_for_bit():
    """sha256 of every output, both traces and the ledger over a fixed corpus.

    Any change to the float operations or their order moves it (and so would
    a libm whose exp or log rounds differently). The corpus covers hours with
    control events and episode 1 at start temperatures next to its
    saturation level.
    """
    assert _golden_digest(on_level=False) == GOLDEN_SHA256


def test_runs_starting_on_the_saturation_level_are_pinned_bit_for_bit():
    """The same digest over episodes 1, 35, 91, 116, 140 and 197 at t0 = 20 °C."""
    assert _golden_digest(on_level=True) == ON_LEVEL_SHA256


def test_both_simulator_paths_give_the_same_bits():
    """`simulate_week` skips the ledger and the traces; its outputs are the
    detailed path's, bit for bit, on every run either digest covers."""
    for _, params, bms, occ, weather, t0 in _golden_cases():
        fast = rcsim.simulate_week(params, bms, occ, weather, t0=t0).data
        detailed = rcsim.simulate_week_detailed(params, bms, occ, weather, t0=t0).output.data
        assert fast.tobytes() == detailed.tobytes()


@pytest.mark.parametrize("heat_kw, weather, t0", [
    (0, constant_weather(75.0, rhum=30.0), 59.0),  # driven out of the sanity band
    (600, winter_weather(), float("nan")),  # non-finite start
])
def test_both_simulator_paths_fail_at_the_same_hour(heat_kw, weather, t0):
    params = default_building(power_VCV_kW_heat=heat_kw, power_VCV_kW_clim=0)
    bms, occ = default_bms(), constant_occ(8, 18)
    errors = []
    for simulate in (rcsim.simulate_week, rcsim.simulate_week_detailed):
        with pytest.raises(rcsim.NumericalError) as err:
            simulate(params, bms, occ, weather, t0=t0)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
