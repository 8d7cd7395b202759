"""Variable declarations, schedules, episode assembly and normalization."""

import dataclasses
import json

import numpy as np
import pytest

from bemopt import schema as sc
from bemopt.seeding import stream
from bemopt.training import sample_episode_config
from tests.conftest import constant_bms, constant_occ


def default_building(**overrides):
    base = {s.name: s.min for s in sc.BUILDING_SPECS}
    base.update(
        nb_occupants=1400,
        nb_PCs=1200,
        capacitance_kJ_perdegreK_perm3=150,
        power_VCV_kW_heat=600,
        power_VCV_kW_clim=500,
    )
    base.update(overrides)
    return sc.BuildingParams.from_dict(base)


def default_bms(**overrides):
    base = dict(
        start_clim_day=8, end_clim_day=19, t_clim_red_day=27, t_clim_conf_day=23,
        start_heat_day=7, end_heat_day=18, t_heat_red_day=18, t_heat_conf_day=22,
        start_ventilation_day=8, end_ventilation_day=19, t_ventilation_day=21,
        vol_ventilation_day=1.2,
    )
    base.update(overrides)
    return constant_bms(**base)


def synthetic_weather(rng):
    tamb = 10 + 5 * rng.standard_normal(sc.HOURS_PER_WEEK)
    irr = np.maximum(0.0, rng.standard_normal((sc.HOURS_PER_WEEK, 5)) * 100 + 150)
    rhum = np.clip(60 + 15 * rng.standard_normal(sc.HOURS_PER_WEEK), 0, 100)
    data = np.column_stack([irr, rhum, tamb])
    return sc.WeatherSeries(data)


class TestVariableSpec:
    def test_grid_levels_counts_both_endpoints(self):
        spec = sc.VariableSpec("x", 0.0, 1.0, 0.25)
        assert spec.n_levels == 5
        u = np.linspace(0.0, 1.0, spec.n_levels)
        np.testing.assert_allclose(sc.decode_unit_box([spec] * spec.n_levels, u),
                                   [0, 0.25, 0.5, 0.75, 1.0])

    def test_span_must_be_multiple_of_step(self):
        with pytest.raises(sc.SchemaError):
            sc.VariableSpec("x", 0.0, 1.0, 0.3)

    def test_step_must_be_positive(self):
        with pytest.raises(sc.SchemaError):
            sc.VariableSpec("x", 0.0, 1.0, 0.0)

    def test_min_le_max(self):
        with pytest.raises(sc.SchemaError):
            sc.VariableSpec("x", 2.0, 1.0, 0.5)

    def test_sample_lands_on_grid(self):
        spec = sc.DEFAULT_SCHEMA.spec("t_clim_conf_day")  # 20..24 in steps of 0.5
        rng = stream(7, "spec-sample")
        draws = np.array([sample_episode_config(sc.DEFAULT_SCHEMA, 1, rng)[1].t_clim_conf_day
                          for _ in range(500)]).ravel()
        assert draws.min() >= spec.min and draws.max() <= spec.max
        k = (draws - spec.min) / spec.step
        np.testing.assert_allclose(k, np.round(k), atol=1e-12)
        # every grid point should appear in 500 episodes' 3500 draws over 9 levels
        assert len(np.unique(draws)) == spec.n_levels

    def test_quantize_snaps_and_clips(self):
        spec = sc.VariableSpec("x", 0.0, 10.0, 1.0)
        u = [0.34, 0.36, 0.25, 0.75, -0.5, 2.5]
        got = sc.decode_unit_box([spec] * len(u), u)
        np.testing.assert_array_equal(got, [3.0, 4.0, 2.0, 8.0, 0.0, 10.0])  # 2.5, 7.5 to even


class TestSchema:
    def test_default_dimensions(self):
        s = sc.DEFAULT_SCHEMA
        assert len(s.building) == 17
        assert len(s.bms) == 12
        assert s.d_in == 37
        assert s.d_out == 8

    def test_input_channel_order(self):
        names = sc.DEFAULT_SCHEMA.input_channel_names
        assert names[0] == "airchange_infiltration_vol_per_h"
        assert names[17] == "start_clim_day"
        assert names[29] == "occupancy_fraction"
        assert names[30:] == sc.WEATHER_CHANNELS

    def test_json_round_trip(self):
        # a manifest's schema is checked by comparing its parsed JSON to to_dict()
        d = sc.DEFAULT_SCHEMA.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["version"] == 1
        assert [row["name"] for row in d["occupancy"]] == ["start_occupation", "end_occupation"]

    def test_dataclass_fields_follow_declaration_order(self):
        # as_vector/from_vector and as_matrix read the fields in this order
        assert [f.name for f in dataclasses.fields(sc.BuildingParams)] == [
            s.name for s in sc.BUILDING_SPECS]
        assert [f.name for f in dataclasses.fields(sc.BmsSchedule)] == [
            s.name for s in sc.BMS_SPECS]
        assert [f.name for f in dataclasses.fields(sc.OccupancySchedule)] == [
            s.name for s in sc.OCCUPANCY_SPECS]

    def test_vol_ventilation_grid_keeps_published_endpoints(self):
        spec = sc.DEFAULT_SCHEMA.spec("vol_ventilation_day")
        g = sc.decode_unit_box([spec, spec], [0.0, 1.0])
        assert g[0] == 0.7 and g[-1] == 1.7


class TestSchedules:
    def test_bms_requires_seven_days(self):
        good = default_bms()
        with pytest.raises(sc.SchemaError):
            dataclasses.replace(good, start_clim_day=[8, 8, 8])

    def test_window_start_before_end(self):
        with pytest.raises(sc.SchemaError, match="start_heat_day"):
            default_bms(start_heat_day=18, end_heat_day=18)

    def test_heat_conf_not_below_red(self):
        with pytest.raises(sc.SchemaError, match="t_heat_conf_day"):
            default_bms(t_heat_red_day=22, t_heat_conf_day=21)

    @pytest.mark.parametrize("name, value, match", [
        ("capacitance_kJ_perdegreK_perm3", 0, "must be > 0"),
        ("power_VCV_kW_heat", -50, "must be finite and >= 0"),
        ("nb_occupants", float("nan"), "must be finite and >= 0"),
        ("nb_PCs", float("inf"), "must be finite and >= 0"),
        ("facade_2_window_area_percent", 150, "must be <= 100"),
        ("percent_PCs_night", 100.5, "must be <= 100"),
    ])
    def test_building_values_are_checked(self, name, value, match):
        with pytest.raises(sc.SchemaError, match=f"{name} {match}"):
            default_building(**{name: value})

    def test_building_bounds_are_inclusive(self):
        default_building(power_VCV_kW_heat=0, facade_1_window_area_percent=100,
                         percent_light_night=100)

    @pytest.mark.parametrize("name, value, match", [
        ("t_heat_conf_day", float("nan"), "t_heat_conf_day: values must be finite"),
        ("t_clim_red_day", float("inf"), "t_clim_red_day: values must be finite"),
        ("vol_ventilation_day", -0.5, "vol_ventilation_day must be >= 0"),
    ])
    def test_bms_values_are_checked(self, name, value, match):
        with pytest.raises(sc.SchemaError, match=match):
            default_bms(**{name: value})

    def test_occupancy_bounds(self):
        with pytest.raises(sc.SchemaError, match=r"start_occupation\[mon\] outside \[7, 9\]"):
            constant_occ(6, 18)
        with pytest.raises(sc.SchemaError, match=r"end_occupation\[mon\] outside \[17, 20\]"):
            constant_occ(8, 21)
        constant_occ(7, 20)  # both ends of the declared ranges
        constant_occ(9, 17)

    def test_bms_expansion_shape_and_day_blocks(self):
        bms = dataclasses.replace(default_bms(), t_heat_conf_day=[22, 22.5, 23, 23.5, 24, 22, 22])
        x = sc.expand_daily(bms)
        assert x.shape == (168, 12)
        j = [s.name for s in sc.BMS_SPECS].index("t_heat_conf_day")
        for day in range(7):
            block = x[day * 24 : (day + 1) * 24, j]
            assert np.all(block == block[0])
        assert x[25, j] == 22.5  # Tuesday

    def test_occupancy_fraction_window_and_weekend(self):
        occ = constant_occ(8, 18)
        f = sc.expand_daily(occ)
        assert f.shape == (168,)
        assert f[8] == 1.0 and f[17] == 1.0  # hour 17 covers [17, 18)
        assert f[18] == 0.0 and f[7] == 0.0
        assert np.all(f[5 * 24 :] == 0.0)  # Saturday, Sunday
        assert f.sum() == 5 * 10

    def test_occupancy_expansion_equals_the_per_hour_rule(self):
        rng = stream(23, "occupancy-expansion")
        for i in range(200):
            if i % 2:  # off-grid windows too
                start, end = rng.uniform(7, 9, 5), rng.uniform(17, 20, 5)
            else:
                start, end = rng.integers(7, 10, 5), rng.integers(17, 21, 5)
            occ = sc.OccupancySchedule(tuple(start), tuple(end))
            want = np.zeros(168)
            for h in range(168):
                d, hod = h // 24, h % 24
                if d < 5 and occ.start_occupation[d] <= hod < occ.end_occupation[d]:
                    want[h] = 1.0
            np.testing.assert_array_equal(sc.expand_daily(occ), want)


class TestEpisode:
    def test_assembled_width_matches_schema(self):
        rng = stream(3, "weather")
        ep = sc.make_episode(default_building(), default_bms(),
                             constant_occ(8, 18),
                             synthetic_weather(rng))
        assert ep.inputs.shape == (168, 37)
        assert ep.targets is None

    def test_occupied_hours_follow_the_occupancy_window(self):
        rng = stream(6, "weather")
        occ = sc.OccupancySchedule((7, 8, 9, 8, 7), (17, 18, 20, 19, 17))
        week = sc.assemble_inputs(default_building(), default_bms(), occ, synthetic_weather(rng))
        hours = sc.occupied_hours(week)
        assert hours.dtype == bool
        np.testing.assert_array_equal(hours, sc.expand_daily(occ) > 0)
        assert hours.sum() == 10 + 10 + 11 + 11 + 10 and not hours[120:].any()  # weekend
        # batches of weeks keep their leading axes
        np.testing.assert_array_equal(sc.occupied_hours(np.stack([week, week])), [hours, hours])

    def test_occupied_hours_reject_inputs_of_another_shape(self):
        with pytest.raises(sc.SchemaError, match="inputs must be"):
            sc.occupied_hours(np.zeros((168, 36)))
        with pytest.raises(sc.SchemaError, match="inputs must be"):
            sc.occupied_hours(np.zeros((24, 37)))

    def test_static_channels_constant_over_time(self):
        rng = stream(4, "weather")
        ep = sc.make_episode(default_building(), default_bms(),
                             constant_occ(8, 18),
                             synthetic_weather(rng))
        static = ep.inputs[:, :17]
        assert np.all(static == static[0])

    def test_inputs_are_read_only(self):
        rng = stream(5, "weather")
        ep = sc.make_episode(default_building(), default_bms(),
                             constant_occ(8, 18),
                             synthetic_weather(rng))
        with pytest.raises(ValueError):
            ep.inputs[0, 0] = 1.0

    def test_weather_validation(self):
        bad = np.zeros((168, 7))
        bad[0, 0] = -1.0
        with pytest.raises(sc.SchemaError, match="irradiance"):
            sc.WeatherSeries(bad)
        bad = np.zeros((168, 7))
        bad[3, 5] = 150.0
        with pytest.raises(sc.SchemaError, match="RHUM"):
            sc.WeatherSeries(bad)

    def test_sim_output_rejects_negative_consumption(self):
        bad = np.zeros((168, 8))
        bad[0, 0] = -0.5
        with pytest.raises(sc.SchemaError):
            sc.SimOutput(bad)
        ok = np.zeros((168, 8))
        ok[:, sc.T_INT_INDEX] = -10.0  # temperature may be negative
        sc.SimOutput(ok)

    def test_heat_aggregate_sums_four_channels(self):
        data = np.zeros((168, 8))
        for name in sc.HEAT_AGGREGATE_CHANNELS:
            data[:, sc.OUTPUT_CHANNELS.index(name)] = 1.0
        data[:, sc.OUTPUT_CHANNELS.index("Q_AC_OFFICE")] = 99.0
        np.testing.assert_allclose(sc.heat_aggregate_of(data), 4.0)


class TestNormStats:
    def _fit(self, n_episodes=4, seed=11):
        rng = stream(seed, "norm")
        xs, ys = [], []
        for i in range(n_episodes):
            ep = sc.make_episode(default_building(), default_bms(),
                                 constant_occ(8, 18),
                                 synthetic_weather(rng))
            xs.append(ep.inputs)
            ys.append(rng.standard_normal((168, 8)) * 40 + 100)
        return sc.NormStats.fit(xs, ys), xs, ys

    def test_round_trip_inputs(self):
        stats, xs, _ = self._fit()
        x01 = stats.normalize_inputs(xs[0])
        # constant channels cannot be inverted; check the varying ones
        width = stats.input_hi - stats.input_lo
        varying = width > 0
        back = x01 * width + stats.input_lo
        np.testing.assert_allclose(back[:, varying], xs[0][:, varying], atol=1e-12, rtol=0)

    def test_round_trip_targets(self):
        stats, _, ys = self._fit()
        back = stats.denormalize_targets(stats.normalize_targets(ys[1]))
        np.testing.assert_allclose(back, ys[1], atol=1e-10, rtol=0)

    def test_ranged_channels_use_declared_bounds(self):
        stats, _, _ = self._fit()
        i = sc.DEFAULT_SCHEMA.input_channel_names.index("t_heat_conf_day")
        assert stats.input_lo[i] == 22 and stats.input_hi[i] == 24

    def test_weather_channels_use_train_min_max(self):
        stats, xs, _ = self._fit()
        j = sc.DEFAULT_SCHEMA.input_channel_names.index("TAMB")
        col = np.concatenate([x[:, j] for x in xs])
        assert stats.input_lo[j] == col.min()
        assert stats.input_hi[j] == col.max()
        x01 = stats.normalize_inputs(xs[0])
        assert x01[:, j].min() >= 0 and x01[:, j].max() <= 1

    def test_zero_width_channel_maps_to_half_and_is_flagged(self):
        stats, xs, _ = self._fit()
        # every episode used identical static params -> those channels untouched
        # by range (they use schema bounds), so force a degenerate weather channel
        xs2 = [x.copy() for x in xs]
        j = sc.DEFAULT_SCHEMA.input_channel_names.index("RHUM")
        for x in xs2:
            x[:, j] = 55.0
        ys = [np.ones((168, 8))] * len(xs2)
        stats2 = sc.NormStats.fit(xs2, ys)
        assert "RHUM" in stats2.flagged
        x01 = stats2.normalize_inputs(xs2[0])
        assert np.all(x01[:, j] == 0.5)
        # constant targets flagged too, normalization still finite
        assert np.all(np.isfinite(stats2.normalize_targets(ys[0])))

    def test_json_round_trip(self):
        stats, xs, ys = self._fit()
        d = json.loads(json.dumps(stats.to_dict()))
        stats2 = sc.NormStats.from_dict(d)
        np.testing.assert_array_equal(stats.input_lo, stats2.input_lo)
        np.testing.assert_array_equal(stats.target_std, stats2.target_std)
        np.testing.assert_allclose(
            stats.normalize_inputs(xs[0]), stats2.normalize_inputs(xs[0]), rtol=0, atol=0
        )

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_from_dict_rejects_a_target_std_not_above_zero(self, std):
        d = self._fit()[0].to_dict()
        d["target_std"][3] = std
        with pytest.raises(sc.SchemaError, match=r"norm target_std\[3\]: must be > 0"):
            sc.NormStats.from_dict(d)

    def test_from_dict_rejects_input_hi_below_lo(self):
        d = self._fit()[0].to_dict()
        j = sc.DEFAULT_SCHEMA.input_channel_names.index("TAMB")
        d["input_lo"][j], d["input_hi"][j] = d["input_hi"][j], d["input_lo"][j]
        with pytest.raises(sc.SchemaError, match=rf"norm input_hi\[{j}\]: below input_lo"):
            sc.NormStats.from_dict(d)

    def test_from_dict_accepts_zero_width_inputs(self):
        d = self._fit()[0].to_dict()
        d["input_hi"][0] = d["input_lo"][0]
        assert sc.NormStats.from_dict(d).input_hi[0] == d["input_lo"][0]


class TestBuildingCaseIO:
    def test_case_round_trip(self):
        params = default_building()
        bms = default_bms()
        occ = constant_occ(8, 18)
        # the {"params", "bms", "occ"} layout of a building.json
        d = json.loads(json.dumps({"params": params.to_dict(), "bms": bms.to_dict(),
                                   "occ": occ.to_dict()}))
        assert sc.BuildingParams.from_dict(d["params"]) == params
        assert sc.BmsSchedule.from_dict(d["bms"]) == bms
        assert sc.OccupancySchedule.from_dict(d["occ"]) == occ


def test_check_output_dir_rejects_only_what_make_output_dir_would(tmp_path):
    (tmp_path / "file").write_text("")
    for ok in (tmp_path, tmp_path / "new", tmp_path / "new" / "deeper"):
        sc.check_output_dir(ok)
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]  # nothing created
    for bad in (tmp_path / "file", tmp_path / "file" / "sub"):
        with pytest.raises(sc.SchemaError, match="is not a directory"):
            sc.check_output_dir(bad)
        with pytest.raises(sc.SchemaError):
            sc.make_output_dir(bad)
