"""CMA-ES, sensor traces, calibration space, and the calibration loop."""

import hashlib
import json
import math

import numpy as np
import pytest

import bemopt.autodiff as ad
import bemopt.calibration as cal
import bemopt.model as mdl
from bemopt.schema import (
    DEFAULT_SCHEMA,
    HEAT_AGGREGATE_INDICES,
    T_INT_INDEX,
    BmsSchedule,
    BuildingParams,
    OccupancySchedule,
    SchemaError,
    assemble_inputs,
    heat_aggregate_of,
)
from bemopt.seeding import stream, substream
from bemopt.training import predict, r2_score, sample_dataset, sample_episode_config
from bemopt.weather import generate_pool

TINY = mdl.MetamodelConfig(
    d_in=DEFAULT_SCHEMA.d_in, d_emb=8, r=2, v_width=2, h=2, n_layers=2, delta=3
)


def sphere10(x01):
    x = -5.0 + 10.0 * x01
    return float(np.sum(x * x))


def rosenbrock5(x01):
    x = -2.048 + 4.096 * x01
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def rowwise(f):
    """Row-wise batch evaluator over a scalar cost."""
    return lambda xs: [f(x) for x in xs]


def scalar_decode(spec, u):
    """The per-coordinate decoding rule: clip, rescale, round half-even, clip to the grid."""
    value = spec.min + min(max(float(u), 0.0), 1.0) * (spec.max - spec.min)
    k = min(max(round((value - spec.min) / spec.step), 0), spec.n_levels - 1)
    return float(spec.min + spec.step * k)


def model_cost(x01, space, model, trace, weather):
    """One candidate's cost on one week, along the path calibrate takes."""
    pred = predict(model.params, model.config, model.kind, space.assemble(x01, [weather])[0],
                   model.norm)
    return cal.cost_from_series(pred[:, T_INT_INDEX], heat_aggregate_of(pred), trace)


@pytest.fixture(scope="module")
def pool():
    return generate_pool(19, 3)


@pytest.fixture(scope="module")
def base_pieces(pool):
    ds = sample_dataset(pool, 3, seed=2, counts=(1, 1, 1))
    params, bms, occ, _ = sample_episode_config(DEFAULT_SCHEMA, len(pool), substream(2, "episode", 0))
    return ds, params, bms, occ


@pytest.fixture(scope="module")
def tiny_model(base_pieces):
    ds = base_pieces[0]
    params = mdl.init_transformer(TINY, stream(4, "cal-model"))
    return mdl.FrozenModel(params, TINY, "transformer", ds.norm)


# ---------------------------------------------------------------------------
# CMA-ES machinery


def test_population_size_formula():
    assert cal.CmaState(2, seed=0).lam == 6
    assert cal.CmaState(10, seed=0).lam == 10
    assert cal.CmaState(30, seed=0).lam == 14
    st = cal.CmaState(7, seed=0)
    assert st.mu == st.lam // 2
    assert st.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(st.weights > 0)


def test_state_validation():
    with pytest.raises(ValueError):
        cal.CmaState(0, seed=0)
    with pytest.raises(ValueError):
        cal.CmaState(3, seed=0, sigma0=0.0)


def test_sigma_zero_limit():
    st = cal.CmaState(4, seed=1, sigma0=1e-12)
    xs = cal.cma_ask(st)
    np.testing.assert_allclose(xs, np.tile(st.m, (st.lam, 1)), atol=1e-10)


def test_isotropic_sample_cloud():
    st = cal.CmaState(2, seed=3, sigma0=0.05)
    draws = []
    while len(draws) * st.lam < 10_000:
        draws.append(cal.cma_ask(st))
    z = (np.concatenate(draws) - 0.5) / st.sigma
    cov = np.cov(z.T)
    assert abs(cov[0, 0] - 1.0) < 0.1 and abs(cov[1, 1] - 1.0) < 0.1
    assert abs(cov[0, 1]) < 0.1


def test_reflection_into_unit_box():
    x = np.array([0.3, 1.2, -0.3, 2.5, -1.7, 1.0, 0.0])
    np.testing.assert_allclose(
        cal._reflect_into_unit_box(x), [0.3, 0.8, 0.3, 0.5, 0.3, 1.0, 0.0], atol=1e-15
    )


def test_candidates_within_bounds_after_reflection():
    st = cal.CmaState(5, seed=2, sigma0=5.0)
    for _ in range(10):
        xs = cal.cma_ask(st)
        assert np.all(xs >= 0.0) and np.all(xs <= 1.0)


def test_ask_deterministic_given_seed():
    a = cal.cma_ask(cal.CmaState(3, seed=9))
    b = cal.cma_ask(cal.CmaState(3, seed=9))
    np.testing.assert_array_equal(a, b)


def test_nonfinite_fitness_ranks_worst():
    order = cal._ranked_indices([math.nan, 1.0, math.inf, 0.5])
    assert list(order[:2]) == [3, 1]
    assert set(order[2:]) == {0, 2}


def test_tell_moves_mean_toward_optimum():
    st = cal.CmaState(3, seed=5, sigma0=0.2)
    target = np.array([0.7, 0.3, 0.6])
    before = np.linalg.norm(st.m - target)
    for _ in range(15):
        xs = cal.cma_ask(st)
        cal.cma_tell(st, xs, [float(np.sum((x - target) ** 2)) for x in xs])
    assert np.linalg.norm(st.m - target) < 0.3 * before


def test_best_so_far_monotone():
    res = cal.cma_minimize(rowwise(sphere10), 10, seed=4, max_evals=600)
    assert all(b <= a + 1e-15 for a, b in zip(res.history, res.history[1:]))
    assert res.best_f == res.history[-1] <= res.initial_f


def test_minimize_evaluates_the_mean_first_then_whole_generations():
    calls = []

    def evaluate(xs):
        calls.append(np.array(xs, copy=True))
        return [rosenbrock5(x) for x in xs]

    res = cal.cma_minimize(evaluate, 5, seed=2, max_evals=1 + 3 * 8)
    assert [c.shape for c in calls] == [(1, 5)] + [(8, 5)] * 3
    np.testing.assert_array_equal(calls[0][0], np.full(5, 0.5))
    assert res.initial_f == rosenbrock5(np.full(5, 0.5))
    assert res.evaluations == 25 and len(res.history) == 3
    with pytest.raises(ValueError, match="evaluator"):
        cal.cma_minimize(lambda xs: [0.0], 5, seed=2, max_evals=20)


def test_covariance_symmetric_spd_after_tells():
    st = cal.CmaState(5, seed=6, sigma0=0.3)
    for _ in range(25):
        xs = cal.cma_ask(st)
        cal.cma_tell(st, xs, [rosenbrock5(x) for x in xs])
        assert np.max(np.abs(st.C - st.C.T)) <= 1e-12
        assert np.linalg.eigvalsh(st.C).min() > 0.9e-14
        assert st.sigma > 0


def test_constant_fitness_is_harmless():
    st = cal.CmaState(4, seed=7)
    for _ in range(20):
        xs = cal.cma_ask(st)
        cal.cma_tell(st, xs, [1.0] * st.lam)
    assert np.all(np.isfinite(st.m)) and np.isfinite(st.sigma)


def test_tell_shape_validation():
    st = cal.CmaState(3, seed=0)
    xs = cal.cma_ask(st)
    with pytest.raises(ValueError):
        cal.cma_tell(st, xs[:2], [1.0, 2.0])
    with pytest.raises(ValueError):
        cal.cma_tell(st, xs, [1.0] * (st.lam - 1))


def test_sphere_convergence():
    _, best, evals, _, _ = cal.cma_minimize(rowwise(sphere10), 10, seed=1, max_evals=5000,
                                            target=1e-10)
    assert best < 1e-10 and evals <= 5000


def test_rosenbrock_convergence():
    _, best, evals, _, _ = cal.cma_minimize(rowwise(rosenbrock5), 5, seed=1, max_evals=50_000,
                                            target=1e-6)
    assert best < 1e-6 and evals <= 50_000


# ---------------------------------------------------------------------------
# sensor traces


def test_trace_roundtrip_csv(tmp_path):
    rng = stream(8, "trace")
    trace = cal.SensorTrace(20 + rng.normal(size=168), 100 + 10 * rng.normal(size=168))
    path = tmp_path / "trace.csv"
    trace.save_csv(path)
    back = cal.SensorTrace.load_csv(path)
    np.testing.assert_array_equal(back.t_int, trace.t_int)
    np.testing.assert_array_equal(back.q_heat, trace.q_heat)
    trace.save_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    raw = path.read_bytes()
    assert len(raw) == 6_772
    assert hashlib.sha256(raw).hexdigest() == (
        "f3f19811a2945b6953e7d049712bb8eb7ad89b70055eb4162591066c32dd1056")


def test_trace_validation():
    with pytest.raises(ValueError):
        cal.SensorTrace(np.zeros(167), np.zeros(168))
    bad = np.zeros(168)
    bad[5] = np.nan
    with pytest.raises(ValueError):
        cal.SensorTrace(bad, np.zeros(168))


def test_trace_from_output():
    rng = stream(9, "trace-agg")
    out = rng.normal(size=(168, 8))
    trace = cal.SensorTrace.from_output(out)
    np.testing.assert_array_equal(trace.t_int, out[:, T_INT_INDEX])
    np.testing.assert_array_equal(trace.q_heat, out[:, list(HEAT_AGGREGATE_INDICES)].sum(axis=1))


# ---------------------------------------------------------------------------
# the search space


def test_default_space_dimensions(base_pieces):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace.default(params, bms, occ)
    assert space.dim == len(cal.CalibrationSpace.DEFAULT_FREE) == 8
    assert space.names == cal.CalibrationSpace.DEFAULT_FREE


def test_per_day_expansion(base_pieces):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace(
        [cal.FreeVariable("t_heat_conf_day", per_day=True),
         cal.FreeVariable("start_occupation", per_day=True),
         "capacitance_kJ_perdegreK_perm3"],
        params, bms, occ,
    )
    assert space.dim == 7 + 5 + 1
    assert space.names[0] == "t_heat_conf_day[mon]"
    assert space.names[7] == "start_occupation[mon]"
    assert space.names[11] == "start_occupation[fri]"


def test_space_bounds_from_declaration(base_pieces):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace.default(params, bms, occ)
    lo, hi = space.values(np.zeros(space.dim)), space.values(np.ones(space.dim))
    specs = [DEFAULT_SCHEMA.spec(name) for name in space.names]
    np.testing.assert_array_equal(lo, [spec.min for spec in specs])
    np.testing.assert_array_equal(hi, [spec.max for spec in specs])
    assert np.all(hi > lo)


def test_decode_endpoints_and_grid(base_pieces):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace(["capacitance_kJ_perdegreK_perm3", "t_heat_conf_day"], params, bms, occ)
    spec = DEFAULT_SCHEMA.spec("capacitance_kJ_perdegreK_perm3")
    p0, b0, _ = space.decode(np.array([0.0, 0.0]))
    p1, b1, _ = space.decode(np.array([1.0, 1.0]))
    assert p0.capacitance_kJ_perdegreK_perm3 == spec.min
    assert p1.capacitance_kJ_perdegreK_perm3 == spec.max
    assert b0.t_heat_conf_day == (22.0,) * 7  # one dim drives all days
    assert b1.t_heat_conf_day == (24.0,) * 7
    # interior points snap to the declared step
    pm, bm, _ = space.decode(np.array([0.503, 0.27]))
    cap_steps = (pm.capacitance_kJ_perdegreK_perm3 - spec.min) / spec.step
    assert cap_steps == round(cap_steps)
    assert pm.capacitance_kJ_perdegreK_perm3 == scalar_decode(spec, 0.503)


def test_space_validation(base_pieces):
    _, params, bms, occ = base_pieces
    with pytest.raises(SchemaError):
        cal.CalibrationSpace([], params, bms, occ)
    with pytest.raises(SchemaError):
        cal.CalibrationSpace(["no_such_variable"], params, bms, occ)
    with pytest.raises(SchemaError, match="static"):
        cal.CalibrationSpace([cal.FreeVariable("nb_occupants", per_day=True)], params, bms, occ)
    with pytest.raises(SchemaError, match="duplicate"):
        cal.CalibrationSpace(["nb_occupants", "nb_occupants"], params, bms, occ)
    with pytest.raises(SchemaError, match="duplicate"):  # lockstep and per-day copies
        cal.CalibrationSpace(["t_heat_conf_day", ("t_heat_conf_day", True)], params, bms, occ)
    space = cal.CalibrationSpace(["nb_occupants"], params, bms, occ)
    with pytest.raises(ValueError):
        space.decode(np.zeros(2))


def test_space_to_dict_lists_free_variables_and_base(base_pieces):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace(
        ["capacitance_kJ_perdegreK_perm3", cal.FreeVariable("t_heat_conf_day", True)],
        params, bms, occ,
    )
    d = json.loads(json.dumps(space.to_dict()))  # as written into calibration.json
    assert d["free"] == [{"name": "capacitance_kJ_perdegreK_perm3", "per_day": False},
                         {"name": "t_heat_conf_day", "per_day": True}]
    assert sorted(d) == ["base", "free"]
    # the pinned building in the {"params", "bms", "occ"} layout of a building.json
    assert sorted(d["base"]) == ["bms", "occ", "params"]
    assert BuildingParams.from_dict(d["base"]["params"]) == params
    assert BmsSchedule.from_dict(d["base"]["bms"]) == bms
    assert OccupancySchedule.from_dict(d["base"]["occ"]) == occ


def test_assemble_changes_only_freed_columns(base_pieces, pool):
    ds, params, bms, occ = base_pieces
    space = cal.CalibrationSpace(["nb_occupants"], params, bms, occ)
    base = space.assemble(np.array([0.0]), pool[:2])
    moved = space.assemble(np.array([1.0]), pool[:2])
    col = DEFAULT_SCHEMA.input_channel_names.index("nb_occupants")
    diff = np.nonzero(np.any(base != moved, axis=(0, 1)))[0]
    np.testing.assert_array_equal(diff, [col])


def test_assemble_stacks_one_decoded_candidate_over_the_weeks(base_pieces, pool):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace(
        ["capacitance_kJ_perdegreK_perm3", ("t_heat_conf_day", True), "start_occupation"],
        params, bms, occ,
    )
    x = np.linspace(0.1, 0.9, space.dim)
    weeks = space.assemble(x, pool)
    assert weeks.shape == (len(pool), 168, DEFAULT_SCHEMA.d_in)
    for k, weather in enumerate(pool):
        np.testing.assert_array_equal(weeks[k], assemble_inputs(*space.decode(x), weather))


def test_decode_is_bitwise_the_scalar_rescale_clip_quantize(base_pieces):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace(
        ["capacitance_kJ_perdegreK_perm3", "nb_occupants", ("t_heat_conf_day", True),
         "vol_ventilation_day", ("start_occupation", True), "end_occupation"],
        params, bms, occ,
    )
    specs = [DEFAULT_SCHEMA.spec(n.split("[")[0]) for n in space.names]
    rng = stream(17, "decode-reference")
    for _ in range(1000):
        x = rng.uniform(-0.25, 1.25, space.dim)  # the clip is part of the contract
        want = [scalar_decode(s, u) for s, u in zip(specs, x)]
        np.testing.assert_array_equal(space.values(x), want)
        p, b, o = space.decode(x)
        got = ([p.capacitance_kJ_perdegreK_perm3, p.nb_occupants]
               + list(b.t_heat_conf_day) + [b.vol_ventilation_day[0]]
               + list(o.start_occupation) + [o.end_occupation[0]])
        assert got == want
        assert b.vol_ventilation_day == (want[9],) * 7
        assert o.end_occupation == (want[-1],) * 5


# ---------------------------------------------------------------------------
# cost


def test_cost_from_series_hand_arithmetic():
    hours = np.arange(168, dtype=np.float64)
    trace = cal.SensorTrace(hours, 2.0 * hours)
    pred_t = hours + 1.0  # SS_res = 168, SS_tot = sum (h - 83.5)^2
    pred_q = 2.0 * hours.copy()
    ss_tot = float(np.sum((hours - hours.mean()) ** 2))
    want = 1.0 - 0.5 * ((1.0 - 168.0 / ss_tot) + 1.0)
    assert cal.cost_from_series(pred_t, pred_q, trace) == pytest.approx(want, abs=1e-12)


def test_self_consistent_trace_costs_zero(base_pieces, tiny_model, pool):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace.default(params, bms, occ)
    x = np.full(space.dim, 0.37)
    pred = predict(tiny_model.params, tiny_model.config, tiny_model.kind,
                   space.assemble(x, [pool[0]])[0], tiny_model.norm)
    trace = cal.SensorTrace.from_output(pred)
    assert model_cost(x, space, tiny_model, trace, pool[0]) < 1e-12


def test_constant_predictions_cost_one(base_pieces, tiny_model, pool):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace.default(params, bms, occ)
    frozen = mdl.FrozenModel(
        {k: (p if k != "out.W" else type(p)(np.zeros_like(p.data), True))
         for k, p in tiny_model.params.items()},
        tiny_model.config, tiny_model.kind, tiny_model.norm,
    )
    x = np.full(space.dim, 0.5)
    pred = predict(frozen.params, frozen.config, frozen.kind,
                   space.assemble(x, [pool[0]])[0], frozen.norm)
    assert np.ptp(pred[:, T_INT_INDEX]) == 0.0  # constant in time
    wiggle = np.tile([1.0, -1.0], 84)  # exactly zero-mean
    trace = cal.SensorTrace(pred[:, T_INT_INDEX] + wiggle,
                            pred[:, list(HEAT_AGGREGATE_INDICES)].sum(axis=1) + 2 * wiggle)
    assert model_cost(x, space, frozen, trace, pool[0]) == pytest.approx(1.0, abs=1e-12)


def test_cost_invariant_under_fixed_input_reordering(base_pieces, tiny_model, pool):
    _, params, bms, occ = base_pieces
    forward_dict = params.to_dict()
    reversed_dict = dict(reversed(list(forward_dict.items())))
    a = cal.CalibrationSpace(["nb_occupants"], BuildingParams.from_dict(forward_dict), bms, occ)
    b = cal.CalibrationSpace(["nb_occupants"], BuildingParams.from_dict(reversed_dict), bms, occ)
    trace = cal.SensorTrace(np.full(168, 21.0) + np.sin(np.arange(168)), np.full(168, 90.0))
    x = np.array([0.4])
    assert model_cost(x, a, tiny_model, trace, pool[0]) == model_cost(x, b, tiny_model, trace, pool[0])


def test_frozen_model_roundtrip(tiny_model, tmp_path):
    path = tmp_path / "model.bin"
    tiny_model.save(path)
    back = mdl.FrozenModel.load(path)
    assert back.params.keys() == tiny_model.params.keys()
    for name, p in tiny_model.params.items():
        assert np.array_equal(back.params[name].data, p.data)
    assert back.kind == tiny_model.kind and back.config == tiny_model.config
    assert back.norm.to_dict() == tiny_model.norm.to_dict()
    tensors, meta = ad.load_tensors(path)
    del meta["norm"]
    ad.save_tensors(tmp_path / "bare.bin", tensors, meta=meta)
    with pytest.raises(ValueError, match="normalization"):
        mdl.FrozenModel.load(tmp_path / "bare.bin")


# ---------------------------------------------------------------------------
# the calibration loop


@pytest.fixture(scope="module")
def toy_problem(base_pieces, tiny_model, pool):
    _, params, bms, occ = base_pieces
    space = cal.CalibrationSpace(
        ["capacitance_kJ_perdegreK_perm3", "nb_occupants", "percent_light_night"],
        params, bms, occ,
    )
    planted = np.array([0.35, 0.7, 0.1])
    traces, weathers = [], []
    for w in pool[:2]:
        pred = predict(tiny_model.params, tiny_model.config, tiny_model.kind,
                       space.assemble(planted, [w])[0], tiny_model.norm)
        traces.append(cal.SensorTrace.from_output(pred))
        weathers.append(w)
    return space, planted, traces, weathers


def test_budget_zero_returns_initial_mean(toy_problem, tiny_model):
    space, _, traces, weathers = toy_problem
    best_x, report = cal.calibrate(space, tiny_model, traces, weathers, budget=0, seed=1)
    np.testing.assert_array_equal(best_x, np.full(space.dim, 0.5))
    assert report.best_cost == report.initial_cost
    assert report.history == []
    assert len(report.values) == space.dim


def test_calibrate_reduces_cost(toy_problem, tiny_model):
    space, planted, traces, weathers = toy_problem
    best_x, report = cal.calibrate(space, tiny_model, traces, weathers, budget=40, seed=1)
    assert report.best_cost < report.initial_cost
    assert report.best_cost <= min(report.history) + 1e-15
    assert all(b <= a + 1e-15 for a, b in zip(report.history, report.history[1:]))
    # report metrics are consistent with the cost of the returned candidate
    mean_cost = np.mean([1.0 - 0.5 * (row["r2_t"] + row["r2_q"]) for row in report.week_metrics])
    assert mean_cost == pytest.approx(report.best_cost, abs=1e-9)


def test_calibrate_keeps_weights_frozen(toy_problem, tiny_model):
    space, _, traces, weathers = toy_problem
    before = {name: p.data.copy() for name, p in tiny_model.params.items()}
    cal.calibrate(space, tiny_model, traces, weathers, budget=5, seed=3)
    assert all(np.array_equal(tiny_model.params[name].data, data)
               for name, data in before.items())


def test_calibrate_holdout_rows(toy_problem, tiny_model, pool):
    space, planted, traces, weathers = toy_problem
    _, report = cal.calibrate(
        space, tiny_model, traces[:1], weathers[:1], budget=5, seed=2,
        holdout_traces=traces[1:], holdout_weathers=weathers[1:],
    )
    assert len(report.week_metrics) == 1 and len(report.holdout_metrics) == 1
    for row in report.week_metrics + report.holdout_metrics:
        assert {"mse_t", "mse_q", "mse_t_occ", "mse_q_occ", "r2_t", "r2_q", "week"} <= set(row)
    d = report.to_dict()
    assert d["generations"] == 5 and len(d["values"]) == space.dim


def test_calibrate_input_validation(toy_problem, tiny_model):
    space, _, traces, weathers = toy_problem
    with pytest.raises(ValueError):
        cal.calibrate(space, tiny_model, traces, weathers[:1], budget=1, seed=0)
    with pytest.raises(ValueError):
        cal.calibrate(space, tiny_model, [], [], budget=1, seed=0)
    with pytest.raises(ValueError):
        cal.calibrate(space, tiny_model, traces, weathers, budget=1, seed=0,
                      holdout_traces=traces, holdout_weathers=[])


def reference_calibration_loop(space, model, traces, weathers, budget, seed, sigma0=0.3):
    """calibrate's former private ask/tell loop, kept verbatim as a reference."""
    def population_costs(xs):
        costs = np.zeros(len(xs))
        for trace, weather in zip(traces, weathers):
            batch = np.stack([space.assemble(x, [weather])[0] for x in xs])
            preds = predict(model.params, model.config, model.kind, batch, model.norm)
            for i, p in enumerate(preds):
                costs[i] += cal.cost_from_series(p[:, T_INT_INDEX], heat_aggregate_of(p), trace)
        return costs / len(traces)

    state = cal.CmaState(space.dim, seed, sigma0=sigma0)
    initial_cost = float(population_costs([state.m])[0])
    best_x, best_f = state.m.copy(), initial_cost
    history = []
    evaluations = 1
    for _ in range(budget):
        xs = cal.cma_ask(state)
        fs = population_costs(xs)
        evaluations += len(xs)
        cal.cma_tell(state, xs, fs)
        if state.best_f < best_f:
            best_f, best_x = state.best_f, state.best_x.copy()
        history.append(best_f)
    return best_x, best_f, initial_cost, history, evaluations


@pytest.mark.parametrize("budget, seed, sigma0, planted", [
    (0, 1, 0.3, None),
    (7, 3, 0.3, None),
    (60, 5, 0.6, None),
    (9, 2, 0.3, 0.5),  # traces made at the start mean: no sample beats it at first
])
def test_calibrate_equals_the_former_ask_tell_loop(toy_problem, tiny_model, pool, budget, seed,
                                                   sigma0, planted):
    space, _, traces, weathers = toy_problem
    if planted is not None:
        traces = [cal.SensorTrace.from_output(
            predict(tiny_model.params, tiny_model.config, tiny_model.kind,
                    space.assemble(np.full(space.dim, planted), [w])[0], tiny_model.norm))
            for w in weathers]
    logged = []
    best_x, report = cal.calibrate(space, tiny_model, traces, weathers, budget=budget,
                                   seed=seed, sigma0=sigma0,
                                   log=lambda gen, best: logged.append((gen, best)))
    ref_x, ref_f, ref_initial, ref_history, ref_evals = reference_calibration_loop(
        space, tiny_model, traces, weathers, budget, seed, sigma0)
    np.testing.assert_array_equal(best_x, ref_x)
    assert report.best_cost == ref_f and report.initial_cost == ref_initial
    assert report.history == ref_history
    assert report.evaluations == ref_evals == 1 + budget * cal.population_size(space.dim)
    for row, trace, weather in zip(report.week_metrics, traces, weathers):  # one week at a time
        pred = predict(tiny_model.params, tiny_model.config, tiny_model.kind,
                       space.assemble(ref_x, [weather])[0], tiny_model.norm)
        assert row["r2_t"] == r2_score(trace.t_int, pred[:, T_INT_INDEX])
        assert row["r2_q"] == r2_score(trace.q_heat, heat_aggregate_of(pred))
    assert logged == [(g, ref_history[g - 1]) for g in range(50, budget + 1, 50)]
    if planted is not None:
        assert report.history[0] == report.initial_cost < 1e-12
