"""NSGA-II internals, the two objectives, and the schedule search wrapper."""

import hashlib
import math

import numpy as np
import pytest

import bemopt.model as mdl
import bemopt.pareto as par
from bemopt.schema import (
    DEFAULT_SCHEMA,
    HEAT_AGGREGATE_INDICES,
    T_INT_INDEX,
    expand_daily,
    occupied_hours,
)
from bemopt.seeding import stream, substream
from bemopt.training import predict, sample_dataset, sample_episode_config
from bemopt.weather import generate_pool

TINY = mdl.MetamodelConfig(
    d_in=DEFAULT_SCHEMA.d_in, d_emb=8, r=2, v_width=2, h=2, n_layers=2, delta=3
)


def zdt1(X):
    f1 = X[:, 0]
    g = 1 + 9 * X[:, 1:].mean(axis=1)
    f2 = g * (1 - np.sqrt(f1 / g))
    return np.stack([f1, f2], axis=1)


def brute_force_fronts(F):
    """Independent restatement: repeatedly peel the non-dominated subset."""
    F = np.asarray(F, dtype=np.float64)

    def dominates(i, j):
        return bool(np.all(F[i] <= F[j]) and np.any(F[i] < F[j]))

    remaining = set(range(len(F)))
    fronts = []
    while remaining:
        front = sorted(i for i in remaining
                       if not any(dominates(j, i) for j in remaining if j != i))
        fronts.append(front)
        remaining -= set(front)
    return fronts


def front_objectives(front):
    """(members, 2) matrix of a front's comfort and consumption, in member order."""
    return np.array([[o.comfort, o.consumption] for _, o in front.members])


@pytest.fixture(scope="module")
def zdt1_front():
    cfg = par.NsgaConfig(population=100, generations=250)
    return par.nsga2_run(cfg, zdt1, 30, seed=0)


@pytest.fixture(scope="module")
def pool():
    return generate_pool(23, 3)


@pytest.fixture(scope="module")
def pieces(pool):
    ds = sample_dataset(pool, 3, seed=6, counts=(1, 1, 1))
    params, _, occ, _ = sample_episode_config(DEFAULT_SCHEMA, len(pool), substream(6, "episode", 0))
    model = mdl.FrozenModel(mdl.init_transformer(TINY, stream(7, "opt-model")), TINY,
                            "transformer", ds.norm)
    return params, occ, model


# ---------------------------------------------------------------------------
# objectives


def test_objectives_validation():
    par.Objectives(0.0, 0.0)
    par.Objectives(par.PENALTY, par.PENALTY)
    with pytest.raises(ValueError):
        par.Objectives(-0.1, 1.0)
    with pytest.raises(ValueError):
        par.Objectives(math.nan, 1.0)
    with pytest.raises(ValueError):
        par.Objectives(1.0, math.inf)


def test_domination_relation():
    assert par.Objectives(1, 1).dominates(par.Objectives(1, 2))
    assert par.Objectives(1, 1).dominates(par.Objectives(2, 2))
    assert not par.Objectives(1, 2).dominates(par.Objectives(2, 1))
    assert not par.Objectives(2, 1).dominates(par.Objectives(1, 2))
    assert not par.Objectives(1, 1).dominates(par.Objectives(1, 1))


def test_zero_gap_comfort():
    t = np.full(10, par.T_STAR)
    obj = par.objectives_from_series(t, np.ones(10), np.ones(10, dtype=bool))
    assert obj.comfort == 0.0


def test_constant_consumption_is_its_mean():
    obj = par.objectives_from_series(np.full(8, 22.0), np.full(8, 3.25),
                                     np.zeros(8, dtype=bool))
    assert obj.consumption == pytest.approx(3.25, abs=1e-15)


def test_three_hour_comfort_toy():
    t = np.array([22.5, 23.5, 22.5])
    obj = par.objectives_from_series(t, np.zeros(3), np.ones(3, dtype=bool))
    assert obj.comfort == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_comfort_normalization_outside_sqrt():
    t = par.T_STAR + np.ones(4)  # four occupied hours, each 1 deg off
    occ = np.ones(4, dtype=bool)
    assert par.objectives_from_series(t, np.zeros(4), occ).comfort == pytest.approx(0.5)


def test_objectives_edge_cases():
    occ = np.ones(4, dtype=bool)
    bad = np.array([1.0, np.nan, 1.0, 1.0])  # `predict` refuses such series first
    with pytest.raises(ValueError, match="comfort must be finite"):
        par.objectives_from_series(bad, np.ones(4), occ)
    with pytest.raises(ValueError, match="consumption must be finite"):
        par.objectives_from_series(np.ones(4), bad, occ)
    assert par.objectives_from_series(np.ones(4) * 30, np.ones(4),
                                      np.zeros(4, dtype=bool)).comfort == 0.0
    assert par.objectives_from_series(np.ones(4), -np.ones(4), occ).consumption == 0.0
    with pytest.raises(ValueError):
        par.objectives_from_series(np.ones(4), np.ones(3), occ)


# ---------------------------------------------------------------------------
# sorting and crowding


def test_sort_three_point_example():
    fronts = par.non_dominated_sort([(1, 2), (2, 1), (2, 2)])
    assert sorted(fronts[0].tolist()) == [0, 1]
    assert fronts[1].tolist() == [2]


def test_sort_single_and_identical():
    assert par.non_dominated_sort([(3, 4)])[0].tolist() == [0]
    fronts = par.non_dominated_sort([(1, 1)] * 5)
    assert len(fronts) == 1 and sorted(fronts[0].tolist()) == [0, 1, 2, 3, 4]


def test_sort_matches_brute_force():
    rng = stream(11, "sort")
    F = rng.integers(0, 8, size=(60, 2)).astype(np.float64)  # ties on purpose
    got = [sorted(f.tolist()) for f in par.non_dominated_sort(F)]
    assert got == brute_force_fronts(F)
    assert sorted(i for f in got for i in f) == list(range(60))


def test_sort_validation():
    with pytest.raises(ValueError):
        par.non_dominated_sort(np.zeros((0, 2)))


def test_crowding_two_member_front():
    d = par.crowding_distance([(1, 2), (2, 1)])
    assert d[0] == math.inf and d[1] == math.inf


def test_crowding_evenly_spaced_middle():
    d = par.crowding_distance([(0, 2), (1, 1), (2, 0)])
    assert d[1] == pytest.approx(2.0, abs=1e-15)


def test_crowding_hand_case():
    d = par.crowding_distance([(0, 3), (1, 1), (2, 0.5), (3, 0)])
    assert d[0] == math.inf and d[3] == math.inf
    assert d[1] == pytest.approx(2 / 3 + 2.5 / 3, abs=1e-12)
    assert d[2] == pytest.approx(2 / 3 + 1 / 3, abs=1e-12)


def test_crowding_degenerate_range():
    d = par.crowding_distance([(1, 0), (1, 1), (1, 2)])  # objective 0 flat
    assert np.isfinite(d[1]) and d[1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# hypervolume


def test_hypervolume_single_rectangle():
    assert par.hypervolume_2d([(1, 3)], (4, 4)) == pytest.approx(3.0)


def test_hypervolume_two_point_union():
    assert par.hypervolume_2d([(1, 3), (2, 2)], (4, 4)) == pytest.approx(5.0)


def test_hypervolume_ignores_outside_and_dominated():
    assert par.hypervolume_2d([(5, 5)], (4, 4)) == 0.0
    assert par.hypervolume_2d([(1, 3), (2, 2), (2.5, 2.5)], (4, 4)) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# the generational loop


def test_zdt1_converges_to_analytic_front(zdt1_front):
    F = front_objectives(zdt1_front)
    s = np.linspace(0.0, 1.0, 2001)
    curve = np.stack([s, 1 - np.sqrt(s)], axis=1)
    dists = np.sqrt(((F[:, None, :] - curve[None, :, :]) ** 2).sum(-1)).min(axis=1)
    assert dists.mean() < 0.01
    assert len(zdt1_front) > 50


def test_final_front_mutually_non_dominated(zdt1_front):
    F = front_objectives(zdt1_front)
    assert len(brute_force_fronts(F)) == 1


def test_elitism_per_objective(zdt1_front):
    minima = np.array(zdt1_front.objective_minima)
    assert minima.shape == (251, 2)
    assert np.all(np.diff(minima[:, 0]) <= 0)
    assert np.all(np.diff(minima[:, 1]) <= 0)


def test_hypervolume_history(zdt1_front):
    hv = np.array(zdt1_front.hypervolume)
    assert len(hv) == 251
    assert hv[-1] > hv[0]
    assert np.all(np.diff(hv) >= -0.01)  # truncation jitter only


def test_seeded_determinism():
    cfg = par.NsgaConfig(population=12, generations=15)
    a = par.nsga2_run(cfg, zdt1, 5, seed=7)
    b = par.nsga2_run(cfg, zdt1, 5, seed=7)
    assert len(a) == len(b)
    for (xa, oa), (xb, ob) in zip(a.members, b.members):
        np.testing.assert_array_equal(xa, xb)
        assert oa == ob
    assert a.hypervolume == b.hypervolume


def test_nonfinite_batch_rows_are_penalized():
    def leaky(X):
        F = zdt1(X)
        F[0] = np.nan  # one corrupted row per call
        return F

    cfg = par.NsgaConfig(population=8, generations=4)
    front = par.nsga2_run(cfg, leaky, 4, seed=2)
    assert all(o.comfort < par.PENALTY for _, o in front.members)


def test_run_validation():
    cfg = par.NsgaConfig(population=8, generations=1)
    with pytest.raises(ValueError):
        par.nsga2_run(cfg, lambda X: np.zeros((3, 3)), 2, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        par.NsgaConfig(population=7)
    with pytest.raises(ValueError):
        par.NsgaConfig(population=2)
    with pytest.raises(ValueError):
        par.NsgaConfig(generations=-1)


def test_zero_generations_returns_initial_front():
    cfg = par.NsgaConfig(population=8, generations=0)
    front = par.nsga2_run(cfg, zdt1, 3, seed=3)
    assert len(front.hypervolume) == 1 and len(front) >= 1


def test_front_type_rejects_dominated_members():
    with pytest.raises(ValueError):
        par.ParetoFront([(np.zeros(2), par.Objectives(1, 1)),
                         (np.ones(2), par.Objectives(2, 2))], [0.0])
    front = par.ParetoFront([(np.zeros(2), par.Objectives(1, 2)),
                             (np.ones(2), par.Objectives(2, 1))], [0.0])
    assert not front.members[0][0].flags.writeable
    np.testing.assert_array_equal(front_objectives(front), [[1, 2], [2, 1]])


# ---------------------------------------------------------------------------
# the schedule search space


def test_bms_space_shape(pieces):
    params, occ, _ = pieces
    space = par.BmsSpace(params, occ)
    assert space.dim == len(DEFAULT_SCHEMA.bms) * 7 == 84
    assert space.names[0] == f"{DEFAULT_SCHEMA.bms[0].name}[mon]"
    assert space.names[7] == f"{DEFAULT_SCHEMA.bms[1].name}[mon]"
    assert space.names[6] == f"{DEFAULT_SCHEMA.bms[0].name}[sun]"


def test_bms_decode_endpoints(pieces):
    params, occ, _ = pieces
    space = par.BmsSpace(params, occ)
    low = space.decode(np.zeros(space.dim))
    high = space.decode(np.ones(space.dim))
    for spec in DEFAULT_SCHEMA.bms:
        assert getattr(low, spec.name) == (spec.min,) * 7
        assert getattr(high, spec.name) == (spec.max,) * 7
    with pytest.raises(ValueError):
        space.decode(np.zeros(3))


def test_bms_encode_decode_roundtrip(pieces):
    params, occ, _ = pieces
    space = par.BmsSpace(params, occ)
    rng = stream(13, "bms-roundtrip")
    _, bms, _, _ = sample_episode_config(DEFAULT_SCHEMA, 3, rng)
    vec = space.settings_vector(bms)
    assert space.schedule_from_settings(vec) == bms
    lo = np.repeat([s.min for s in DEFAULT_SCHEMA.bms], 7)
    hi = np.repeat([s.max for s in DEFAULT_SCHEMA.bms], 7)
    assert space.decode((vec - lo) / (hi - lo)) == bms  # grid points decode to themselves
    assert vec[0] == getattr(bms, DEFAULT_SCHEMA.bms[0].name)[0]
    assert vec[-1] == getattr(bms, DEFAULT_SCHEMA.bms[-1].name)[6]


def test_bms_decode_is_bitwise_the_scalar_rescale_clip_quantize(pieces):
    params, occ, _ = pieces
    space = par.BmsSpace(params, occ)
    specs = [s for s in DEFAULT_SCHEMA.bms for _ in range(7)]  # dimension order
    rng = stream(19, "bms-decode-reference")
    for _ in range(1000):
        x = rng.uniform(-0.25, 1.25, space.dim)  # the clip is part of the contract
        want = []
        for s, u in zip(specs, x):  # clip, rescale, round half-even, clip to the grid
            value = s.min + min(max(float(u), 0.0), 1.0) * (s.max - s.min)
            k = min(max(round((value - s.min) / s.step), 0), s.n_levels - 1)
            want.append(float(s.min + s.step * k))
        np.testing.assert_array_equal(space.values(x), want)
        np.testing.assert_array_equal(space.settings_vector(space.decode(x)), want)


def test_bms_candidates_keep_the_base_occupied_hours(pieces, pool):
    # the search moves the control schedule only, so comfort is always scored
    # over the pinned occupancy window
    params, occ, _ = pieces
    space = par.BmsSpace(params, occ)
    want = expand_daily(occ) > 0
    assert want.any() and not want[120:].any()  # weekend
    for u in (0.0, 0.37, 1.0):
        hours = occupied_hours(space.assemble(np.full(space.dim, u), pool[0]))
        np.testing.assert_array_equal(hours, want)


def test_evaluate_is_pure_and_matches_hand_path(pieces, pool):
    params, occ, model = pieces
    space = par.BmsSpace(params, occ)
    x = np.full(space.dim, 0.41)
    a = par.evaluate_settings(model, params, space.decode(x), occ, pool[0])
    b = par.evaluate_settings(model, params, space.decode(x), occ, pool[0])
    assert a == b
    pred = predict(model, inputs=space.assemble(x, pool[0]))
    want = par.objectives_from_series(
        pred[:, T_INT_INDEX], pred[:, list(HEAT_AGGREGATE_INDICES)].sum(axis=1),
        expand_daily(occ) > 0)
    assert a == want


def test_optimize_bms_small_run(pieces, pool):
    params, occ, model = pieces
    space = par.BmsSpace(params, occ)
    params_before = params.to_dict()
    occ_before = occ.to_dict()
    cfg = par.NsgaConfig(population=8, generations=4)
    front = par.optimize_bms(space, model, pool[0], cfg, seed=5)
    assert len(brute_force_fronts(front_objectives(front))) == 1
    for settings, _ in front.members:
        for v, (_, spec, _) in zip(settings, space._dims):
            steps = (v - spec.min) / spec.step
            assert abs(steps - round(steps)) < 1e-9  # on the declared grid
    assert space.base_params.to_dict() == params_before
    assert space.base_occ.to_dict() == occ_before
    again = par.optimize_bms(space, model, pool[0], cfg, seed=5)
    assert len(again) == len(front)
    for (xa, oa), (xb, ob) in zip(front.members, again.members):
        np.testing.assert_array_equal(xa, xb)
        assert oa == ob


def test_optimize_bms_predicts_each_schedule_once(pieces, pool, monkeypatch):
    """A snapped schedule is predicted once per run; its repeats reuse the
    stored objectives, so the search equals a memo-free one bit for bit."""
    params, occ, model = pieces
    space = par.BmsSpace(params, occ)
    cfg = par.NsgaConfig(population=16, generations=6)
    weather = pool[0]

    seen = []  # every candidate the memo-free search scores

    def memo_free(X):
        seen.extend(X)
        inputs = np.stack([space.assemble(x, weather) for x in X])
        preds = predict(model, inputs=inputs)
        objs = [par.objectives_from_series(p[:, T_INT_INDEX],
                                           p[:, list(HEAT_AGGREGATE_INDICES)].sum(axis=1), o)
                for p, o in zip(preds, occupied_hours(inputs))]
        return np.array([(o.comfort, o.consumption) for o in objs])

    want = par.nsga2_run(cfg, memo_free, space.dim, seed=5)
    distinct = {}
    for x in seen:
        distinct.setdefault(space.values(x).tobytes(), x)
    assert len(distinct) < len(seen), len(seen)  # the run has repeats to reuse

    predicted = []

    def recording_predict(model, *, inputs):
        predicted.extend(inputs)
        return predict(model, inputs=inputs)

    monkeypatch.setattr(par, "predict", recording_predict)
    got = par.optimize_bms(space, model, weather, cfg, seed=5)
    assert len(predicted) == len(distinct)
    for row, x in zip(predicted, distinct.values()):
        assert np.array_equal(row, space.assemble(x, weather))

    want_members, keys = [], set()
    for x01, obj in want.members:
        settings = space.values(x01)
        if settings.tobytes() not in keys:
            keys.add(settings.tobytes())
            want_members.append((settings, obj))
    assert len(got) == len(want_members)
    for (xa, oa), (xb, ob) in zip(got.members, want_members):
        assert np.array_equal(xa, xb) and oa == ob
    assert got.hypervolume == want.hypervolume
    assert got.objective_minima == want.objective_minima


@pytest.mark.filterwarnings("error")
def test_a_schedule_whose_score_overflows_costs_only_itself(pieces, pool, monkeypatch):
    """A finite prediction whose comfort overflows is penalized without a
    warning, and the search goes on; the same prediction as the baseline
    is a numerical failure."""
    params, occ, model = pieces
    space = par.BmsSpace(params, occ)
    overflowed = []

    def overflowing_predict(model, *, inputs):
        preds = predict(model, inputs=inputs)
        preds[0, :, T_INT_INDEX] = 1e300
        overflowed.append(preds[0])
        return preds

    monkeypatch.setattr(par, "predict", overflowing_predict)
    front = par.optimize_bms(space, model, pool[0], par.NsgaConfig(population=8, generations=2),
                             seed=5)
    assert len(overflowed) == 3 and len(front) >= 1
    assert all(o.comfort < par.PENALTY for _, o in front.members)
    monkeypatch.setattr(par, "predict", lambda model, *, inputs: overflowed[0].copy())
    with pytest.raises(mdl.ModelError, match="comfort must be finite"):
        par.evaluate_settings(model, params, space.decode(np.full(space.dim, 0.5)), occ, pool[0])


@pytest.mark.filterwarnings("error")
def test_a_front_whose_every_member_overflows_is_a_model_error(pieces, pool, monkeypatch):
    """With every schedule's comfort overflowing, the whole front holds
    PENALTY scores: optimize_bms raises instead of returning it, where
    select_equivalent_comfort would pick a 'saving' of about -1.9e27."""
    params, occ, model = pieces

    def overflowing_predict(model, *, inputs):
        preds = predict(model, inputs=inputs)
        preds[..., T_INT_INDEX] = 1e300
        return preds

    monkeypatch.setattr(par, "predict", overflowing_predict)
    with pytest.raises(mdl.ModelError, match="every schedule on the front of 8 scored non-finite"):
        par.optimize_bms(par.BmsSpace(params, occ), model, pool[0],
                         par.NsgaConfig(population=8, generations=2), seed=5)


# ---------------------------------------------------------------------------
# operating-point selection


def _front_of(pairs):
    return par.ParetoFront(
        [(np.array([float(i)]), par.Objectives(c, q)) for i, (c, q) in enumerate(pairs)],
        [0.0],
    )


def test_select_spec_example():
    front = _front_of([(0.2, 90.0), (0.4, 80.0)])
    chosen = par.select_equivalent_comfort(front, par.Objectives(0.25, 100.0))
    assert chosen.objectives == par.Objectives(0.2, 90.0)
    assert chosen.savings == pytest.approx(0.10, abs=1e-12)
    assert chosen.within_tolerance


def test_select_baseline_on_front():
    front = _front_of([(0.25, 100.0), (0.3, 95.0)])
    chosen = par.select_equivalent_comfort(front, par.Objectives(0.25, 100.0))
    assert chosen.savings >= 0.0
    assert chosen.within_tolerance


def test_select_fallback_flagged():
    front = _front_of([(0.5, 90.0), (0.8, 60.0)])
    chosen = par.select_equivalent_comfort(front, par.Objectives(0.1, 100.0), tolerance=0.05)
    assert not chosen.within_tolerance
    assert chosen.objectives.comfort == 0.5  # nearest comfort gap


def test_select_edge_cases():
    with pytest.raises(ValueError):
        par.select_equivalent_comfort(par.ParetoFront([], [0.0]), par.Objectives(1, 1))
    front = _front_of([(0.1, 0.0)])
    chosen = par.select_equivalent_comfort(front, par.Objectives(0.1, 0.0))
    assert chosen.savings == 0.0


# sha256 of a seeded optimize_bms run on the untrained tiny model: each front
# member's settings and objectives, then the hypervolume and objective-minima
# histories, as float64 bytes; with frozen init weights only the search code
# and the model's arithmetic (attention as banded block GEMMs since it was
# recorded) can move it
OPTIMIZE_SHA256 = "92a84ef8b64befa608b8356a55c3b4fcff2d1c8aa245f9a22a44bc5e4c79c34f"


def test_optimize_bms_is_bit_identical_to_the_golden_run(pieces, pool):
    params, occ, model = pieces
    front = par.optimize_bms(par.BmsSpace(params, occ), model, pool[0],
                             par.NsgaConfig(population=16, generations=6), seed=5)
    h = hashlib.sha256()
    for settings, obj in front.members:
        h.update(np.asarray([*settings, obj.comfort, obj.consumption], dtype="<f8").tobytes())
    h.update(np.asarray(front.hypervolume, dtype="<f8").tobytes())
    h.update(np.asarray(front.objective_minima, dtype="<f8").tobytes())
    assert h.hexdigest() == OPTIMIZE_SHA256
