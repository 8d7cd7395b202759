"""Trainer tests: sampling determinism, loss arithmetic, metrics, fit loop."""

import gc
import hashlib
import json
import math
import multiprocessing
import signal
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import bemopt.autodiff as ad
import bemopt.model as mdl
import bemopt.training as tr
from bemopt.schema import (
    DEFAULT_SCHEMA,
    HEAT_AGGREGATE_INDICES,
    T_INT_INDEX,
    NormStats,
    SchemaError,
    expand_daily,
)
from bemopt.rcsim import NumericalError, simulate_week
from bemopt.seeding import stream, substream
from bemopt.weather import generate_pool
from tests.conftest import grad_check, parameter

TINY = mdl.MetamodelConfig(
    d_in=DEFAULT_SCHEMA.d_in, d_emb=8, r=2, v_width=2, h=2, n_layers=2, delta=3
)
# the acceptance gates' model (tests/test_acceptance.py) and the benchmark's
ACCEPTANCE = mdl.MetamodelConfig(
    d_in=DEFAULT_SCHEMA.d_in, d_emb=32, r=4, v_width=4, h=4, n_layers=3, delta=12
)


@pytest.fixture(scope="module")
def pool():
    return generate_pool(11, 3)


@pytest.fixture(scope="module")
def small_dataset(pool):
    return tr.sample_dataset(pool, 20, seed=5, counts=(16, 2, 2))


def float32_leaves(params) -> dict:
    """Grad-requiring float32 copies of params: the weights each forward of
    `train` and `predict` computes on."""
    return {k: ad.Tensor(w.astype(np.float32), requires_grad=True) for k, w in params.items()}


def float32_inputs(norm, x) -> np.ndarray:
    """Raw inputs normalized in float64, then cast to float32, as the model sees them."""
    return norm.normalize_inputs(x).astype(np.float32)


def hand_loss(pred, target):
    """Direct restatement of the two-term loss in plain numpy, alpha 1.0 and beta 0.3."""
    d_t = np.sqrt(np.mean((pred[..., T_INT_INDEX] - target[..., T_INT_INDEX]) ** 2))
    agg = lambda a: a[..., list(HEAT_AGGREGATE_INDICES)].sum(axis=-1)
    d_q = np.sqrt(np.mean((agg(pred) - agg(target)) ** 2))
    return 1.0 * np.log1p(d_t) + 0.3 * np.log1p(d_q)


# ---------------------------------------------------------------------------
# splits and sampling


def test_split_counts_ratio():
    assert tr.split_counts(4000) == (3800, 100, 100)
    assert tr.split_counts(40) == (38, 1, 1)
    for n in (3, 10, 123, 999, 2200, 40000):
        parts = tr.split_counts(n)
        assert sum(parts) == n
        assert all(p >= 1 for p in parts)


def test_split_counts_too_small():
    with pytest.raises(ValueError):
        tr.split_counts(2)


def test_grid_draw_frequencies_uniform():
    """Every declared variable's draws over 10 000 episodes hit exactly its grid,
    each level within 4 sigma of 1/n_levels (the weather index over 3 weeks too)."""
    specs = DEFAULT_SCHEMA.building + DEFAULT_SCHEMA.bms + DEFAULT_SCHEMA.occupancy
    grids = {spec.name: (spec.min + spec.step * np.arange(spec.n_levels)).tolist() for spec in specs}
    grids["week"] = [0, 1, 2]
    draws = {name: [] for name in grids}
    rng = stream(42, "freq-check")
    for _ in range(10_000):
        params, bms, occ, week = tr.sample_episode_config(DEFAULT_SCHEMA, 3, rng)
        for name, value in params.to_dict().items():
            draws[name].append(value)
        for name, values in {**bms.to_dict(), **occ.to_dict()}.items():
            draws[name] += values
        draws["week"].append(week)
    for name, grid in grids.items():
        values = np.array(draws[name])
        assert set(values.tolist()) == set(grid), name
        p = 1 / len(grid)
        sigma = math.sqrt(p * (1 - p) / len(values))
        for level in grid:
            freq = np.mean(values == level)
            assert abs(freq - p) < 4 * sigma, f"{name} = {level}: {freq} over {len(values)} draws"


def _scalar_episode_draws(schema, n_weather, rng):
    """The former sampler, restated: one scalar `rng.integers` call per draw,
    decoded as min + step × index, in the documented draw order."""
    def draw(spec):
        return float(spec.min + spec.step * rng.integers(0, spec.n_levels))

    statics = [draw(spec) for spec in schema.building]
    daily = {spec.name: [draw(spec) for _ in range(7)] for spec in schema.bms}
    occ = {spec.name: [draw(spec) for _ in range(5)] for spec in schema.occupancy}
    return statics, daily, occ, int(rng.integers(0, n_weather))


def _episode_draws(schema, n_weather, rng):
    params, bms, occ, week = tr.sample_episode_config(schema, n_weather, rng)
    return params.as_vector().tolist(), bms.to_dict(), occ.to_dict(), week


def test_episode_draws_equal_the_scalar_loop():
    """One vector draw per episode gives the former per-variable draws bit for
    bit and leaves the generator in the same state: on 1000 substreams, and on
    500 episodes chained from one generator over pools of 1 to 40 weeks."""
    for i in range(1000):
        got_rng, want_rng = substream(23, "episode", i), substream(23, "episode", i)
        got = _episode_draws(DEFAULT_SCHEMA, 30, got_rng)
        assert got == _scalar_episode_draws(DEFAULT_SCHEMA, 30, want_rng), i
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, i
    got_rng, want_rng = stream(23, "chained"), stream(23, "chained")
    for i in range(500):
        n_weather = 1 + i % 40
        got = _episode_draws(DEFAULT_SCHEMA, n_weather, got_rng)
        assert got == _scalar_episode_draws(DEFAULT_SCHEMA, n_weather, want_rng), i
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sampled_values_lie_on_grids(small_dataset):
    ds = small_dataset
    names = DEFAULT_SCHEMA.input_channel_names
    for col, spec in enumerate(DEFAULT_SCHEMA.building + DEFAULT_SCHEMA.bms):
        assert names[col] == spec.name
        values = ds.inputs[:, :, col]
        steps = (values - spec.min) / spec.step
        assert np.allclose(steps, np.round(steps), atol=1e-9), spec.name
        assert values.min() >= spec.min - 1e-9 and values.max() <= spec.max + 1e-9


def test_one_weather_week_per_example(small_dataset, pool):
    ds = small_dataset
    w0 = DEFAULT_SCHEMA.d_in - len(DEFAULT_SCHEMA.weather_channels)
    for i in range(ds.n_episodes):
        np.testing.assert_array_equal(
            ds.inputs[i, :, w0:], pool[ds.weather_index[i]].data
        )


def test_labels_match_oracle(pool):
    ds = tr.sample_dataset(pool, 4, seed=9, counts=(2, 1, 1))
    for i in range(4):
        rng = substream(9, "episode", i)
        params, bms, occ, w = tr.sample_episode_config(DEFAULT_SCHEMA, len(pool), rng)
        assert w == ds.weather_index[i]
        np.testing.assert_array_equal(simulate_week(params, bms, occ, pool[w]).data, ds.targets[i])


def test_occupancy_window_sampling(pool):
    rng = stream(3, "occ-check")
    _, _, occ, _ = tr.sample_episode_config(DEFAULT_SCHEMA, len(pool), rng)
    assert all(7 <= s <= 9 for s in occ.start_occupation)
    assert all(17 <= e <= 20 for e in occ.end_occupation)


def test_masks_match_occupancy_channel(small_dataset, pool):
    # each episode's occupied hours are its sampled weekday window, redrawn here
    ds = small_dataset
    for i in range(ds.n_episodes):
        _, _, occ, _ = tr.sample_episode_config(
            DEFAULT_SCHEMA, len(pool), substream(ds.seed, "episode", i))
        np.testing.assert_array_equal(ds.masks[i], expand_daily(occ) > 0)


def test_dataset_save_is_byte_identical(small_dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    small_dataset.save(a)
    small_dataset.save(b)
    for name in (tr.DATASET_ARRAYS, tr.DATASET_MANIFEST):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_dataset_roundtrip(small_dataset, tmp_path):
    small_dataset.save(tmp_path / "ds")
    back = tr.Dataset.load(tmp_path / "ds")
    np.testing.assert_array_equal(back.inputs, small_dataset.inputs)
    np.testing.assert_array_equal(back.targets, small_dataset.targets)
    np.testing.assert_array_equal(back.masks, small_dataset.masks)
    np.testing.assert_array_equal(back.weather_index, small_dataset.weather_index)
    for k in ("train", "val", "test"):
        np.testing.assert_array_equal(back.splits[k], small_dataset.splits[k])
    np.testing.assert_array_equal(back.norm.target_mean, small_dataset.norm.target_mean)
    assert back.seed == small_dataset.seed


@pytest.mark.parametrize("splits, match", [
    ({"val": []}, "split val"),
    ({"test": [20]}, "split test"),
    ({"train": [-1, 0]}, "split train"),
    ({"holdout": [0]}, "want train, val and test"),
], ids=["empty", "past_the_end", "negative", "extra_name"])
def test_dataset_load_rejects_splits_outside_the_corpus(small_dataset, tmp_path, splits, match):
    small_dataset.save(tmp_path)
    path = tmp_path / tr.DATASET_MANIFEST
    doc = json.loads(path.read_text())
    doc["splits"].update(splits)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=match):
        tr.Dataset.load(tmp_path)


def test_resample_deterministic(pool):
    a = tr.sample_dataset(pool, 6, seed=7, counts=(4, 1, 1))
    b = tr.sample_dataset(pool, 6, seed=7, counts=(4, 1, 1))
    c = tr.sample_dataset(pool, 6, seed=8, counts=(4, 1, 1))
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)
    assert not np.array_equal(a.inputs, c.inputs)


def test_parallel_labeling_matches_serial(pool):
    # 40 episodes are three chunks of the pool's chunksize 16, so both workers label
    a = tr.sample_dataset(pool, 40, seed=7, jobs=1)
    b = tr.sample_dataset(pool, 40, seed=7, jobs=2)
    for name in ("inputs", "targets", "weather_index"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.splits.keys() == b.splits.keys()
    for name in a.splits:
        np.testing.assert_array_equal(a.splits[name], b.splits[name])
    for name in ("input_lo", "input_hi", "target_mean", "target_std"):
        np.testing.assert_array_equal(getattr(a.norm, name), getattr(b.norm, name))
    assert a.norm.flagged == b.norm.flagged


def test_worker_numerical_error_reaches_the_parent(pool, monkeypatch):
    def fail(*args):
        raise NumericalError(7, "T_air left the sanity band")

    def hung(signum, frame):
        raise TimeoutError("labeling pool hung on a worker's error")

    monkeypatch.setattr(tr, "simulate_week", fail)  # forked workers inherit the patch
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(NumericalError, match="hour 7") as err:
            tr.sample_dataset(pool, 6, seed=7, counts=(4, 1, 1), jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert err.value.hour == 7


def test_sampling_rejections(pool):
    with pytest.raises(ValueError, match="empty"):
        tr.sample_dataset([], 4, seed=0)
    with pytest.raises(ValueError, match="sum"):
        tr.sample_dataset(pool, 4, seed=0, counts=(4, 1, 1))


# ---------------------------------------------------------------------------
# loss


def test_perfect_prediction_zero_loss(small_dataset):
    y = small_dataset.targets[:2]
    assert tr.loss(y.copy(), y) == 0.0


def test_temperature_rmse_e_minus_one_gives_unit_loss(small_dataset):
    y = small_dataset.targets[:2]
    pred = y.copy()
    pred[..., T_INT_INDEX] += math.e - 1.0
    assert abs(tr.loss(pred, y) - 1.0) < 1e-12


def test_loss_matches_hand_formula():
    rng = stream(12, "loss-toy")
    target = rng.normal(size=(3, 4, 8))
    pred = target + rng.normal(size=(3, 4, 8))
    assert abs(tr.loss(pred, target) - hand_loss(pred, target)) < 1e-12


def test_loss_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        tr.loss(np.zeros((2, 3, 8)), np.zeros((2, 4, 8)))


def test_loss_episode_permutation_invariant():
    rng = stream(13, "loss-perm")
    target = rng.normal(size=(6, 5, 8))
    pred = target + rng.normal(size=(6, 5, 8))
    perm = rng.permutation(6)
    assert abs(tr.loss(pred, target) - tr.loss(pred[perm], target[perm])) < 1e-12


def _toy_norm(rng):
    mean = rng.normal(size=8) * 5
    std = rng.uniform(0.5, 3.0, size=8)
    return NormStats(np.zeros(1), np.ones(1), mean, std)


def test_training_loss_matches_scalar_oracle():
    rng = stream(14, "loss-graph")
    norm = _toy_norm(rng)
    target_n = rng.normal(size=(2, 6, 8))
    pred_n = target_n + 0.3 * rng.normal(size=(2, 6, 8))
    total, reported = tr.training_loss(ad.constant(pred_n), target_n, norm)
    want = tr.loss(norm.denormalize_targets(pred_n), norm.denormalize_targets(target_n))
    assert abs(reported.data - want) < 1e-12
    aux = np.mean((pred_n - target_n) ** 2)
    assert abs(total.data - (want + tr.AUX_WEIGHT * aux)) < 1e-12


def test_training_loss_gradient_check():
    rng = stream(15, "loss-grad")
    norm = _toy_norm(rng)
    target_n = rng.normal(size=(2, 5, 8))
    pred = parameter(target_n + 0.2 * rng.normal(size=(2, 5, 8)))
    err = grad_check(lambda: tr.training_loss(pred, target_n, norm)[0], [pred])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# metrics


def test_r2_hand_case():
    # SS_res = 1, SS_tot = 2
    assert tr.r2_score(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 2.0])) == 0.5


def test_r2_conventions():
    y = np.array([1.0, 2.0, 4.0])
    assert tr.r2_score(y, y) == 1.0
    assert tr.r2_score(y, np.full(3, y.mean())) == 0.0
    assert tr.r2_score(np.ones(3), np.ones(3)) == 1.0  # constant target, equal
    assert tr.r2_score(np.ones(3), np.array([1.0, 1.0, 1.1])) == 0.0  # constant, differ


def test_metrics_perfect(small_dataset):
    y, m = small_dataset.targets[:3], small_dataset.masks[:3]
    rep = tr.metrics(y.copy(), y, m)
    assert rep.n_episodes == 3
    assert rep.mse_t.mean == 0.0 and rep.mse_q.mean == 0.0
    assert rep.r2_t.mean == 1.0 and rep.r2_q.mean == 1.0
    assert rep.loss.mean == 0.0


def test_metrics_constant_mean_prediction_r2_zero(small_dataset):
    y = small_dataset.targets[:1]
    pred = y.copy()
    pred[0, :, T_INT_INDEX] = y[0, :, T_INT_INDEX].mean()
    rep = tr.metrics(pred, y, small_dataset.masks[:1])
    assert abs(rep.r2_t.mean) < 1e-12
    assert rep.r2_q.mean == 1.0


def test_metrics_hand_mse(small_dataset):
    y, m = small_dataset.targets[:1], small_dataset.masks[:1]
    pred = y.copy()
    pred[..., T_INT_INDEX] += 0.5
    rep = tr.metrics(pred, y, m)
    assert abs(rep.mse_t.mean - 0.25) < 1e-12
    assert rep.mse_q.mean == 0.0
    assert abs(rep.mse_t_occ.mean - 0.25) < 1e-12
    assert rep.loss.mean == pytest.approx(math.log1p(0.5), abs=1e-12)


def test_metrics_occupied_restriction(small_dataset):
    y, m = small_dataset.targets[:1], small_dataset.masks[:1]
    pred = y.copy()
    pred[0, ~m[0], T_INT_INDEX] += 2.0  # perturb unoccupied hours only
    rep = tr.metrics(pred, y, m)
    assert rep.mse_t.mean > 0.0
    assert rep.mse_t_occ.mean == 0.0


def test_metrics_empty_mask_absent(small_dataset):
    y = small_dataset.targets[:2]
    rep = tr.metrics(y.copy(), y, np.zeros((2, 168), dtype=bool))
    assert rep.mse_t_occ is None and rep.mse_q_occ is None
    assert rep.mse_t is not None
    d = rep.to_dict()
    assert d["mse_t_occ"] is None


def test_metrics_mixed_masks_aggregate_present_only(small_dataset):
    y = small_dataset.targets[:2]
    masks = small_dataset.masks[:2].copy()
    masks[1, :] = False
    pred = y.copy()
    pred[0, masks[0], T_INT_INDEX] += 1.0
    rep = tr.metrics(pred, y, masks)
    # only episode 0 contributes to the occupied stats
    assert abs(rep.mse_t_occ.mean - 1.0) < 1e-12
    assert rep.mse_t_occ.std == 0.0


def test_metrics_translation_invariance_of_mse(small_dataset):
    y, m = small_dataset.targets[:2], small_dataset.masks[:2]
    pred = y + 0.3 * stream(16, "mse-shift").normal(size=y.shape)
    a = tr.metrics(pred, y, m)
    b = tr.metrics(pred + 4.2, y + 4.2, m)
    for field in ("mse_t", "mse_q", "mse_t_occ", "mse_q_occ"):
        assert getattr(a, field).mean == pytest.approx(getattr(b, field).mean, abs=1e-9)


def test_metrics_scaling_behavior(small_dataset):
    y, m = small_dataset.targets[:2], small_dataset.masks[:2]
    pred = y + 0.3 * stream(17, "mse-scale").normal(size=y.shape)
    lam = 2.5
    a = tr.metrics(pred, y, m)
    b = tr.metrics(lam * pred, lam * y, m)
    # RMSE scales by lambda (MSE by lambda^2), R^2 unchanged
    assert math.sqrt(b.mse_t.mean) == pytest.approx(lam * math.sqrt(a.mse_t.mean), rel=1e-9)
    assert math.sqrt(b.mse_q.mean) == pytest.approx(lam * math.sqrt(a.mse_q.mean), rel=1e-9)
    assert abs(a.r2_t.mean - b.r2_t.mean) < 1e-9
    assert abs(a.r2_q.mean - b.r2_q.mean) < 1e-9


# ---------------------------------------------------------------------------
# prediction and the fit loop


def test_predict_batch_size_invariant(small_dataset, monkeypatch):
    ds = small_dataset
    model = mdl.FrozenModel(mdl.init_transformer(TINY, stream(2, "pred-init")), TINY,
                            "transformer", ds.norm)
    n = ds.n_episodes
    monkeypatch.setattr(tr, "PREDICT_BATCH", n)
    full = tr.predict(model, inputs=ds.inputs)
    for batch_size in (1, 2, 3, 32):
        monkeypatch.setattr(tr, "PREDICT_BATCH", batch_size)
        got = tr.predict(model, inputs=ds.inputs)
        assert np.array_equal(got, full), batch_size
    one = tr.predict(model, inputs=ds.inputs[0])
    assert one.shape == (168, 8)
    assert np.array_equal(one, full[0])


@pytest.mark.parametrize("kind", ["transformer", "ffn"])
def test_predict_is_the_taped_forward_without_a_tape(small_dataset, kind):
    ds = small_dataset
    params = mdl.INITS[kind](TINY, stream(4, "tape-free"))
    got = tr.predict(mdl.FrozenModel(params, TINY, kind, ds.norm), inputs=ds.inputs[:4])
    taped = mdl.FORWARDS[kind](float32_leaves(params), TINY,
                               ad.constant(float32_inputs(ds.norm, ds.inputs[:4])))
    assert taped.requires_grad  # the reference really builds a graph
    assert taped.data.dtype == np.float32 and got.dtype == np.float64
    assert np.array_equal(got, ds.norm.denormalize_targets(taped.data))


def test_predict_takes_the_model_and_its_inputs_by_keyword(small_dataset):
    ds = small_dataset
    model = mdl.FrozenModel(mdl.init_transformer(TINY, stream(2, "pred-init")), TINY,
                            "transformer", ds.norm)
    with pytest.raises(TypeError):
        tr.predict(model, ds.inputs[:2])
    with pytest.raises(TypeError):
        tr.predict(model.params, model.config, model.kind, ds.inputs[:2], model.norm)


@pytest.mark.parametrize("kind", ["transformer", "ffn"])
def test_predict_leaves_the_weights_bit_for_bit(small_dataset, kind):
    model = mdl.FrozenModel(mdl.INITS[kind](TINY, stream(4, "tape-free")), TINY, kind,
                            small_dataset.norm)
    before = {name: (w, w.tobytes()) for name, w in model.params.items()}
    tr.predict(model, inputs=small_dataset.inputs[:4])
    assert model.params.keys() == before.keys()
    assert all(model.params[name] is w and w.tobytes() == bits
               for name, (w, bits) in before.items())


def test_train_validates_through_the_model_it_returns(pool, monkeypatch):
    """train builds one FrozenModel over the float64 weight arrays Adam
    updates in place: epoch 0 and every epoch after validate through it,
    and it is the model train returns."""
    ds = tr.sample_dataset(pool, 8, seed=4, counts=(6, 1, 1))
    seen, predict = [], tr.predict

    def record(model, *, inputs):
        seen.append(model)
        return predict(model, inputs=inputs)

    monkeypatch.setattr(tr, "predict", record)
    res = tr.train(ds, "transformer", TINY, epochs=2, batch_size=4, seed=21)
    assert len(seen) == 3 and all(model is res.model for model in seen)
    assert all(type(w) is np.ndarray and w.dtype == np.float64
               for w in res.model.params.values())


@pytest.fixture(scope="module")
def overfit_run(pool):
    """One 500-epoch memorization run on 10 episodes, shared by tests below."""
    ds = tr.sample_dataset(pool, 12, seed=5, counts=(10, 1, 1))
    idx = ds.splits["train"]
    memorize = replace(ds, splits={**ds.splits, "val": idx})  # validate on the train set
    cfg = mdl.MetamodelConfig(
        d_in=DEFAULT_SCHEMA.d_in, d_emb=32, r=4, v_width=4, h=4, n_layers=2, delta=12
    )
    res = tr.train(memorize, "transformer", cfg, epochs=500, batch_size=16, lr=1e-2, seed=3)
    return ds, idx, cfg, res


def test_overfit_memorizes_ten_episodes(overfit_run):
    ds, idx, cfg, res = overfit_run
    assert res.best_val_loss < 0.45 * res.history[0]["val_loss"]
    pred = tr.predict(res.model, inputs=ds.inputs[idx])
    rep = tr.metrics(pred, ds.targets[idx], ds.masks[idx])
    assert rep.r2_t.mean > 0.98
    assert rep.r2_q.mean > 0.98


def test_overfit_loss_falls_below_its_bound(overfit_run):
    """The memorization run reads best_val_loss 1.123 from 3.285 at epoch 0
    (a fixed rate reached 1.145); a run that stalls or regresses fails."""
    _, _, _, res = overfit_run
    assert res.best_val_loss < 1.25
    assert res.best_val_loss < 0.4 * res.history[0]["val_loss"]


def test_train_determinism(pool, tmp_path):
    ds = tr.sample_dataset(pool, 8, seed=4, counts=(6, 1, 1))
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        runs.append(tr.train(ds, "transformer", TINY, epochs=2, batch_size=4, seed=21))
        runs[-1].model.save(out / "model.bin")
        tr.save_history_csv(out / "history.csv", runs[-1].history)
    a, b = runs
    assert a.best_epoch == b.best_epoch
    for ra, rb in zip(a.history, b.history):
        for k in ra:
            assert ra[k] == rb[k] or (np.isnan(ra[k]) and np.isnan(rb[k]))
    assert (tmp_path / "a" / "model.bin").read_bytes() == (tmp_path / "b" / "model.bin").read_bytes()
    assert (tmp_path / "a" / "history.csv").read_bytes() == (tmp_path / "b" / "history.csv").read_bytes()


def test_best_checkpoint_selection(pool):
    ds = tr.sample_dataset(pool, 8, seed=4, counts=(6, 1, 1))
    res = tr.train(ds, "transformer", TINY, epochs=3, batch_size=4, seed=21)
    val_losses = [row["val_loss"] for row in res.history]
    assert res.best_val_loss == min(val_losses)
    assert res.best_val_loss <= res.history[0]["val_loss"]
    assert res.history[res.best_epoch]["val_loss"] == res.best_val_loss
    # the returned parameters reproduce the recorded best validation loss
    vx, vy, _ = ds.split_arrays("val")
    pred = tr.predict(res.model, inputs=vx)
    assert tr.loss(pred, vy) == pytest.approx(res.best_val_loss, abs=1e-12)


def test_divergence_raises_naming_the_epoch(pool):
    ds = tr.sample_dataset(pool, 8, seed=4, counts=(6, 1, 1))
    corrupted = tr.Dataset(
        inputs=ds.inputs,
        targets=ds.targets.copy(),
        weather_index=ds.weather_index,
        splits=ds.splits,
        norm=ds.norm,  # fitted before the corruption below
        seed=ds.seed,
        n_weather=ds.n_weather,
    )
    corrupted.targets[0, 0, 0] = np.inf  # train split only; val stays clean
    with pytest.raises(mdl.ModelError, match="epoch 1"):
        tr.train(corrupted, "transformer", TINY, epochs=3, batch_size=8, seed=21)


def test_learning_rate_follows_one_cosine_decay(pool, monkeypatch):
    """Step k of K uses lr·½(1 + cos(πk/K)): step 0 the full rate, none more."""
    ds = tr.sample_dataset(pool, 8, seed=4, counts=(6, 1, 1))
    rates = []
    adam_step = ad.adam_step

    def record(params, grads, state):
        rates.append(state.lr)
        adam_step(params, grads, state)

    monkeypatch.setattr(ad, "adam_step", record)
    lr, epochs = 2e-3, 3
    tr.train(ds, "transformer", TINY, epochs=epochs, batch_size=4, lr=lr, seed=21)
    n_steps = epochs * 2  # 6 training episodes in batches of 4 and 2
    assert len(rates) == n_steps
    assert rates[0] == lr
    for k, rate in enumerate(rates):
        assert rate == pytest.approx(lr * 0.5 * (1.0 + math.cos(math.pi * k / n_steps)), rel=1e-15)
    assert max(rates) <= lr
    assert all(later < earlier for earlier, later in zip(rates, rates[1:]))


def test_history_csv_roundtrip(pool, tmp_path):
    ds = tr.sample_dataset(pool, 8, seed=4, counts=(6, 1, 1))
    res = tr.train(ds, "ffn", TINY, epochs=2, batch_size=4, seed=6)
    path = tmp_path / "history.csv"
    tr.save_history_csv(path, res.history)
    back = tr.load_history_csv(path)
    assert len(back) == len(res.history)
    for ra, rb in zip(res.history, back):
        for k in ra:
            assert ra[k] == rb[k] or (np.isnan(ra[k]) and np.isnan(rb[k]))


def test_train_validates_model_widths(small_dataset):
    bad = mdl.MetamodelConfig(d_in=7, d_emb=8, r=2, v_width=2, h=2, n_layers=2, delta=3)
    with pytest.raises(ValueError, match="widths"):
        tr.train(small_dataset, "transformer", bad, epochs=1)


def test_out_dir_artifacts_roundtrip(pool, tmp_path):
    ds = tr.sample_dataset(pool, 8, seed=4, counts=(6, 1, 1))
    res = tr.train(ds, "transformer", TINY, epochs=2, batch_size=4, seed=21)
    assert res.model.norm is ds.norm
    res.model.save(tmp_path / "model.bin")
    back = mdl.FrozenModel.load(tmp_path / "model.bin")
    assert back.kind == "transformer" and back.config == TINY
    assert tuple(back.norm.target_mean) == tuple(ds.norm.target_mean)
    vx = ds.inputs[ds.splits["val"]]
    np.testing.assert_array_equal(
        tr.predict(back, inputs=vx),
        tr.predict(res.model, inputs=vx),
    )


# ---------------------------------------------------------------------------
# the training run at the acceptance config, pinned bit for bit


@pytest.fixture(scope="module")
def golden_corpus():
    return tr.sample_dataset(generate_pool(3, 4), 72, seed=5)


def _train_golden(ds):
    return tr.train(ds, config=ACCEPTANCE, epochs=2, batch_size=32, lr=3e-3, seed=1)


# sha256 of the final parameters (insertion order, float64 bytes) and of the
# history values (one float64 row per epoch, _HISTORY_COLUMNS order), recorded
# with the cosine learning-rate decay on a corpus labeled one segment per hour,
# the model run in float32 on float64 master weights and attention's
# products run as banded block GEMMs
GOLDEN_PARAMS_SHA256 = "88bed96dcd898e01710470a8aea3aec4a6755ec71f6f7134f14c94591f42d715"
GOLDEN_HISTORY_SHA256 = "59cc44d3e55978799ed39e92d10acd36facb7789fd2c18d69e15d064597dc262"


def _golden_digests(res):
    h = hashlib.sha256()
    for w in res.model.params.values():
        h.update(np.ascontiguousarray(w).tobytes())
    history = np.array([[row[c] for c in tr._HISTORY_COLUMNS] for row in res.history],
                       dtype=np.float64)
    return h.hexdigest(), hashlib.sha256(history.tobytes()).hexdigest()


def test_training_is_bit_identical_to_the_golden_run(golden_corpus):
    """Any change to a float operation of the forward, the backward or Adam
    moves these digests; the surrogate-accuracy gate sees such drift only
    after a 10-minute run, and then as noise in R²."""
    res = _train_golden(golden_corpus)
    assert _golden_digests(res) == (GOLDEN_PARAMS_SHA256, GOLDEN_HISTORY_SHA256)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_golden_run_bits_do_not_depend_on_the_core_count(golden_corpus, monkeypatch, cores):
    """train cuts each batch into shards of TRAIN_SHARD sequences, whatever
    the core count, and the cores share them; the 32-row batches here are
    four shards, run in one chunk at one core, in two and in three
    chunks."""
    monkeypatch.setattr(tr, "_cores", lambda: cores)
    res = _train_golden(golden_corpus)
    assert _golden_digests(res) == (GOLDEN_PARAMS_SHA256, GOLDEN_HISTORY_SHA256)


def test_predict_bits_do_not_depend_on_the_core_count(golden_corpus, monkeypatch):
    """predict splits each batch's sequences among the cores; every row must
    equal its own one-sequence forward, at 1 row, at calibrate's 30 (10
    candidates x 3 weeks) and at optimize's 48 (batches of 32 and 16)."""
    ds = golden_corpus
    x = ds.inputs[:48]
    for kind in ("transformer", "ffn"):
        params = mdl.INITS[kind](ACCEPTANCE, stream(7, "cores"))
        model = mdl.FrozenModel(params, ACCEPTANCE, kind, ds.norm)
        forward, leaves = mdl.FORWARDS[kind], float32_leaves(params)
        alone = np.stack([
            ds.norm.denormalize_targets(
                forward(leaves, ACCEPTANCE, ad.constant(float32_inputs(ds.norm, row[None]))).data[0])
            for row in x])
        for cores in (1, 2, 3):
            monkeypatch.setattr(tr, "_cores", lambda: cores)
            for rows in (1, 30, 48):
                got = tr.predict(model, inputs=x[:rows])
                assert np.array_equal(got, alone[:rows]), (kind, cores, rows)


def test_predict_raises_once_on_a_nonfinite_last_row_on_three_cores(golden_corpus, monkeypatch):
    """The last row's chunk runs on a pool thread; its NaN or inf (whose
    layer_norm makes inf - inf) must reach the one finiteness check under
    the caller's errstate, with no warning first."""
    monkeypatch.setattr(tr, "_cores", lambda: 3)
    ds = golden_corpus
    model = mdl.FrozenModel(mdl.init_transformer(ACCEPTANCE, stream(7, "cores")), ACCEPTANCE,
                            "transformer", ds.norm)
    for bad in (np.nan, np.inf):
        x = ds.inputs[:30].copy()
        x[-1, 100, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(mdl.ModelError, match="transformer model: non-finite output"):
                tr.predict(model, inputs=x)


def test_predict_raises_once_on_an_input_that_overflows_its_normalization(golden_corpus):
    """1e308 in a column whose fitted range is 0.1 wide overflows when it is
    normalized; that ends as predict's ModelError with no warning first."""
    ds = golden_corpus
    model = mdl.FrozenModel(mdl.init_transformer(ACCEPTANCE, stream(7, "cores")), ACCEPTANCE,
                            "transformer", ds.norm)
    col = DEFAULT_SCHEMA.input_channel_names.index("facade_1_thickness_2")
    assert ds.norm.input_hi[col] - ds.norm.input_lo[col] <= 0.1 + 1e-12
    x = ds.inputs[:3].copy()
    x[:, :, col] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mdl.ModelError, match="transformer model: non-finite output"):
            tr.predict(model, inputs=x)


def test_predict_raises_once_on_an_input_beyond_float32s_range(golden_corpus):
    """A normalized input of 1e39 is finite in float64 but beyond float32's
    largest value, so its cast to the compute dtype makes inf; that ends as
    predict's ModelError with no warning first, for either kind."""
    ds = golden_corpus
    col = DEFAULT_SCHEMA.input_channel_names.index("facade_1_thickness_2")
    lo, hi = ds.norm.input_lo[col], ds.norm.input_hi[col]
    x = ds.inputs[:3].copy()
    x[:, :, col] = lo + 1e39 * (hi - lo)
    xn = ds.norm.normalize_inputs(x)
    assert np.isfinite(xn).all() and xn[..., col].min() > np.finfo(np.float32).max
    for kind in ("transformer", "ffn"):
        model = mdl.FrozenModel(mdl.INITS[kind](ACCEPTANCE, stream(7, "cores")), ACCEPTANCE,
                                kind, ds.norm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(mdl.ModelError, match=f"{kind} model: non-finite output"):
                tr.predict(model, inputs=x)


def _step_gradients_by_a_serial_loop(params, kind, x, y, norm):
    """One step's parameter gradients, restated as a plain loop on one
    thread: each TRAIN_SHARD-sequence shard's float32 forward on its own
    float32 copy of the parameters, the float64 loss on the joined
    predictions, each shard's backward seeded with its rows of their
    gradient in float32, and the shards' gradients added up in float64 in
    shard order."""
    starts = range(0, len(x), tr.TRAIN_SHARD)
    copies = [{k: ad.Tensor(v.astype(np.float32), requires_grad=True) for k, v in params.items()}
              for _ in starts]
    roots = [mdl.FORWARDS[kind](own, TINY, ad.constant(x[a:a + tr.TRAIN_SHARD]))
             for own, a in zip(copies, starts)]
    pred = parameter(np.concatenate([r.data for r in roots]))
    tr.training_loss(pred, y, norm)[0].backward()
    for root, a in zip(roots, starts):
        root.backward(pred.grad[a:a + tr.TRAIN_SHARD].astype(np.float32))
    grads = []
    for k in params:
        g = copies[0][k].grad.astype(np.float64)
        for own in copies[1:]:
            g = g + own[k].grad.astype(np.float64)
        grads.append(g)
    return grads


@pytest.mark.parametrize("kind", ["transformer", "ffn"])
def test_step_gradients_are_the_shard_gradients_summed_in_shard_order(pool, monkeypatch, kind):
    """Every step's gradients at 1, 2 and 3 cores equal the serial loop's,
    bit for bit, on the parameters the step started from: batches of 20
    (shards 8/8/4, so at 2 cores one chunk runs two shards) and of 16 then
    4 (shards 8/8, then one shard of 4)."""
    ds = tr.sample_dataset(pool, 24, seed=4, counts=(20, 2, 2))
    xn, yn = float32_inputs(ds.norm, ds.inputs), ds.norm.normalize_targets(ds.targets)
    order = ds.splits["train"][substream(21, "shuffle", 1).permutation(20)]
    names = list(mdl.INITS[kind](TINY, stream(0, "names")))  # adam_step's parameter order
    adam_step = ad.adam_step
    for batch_size in (20, 16):
        runs = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(tr, "_cores", lambda: cores)
            steps = []

            def record(params, grads, state):
                steps.append(({k: w.copy() for k, w in zip(names, params)},
                              [g.copy() for g in grads]))
                adam_step(params, grads, state)

            monkeypatch.setattr(ad, "adam_step", record)
            tr.train(ds, kind, TINY, epochs=1, batch_size=batch_size, seed=21)
            runs.append(steps)
        assert len(runs[0]) == -(-20 // batch_size)
        monkeypatch.setattr(tr, "_cores", lambda: 1)
        for k, (params, _) in enumerate(runs[0]):
            sel = order[k * batch_size:(k + 1) * batch_size]
            with tr._core_split():  # one BLAS thread, as in the runs
                want = _step_gradients_by_a_serial_loop(params, kind, xn[sel], yn[sel], ds.norm)
            for cores, steps in zip((1, 2, 3), runs):
                got_params, got = steps[k]
                assert all(np.array_equal(got_params[n], params[n]) for n in params)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), (batch_size, cores, k)


@pytest.mark.parametrize("kind", ["transformer", "ffn"])
def test_the_model_runs_in_float32_on_float64_master_weights(small_dataset, monkeypatch,
                                                             tmp_path, kind):
    """Every op of train's shard forwards and of predict's tape-free
    forwards makes a float32 array, the attention softmax's own
    exponentials (what ad._slot_sum adds) are float32, not just the
    weights it writes, and every shard leaf's gradient is float32; the
    loss on the joined predictions runs in float64, and Adam's gradients
    and moments, the weights, predict's output and model.bin's payload
    are float64. An op that upcast part of a float32 forward would
    still give the same bits on every core count and batch split, so only
    this test sees it."""
    phase, made = ["model"], {"model": [], "loss": []}
    result, training_loss, forward, adam_step, slot_sum = (
        ad._result, tr.training_loss, mdl.FORWARDS[kind], ad.adam_step, ad._slot_sum)
    shard_leaves, states, summed = [], [], []

    def record(data, parents, vjps):
        made[phase[0]].append(data.dtype)
        return result(data, parents, vjps)

    def record_sum(x):  # sees the softmax's own exponentials, not just pi
        summed.append(x.dtype)
        return slot_sum(x)

    def loss(pred, target_norm, norm):  # runs between fork-joins, with no forward
        phase[0] = "loss"
        try:
            return training_loss(pred, target_norm, norm)
        finally:
            phase[0] = "model"

    def keep_shard_leaves(params, cfg, x):
        if all(p.requires_grad for p in params.values()):
            shard_leaves.append(params)
        return forward(params, cfg, x)

    def keep_state(params, grads, state):
        assert all(g.dtype == np.float64 for g in grads)
        states.append(state)
        adam_step(params, grads, state)

    monkeypatch.setattr(ad, "_result", record)
    monkeypatch.setattr(ad, "_slot_sum", record_sum)
    monkeypatch.setattr(tr, "training_loss", loss)
    monkeypatch.setitem(mdl.FORWARDS, kind, keep_shard_leaves)
    monkeypatch.setattr(ad, "adam_step", keep_state)
    res = tr.train(small_dataset, kind, TINY, epochs=2, batch_size=12, seed=21)

    float32, float64 = np.dtype(np.float32), np.dtype(np.float64)
    assert made["model"] and set(made["model"]) == {float32}
    assert made["loss"] and set(made["loss"]) == {float64}
    assert set(summed) == ({float32} if kind == "transformer" else set())
    assert len(shard_leaves) == 2 * 3  # two epochs of shards 8/4, then 4
    assert all(p.data.dtype == float32 and p.grad.dtype == float32
               for own in shard_leaves for p in own.values())
    assert len(states) == 2 * 2
    assert all(m.dtype == v.dtype == float64 for m, v in zip(states[-1].m, states[-1].v))

    made["model"].clear()
    summed.clear()
    params = list(res.model.params.values())
    out = tr.predict(res.model, inputs=small_dataset.inputs[:3])
    assert made["model"] and set(made["model"]) == {float32}
    assert set(summed) == ({float32} if kind == "transformer" else set())
    assert out.dtype == float64
    assert all(w.dtype == float64 for w in params)
    # Adam steps in float64: the weights are not float32 values
    assert any((w != w.astype(np.float32)).any() for w in params)
    res.model.save(tmp_path / "model.bin")
    payload = b"".join(np.ascontiguousarray(w, dtype="<f8").tobytes() for w in params)
    assert (tmp_path / "model.bin").read_bytes().endswith(payload)


@pytest.fixture
def blas():
    """OpenBLAS's (get, set) thread-count functions, or None. The count is
    set to two for the test, so a count left pinned at one shows even after
    earlier calls, and comes back afterwards."""
    blas = tr._openblas()
    if blas is None:
        yield None
        return
    before = blas[0]()
    blas[1](2)
    try:
        yield blas
    finally:
        blas[1](before)


def test_a_nonfinite_shard_on_a_pool_thread_ends_as_a_model_error(pool, monkeypatch, blas):
    """At 3 cores a batch of 24 is three shards, and a pool thread runs the
    last; a NaN or inf input there (whose layer_norm makes inf - inf), or
    one that normalizes beyond float32's range (its cast makes inf), must
    end as the ModelError naming the epoch, with no warning first."""
    monkeypatch.setattr(tr, "_cores", lambda: 3)
    ds = tr.sample_dataset(pool, 28, seed=4, counts=(24, 2, 2))
    last = ds.splits["train"][substream(21, "shuffle", 1).permutation(24)][-1]
    before = blas[0]() if blas else None
    beyond_float32 = ds.norm.input_lo[0] + 1e39 * (ds.norm.input_hi[0] - ds.norm.input_lo[0])
    assert np.isfinite(beyond_float32)
    for bad in (np.nan, np.inf, beyond_float32):
        inputs = ds.inputs.copy()
        inputs[last, 100, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(mdl.ModelError, match="not finite in epoch 1"):
                tr.train(replace(ds, inputs=inputs), "transformer", TINY,
                         epochs=2, batch_size=24, seed=21)
        assert _row_threads() == []  # the pool closed on the way out
        assert (blas[0]() if blas else None) == before


def test_predict_divides_a_batch_among_the_cores_not_copies_it(golden_corpus, monkeypatch):
    """A 32-row batch on 2 cores is two 16-row forwards at once, so its
    traced peak stays within 10% of one 32-row forward's (both read about
    22.3 MiB); a full batch per core would peak near twice that."""
    ds = golden_corpus
    model = mdl.FrozenModel(mdl.init_transformer(ACCEPTANCE, stream(7, "cores")), ACCEPTANCE,
                            "transformer", ds.norm)
    peaks = {}
    for cores in (1, 2):
        monkeypatch.setattr(tr, "_cores", lambda: cores)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tr.predict(model, inputs=ds.inputs[:32])
            peaks[cores] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[1], peaks


def test_train_and_predict_restore_the_blas_thread_count(small_dataset, blas):
    if blas is None:
        pytest.skip("no OpenBLAS found in this process")
    threads = blas[0]
    before = threads()
    res = tr.train(small_dataset, "transformer", TINY, epochs=1, batch_size=8, seed=21)
    assert threads() == before
    tr.predict(res.model, inputs=small_dataset.inputs[:3])
    assert threads() == before


def _row_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("bemopt-rows")]


def test_no_pool_thread_outlives_train_or_predict(small_dataset, monkeypatch):
    """Each call's chunks run on its own pool while it runs, and the pool is
    closed by the time it returns."""
    monkeypatch.setattr(tr, "_cores", lambda: 3)
    forward, threads = mdl.FORWARDS["transformer"], set()

    def recorded(*args):
        threads.add(threading.current_thread().name)
        return forward(*args)

    monkeypatch.setitem(mdl.FORWARDS, "transformer", recorded)
    res = tr.train(small_dataset, "transformer", TINY, epochs=1, batch_size=16, seed=21)
    assert any(name.startswith("bemopt-rows") for name in threads)
    assert _row_threads() == []
    threads.clear()
    tr.predict(res.model, inputs=small_dataset.inputs[:3])
    assert any(name.startswith("bemopt-rows") for name in threads)
    assert _row_threads() == []


class TestCoreSplit:
    def test_chunks_cover_the_rows_once(self, monkeypatch):
        seen = []

        def record(lo, hi):
            seen.append((lo, hi, threading.get_ident()))

        monkeypatch.setattr(tr, "_cores", lambda: 1)
        with tr._core_split() as split:
            split(record, 10)
        assert seen == [(0, 10, threading.get_ident())]
        seen.clear()
        monkeypatch.setattr(tr, "_cores", lambda: 3)
        with tr._core_split() as split:
            split(record, 10)
            assert sorted((lo, hi) for lo, hi, _ in seen) == [(0, 3), (3, 6), (6, 10)]
            assert (0, 3, threading.get_ident()) in seen  # the caller runs the first chunk
            seen.clear()
            split(record, 2)  # never an empty chunk
        assert sorted((lo, hi) for lo, hi, _ in seen) == [(0, 1), (1, 2)]

    def test_a_chunk_error_is_raised_after_every_chunk_ran(self, monkeypatch):
        monkeypatch.setattr(tr, "_cores", lambda: 3)
        done = []

        def chunk(lo, hi):
            if lo == 0:
                raise ValueError("first chunk")
            time.sleep(0.05)
            done.append(lo)

        with pytest.raises(ValueError, match="first chunk"), tr._core_split() as split:
            split(chunk, 3)
        assert sorted(done) == [1, 2]

    def test_chunks_keep_the_callers_errstate(self, monkeypatch):
        """An overflow in the last chunk, which a pool thread runs, is
        silenced by the caller's errstate like one in the first."""
        monkeypatch.setattr(tr, "_cores", lambda: 3)
        x = np.ones((3, 4, 5))
        x[-1, -1] = 1e308  # its sum overflows, then inf - inf
        out, threads = np.empty_like(x), {}

        def chunk(lo, hi):
            threads[lo] = threading.get_ident()
            out[lo:hi] = ad.layer_norm(x[lo:hi], np.ones(5), np.zeros(5)).data

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"), tr._core_split() as split:
                split(chunk, 3)
        assert threads[2] != threading.get_ident()  # the overflow ran on the pool
        assert np.isfinite(out[:-1]).all() and np.isfinite(out[-1, :-1]).all()
        assert not np.isfinite(out[-1, -1]).any()

    def test_blas_is_held_to_one_thread_inside_only(self, blas):
        if blas is None:
            pytest.skip("no OpenBLAS found in this process")
        threads = blas[0]
        before = threads()
        with tr._core_split():
            assert threads() == 1
        assert threads() == before


def _predict_in_a_child(model, x):
    return tr.predict(model, inputs=x)


def test_a_fork_after_training_gets_a_working_pool(pool, monkeypatch):
    """A child forked after train, as `sample --jobs` forks, splits its
    predict over a pool of its own and gets the parent's bits."""
    monkeypatch.setattr(tr, "_cores", lambda: 2)
    ds = tr.sample_dataset(pool, 12, seed=4, counts=(10, 1, 1))
    res = tr.train(ds, "transformer", TINY, epochs=1, batch_size=10, seed=21)  # shards 8/2
    forked = tr.sample_dataset(pool, 12, seed=4, counts=(10, 1, 1), jobs=2)
    assert np.array_equal(forked.inputs, ds.inputs)
    assert np.array_equal(forked.targets, ds.targets)
    x = ds.inputs[:4]  # two chunks of two rows: the second runs on the child's pool
    with multiprocessing.get_context("fork").Pool(1) as workers:
        got = workers.apply_async(_predict_in_a_child, (res.model, x)).get(timeout=60)
    assert np.array_equal(got, _predict_in_a_child(res.model, x))


def test_training_peak_memory_stays_near_one_graph(golden_corpus):
    """train() holds at most one step's graph at a time: backward frees it as
    it sweeps, so step k+1's forward never coexists with step k's graph
    (which used to put the traced peak at ~2.5 graphs). The graph is built
    as train builds it: a float32 forward, then the float64 loss on a leaf
    over its predictions (26.6 MiB; the peak reads about 1.2 of them)."""
    ds = golden_corpus
    sel = ds.splits["train"][:32]
    params = mdl.init_transformer(ACCEPTANCE, stream(1, "transformer-init"))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        root = mdl.transformer_forward(float32_leaves(params), ACCEPTANCE,
                                       ad.constant(float32_inputs(ds.norm, ds.inputs[sel])))
        pred = parameter(root.data)
        graph = tr.training_loss(pred, ds.norm.normalize_targets(ds.targets[sel]), ds.norm)
        graph_bytes = tracemalloc.get_traced_memory()[0] - base
        del root, pred, graph
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _train_golden(ds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * graph_bytes, f"train peak {peak / graph_bytes:.2f} graphs"


def test_one_step_graph_holds_only_what_backward_reads(golden_corpus):
    """A B=32 acceptance-config forward plus loss holds at most 64 MiB: the
    graph keeps the arrays its VJPs read, not every forward result through
    the Tensors that made them (that held ~109 MiB)."""
    ds = golden_corpus
    sel = ds.splits["train"][:32]
    weights = mdl.init_transformer(ACCEPTANCE, stream(1, "transformer-init"))
    params = {name: parameter(w) for name, w in weights.items()}
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pred = mdl.transformer_forward(
            params, ACCEPTANCE, ad.constant(ds.norm.normalize_inputs(ds.inputs[sel])))
        graph = tr.training_loss(pred, ds.norm.normalize_targets(ds.targets[sel]), ds.norm)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 64 * 2**20, f"one-step graph holds {held / 2**20:.1f} MiB"
