"""Trainer tests: sampling determinism, loss arithmetic, metrics, fit loop."""

import json
import math
import os
import signal
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
    VariableSpec,
    expand_daily,
)
from bemopt.rcsim import NumericalError, simulate_week
from bemopt.seeding import stream, substream
from bemopt.weather import generate_pool

TINY = mdl.MetamodelConfig(
    d_in=DEFAULT_SCHEMA.d_in, d_emb=8, r=2, v_width=2, h=2, n_layers=2, delta=3
)


@pytest.fixture(scope="module")
def pool():
    return generate_pool(11, 3)


@pytest.fixture(scope="module")
def small_dataset(pool):
    return tr.sample_dataset(pool, 20, seed=5, counts=(16, 2, 2))


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
    # three-atom grid; each frequency within 3 sigma of 1/3 at n=10000
    spec = VariableSpec("window", 7, 9, 1)
    rng = stream(42, "freq-check")
    draws = np.array([spec.sample(rng) for _ in range(10_000)])
    sigma = math.sqrt((1 / 3) * (2 / 3) / 10_000)
    for atom in (7.0, 8.0, 9.0):
        freq = np.mean(draws == atom)
        assert abs(freq - 1 / 3) < 3 * sigma, f"atom {atom}: {freq}"


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
    with pytest.raises(tr.TrainingError, match=match):
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
    pred = ad.parameter(target_n + 0.2 * rng.normal(size=(2, 5, 8)))
    err = ad.grad_check(lambda: tr.training_loss(pred, target_n, norm)[0], [pred])
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


def test_predict_batch_size_invariant(small_dataset):
    ds = small_dataset
    params = mdl.init_transformer(TINY, stream(2, "pred-init"))
    n = ds.n_episodes
    full = tr.predict(params, TINY, "transformer", ds.inputs, ds.norm, batch_size=n)
    for batch_size in (1, 2, 3, 32):
        got = tr.predict(params, TINY, "transformer", ds.inputs, ds.norm, batch_size=batch_size)
        assert np.array_equal(got, full), batch_size
    one = tr.predict(params, TINY, "transformer", ds.inputs[0], ds.norm)
    assert one.shape == (168, 8)
    assert np.array_equal(one, full[0])


@pytest.mark.parametrize("kind", ["transformer", "ffn"])
def test_predict_is_the_taped_forward_without_a_tape(small_dataset, kind):
    ds = small_dataset
    params = mdl.INITS[kind](TINY, stream(4, "tape-free"))
    got = tr.predict(params, TINY, kind, ds.inputs[:4], ds.norm)
    taped = mdl.FORWARDS[kind](params, TINY, ad.constant(ds.norm.normalize_inputs(ds.inputs[:4])))
    assert taped.requires_grad  # the reference really builds a graph
    assert np.array_equal(got, ds.norm.denormalize_targets(taped.data))
    assert all(p.grad is None for p in params.values())


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
    pred = tr.predict(res.params, cfg, "transformer", ds.inputs[idx], ds.norm)
    rep = tr.metrics(pred, ds.targets[idx], ds.masks[idx])
    assert rep.r2_t.mean > 0.98
    assert rep.r2_q.mean > 0.98


@pytest.mark.xfail(
    reason="memorization to 1e-3 exceeds what 500 fixed-rate Adam epochs reach "
    "on this task; see the decisions ledger", strict=False)
def test_overfit_idealized_threshold(overfit_run):
    _, _, _, res = overfit_run
    assert res.best_val_loss < 1e-3


def test_train_determinism(pool, tmp_path):
    ds = tr.sample_dataset(pool, 8, seed=4, counts=(6, 1, 1))
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        runs.append(tr.train(ds, "transformer", TINY, epochs=2, batch_size=4, seed=21))
        tr.write_train_artifacts(out, runs[-1], ds.norm, 21)
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
    pred = tr.predict(res.params, TINY, "transformer", vx, ds.norm)
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
    tr.write_train_artifacts(tmp_path / "run", res, ds.norm, 21)
    params, cfg, kind, meta = mdl.load_model(tmp_path / "run" / "model.bin")
    assert kind == "transformer" and cfg == TINY
    assert meta["best_epoch"] == res.best_epoch
    assert tuple(meta["norm"]["target_mean"]) == tuple(ds.norm.target_mean)
    vx = ds.inputs[ds.splits["val"]]
    np.testing.assert_array_equal(
        tr.predict(params, cfg, kind, vx, ds.norm),
        tr.predict(res.params, TINY, "transformer", vx, ds.norm),
    )
    assert os.path.exists(tmp_path / "run" / "history.csv")
