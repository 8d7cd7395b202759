"""End-to-end quality gates, one verdict line per criterion.

Heavy prerequisites (the 2k-week corpus and the two identically trained
surrogates) are built once in module fixtures; their wall time is charged
to the training gate, which owns them.
"""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

import bemopt.autodiff as ad
import bemopt.model as mdl
from bemopt.calibration import (
    CalibrationSpace,
    SensorTrace,
    calibrate,
    cma_minimize,
)
from bemopt.cli import main
from bemopt.pareto import (
    BmsSpace,
    NsgaConfig,
    evaluate_settings,
    nsga2_run,
    objectives_from_series,
    optimize_bms,
    select_equivalent_comfort,
)
from bemopt.rcsim import simulate_week
from bemopt.schema import DEFAULT_SCHEMA, T_INT_INDEX, expand_daily, heat_aggregate_of
from bemopt.seeding import stream, substream
from bemopt.training import sample_dataset, sample_episode_config, train, training_loss
from bemopt.weather import generate_pool
from tests.conftest import grad_check

TIMINGS: dict = {}


def verdict(num, label, ok, detail):
    line = f"[{num}/8] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    t0 = time.monotonic()
    pool = generate_pool(0, 30)
    ds = sample_dataset(pool, 2106, seed=11)  # 2000 train weeks
    TIMINGS["corpus"] = time.monotonic() - t0
    return pool, ds


@pytest.fixture(scope="module")
def surrogates(corpus):
    _, ds = corpus
    cfg = mdl.MetamodelConfig(
        d_in=DEFAULT_SCHEMA.d_in, d_emb=32, r=4, v_width=4, h=4, n_layers=3, delta=12
    )
    t0 = time.monotonic()
    tf = train(ds, kind="transformer", config=cfg, epochs=40, batch_size=32,
               lr=3e-3, seed=3)
    ff = train(ds, kind="ffn", config=cfg, epochs=40, batch_size=32,
               lr=3e-3, seed=3)
    TIMINGS["train"] = time.monotonic() - t0
    return tf, ff


@pytest.fixture(scope="module")
def frozen(surrogates):
    return surrogates[0].model


def twin_trace(params, bms, occ, weather, plant_seed: int, k: int) -> SensorTrace:
    """Oracle truth for week k with the default sensor corruption."""
    out = simulate_week(params, bms, occ, weather).data
    rng = substream(plant_seed, "twin-noise", k)
    t = out[:, T_INT_INDEX] + 0.1 * rng.standard_normal(168)
    q = heat_aggregate_of(out) * (1.0 + 0.02 * rng.standard_normal(168))
    return SensorTrace(t, q)


def test_1_full_loss_gradient_matches_finite_differences():
    t0 = time.monotonic()
    pool = generate_pool(5, 2)
    ds = sample_dataset(pool, 4, seed=19)
    cfg = mdl.MetamodelConfig(
        d_in=DEFAULT_SCHEMA.d_in, d_emb=8, r=2, v_width=2, h=2, n_layers=1, delta=6
    )
    p = mdl.init_transformer(cfg, stream(31, "grad-gate"))
    xn = ds.norm.normalize_inputs(ds.inputs[:1, :24])
    yn = ds.norm.normalize_targets(ds.targets[:1, :24])
    err = grad_check(
        lambda: training_loss(mdl.transformer_forward(p, cfg, xn), yn, ds.norm)[0],
        list(p.values()),
    )
    elapsed = time.monotonic() - t0
    verdict(1, "loss gradient vs central differences", err < 1e-4 and elapsed < 60,
            f"max rel err {err:.3e} < 1e-4, {elapsed:.1f}s < 60s")


def test_2_attention_window_bounds_information_flow():
    t0 = time.monotonic()
    cfg = mdl.MetamodelConfig(
        d_in=DEFAULT_SCHEMA.d_in, d_emb=8, r=2, v_width=2, h=2, n_layers=2, delta=3
    )
    p = mdl.init_transformer(cfg, stream(32, "loc-gate"))
    rng = stream(32, "loc-x")
    x = rng.normal(size=(1, 20, cfg.d_emb))
    k = 9
    base = mdl.attention_block(p, cfg, ad.constant(x), ad.constant(x), "enc0").data
    leaks = []
    for shift in (cfg.delta + 1, -(cfg.delta + 1)):
        bumped = x.copy()
        bumped[0, k + shift] += 1.0
        out = mdl.attention_block(p, cfg, ad.constant(bumped), ad.constant(bumped), "enc0").data
        leaks.append(float(np.abs(out[0, k] - base[0, k]).max()))
    inside = x.copy()
    inside[0, k + cfg.delta] += 1.0
    moved = mdl.attention_block(p, cfg, ad.constant(inside), ad.constant(inside), "enc0").data
    layer_ok = max(leaks) <= 1e-12 and np.abs(moved[0, k] - base[0, k]).max() > 0

    scfg = mdl.MetamodelConfig(
        d_in=DEFAULT_SCHEMA.d_in, d_emb=8, r=2, v_width=2, h=2, n_layers=3, delta=2
    )
    sp = mdl.init_transformer(scfg, stream(33, "stack-gate"))
    xs = stream(33, "stack-x").random((1, 24, scfg.d_in))
    reach = scfg.n_layers * scfg.delta
    k = 12
    sbase = mdl.transformer_forward(sp, scfg, xs).data
    far = xs.copy()
    far[0, k + reach + 1] += 1.0
    sfar = mdl.transformer_forward(sp, scfg, far).data
    near = xs.copy()
    near[0, k + reach] += 1.0
    snear = mdl.transformer_forward(sp, scfg, near).data
    stack_leak = float(np.abs(sfar[0, k] - sbase[0, k]).max())
    stack_ok = stack_leak <= 1e-12 and np.abs(snear[0, k] - sbase[0, k]).max() > 0

    elapsed = time.monotonic() - t0
    verdict(2, "attention locality", layer_ok and stack_ok and elapsed < 60,
            f"layer leak {max(leaks):.2e}, {scfg.n_layers}-step leak {stack_leak:.2e} "
            f"<= 1e-12, {elapsed:.1f}s < 60s")


def test_3_surrogate_accuracy_and_ffn_margin(surrogates):
    tf, ff = surrogates
    r2_t = tf.report.r2_t.mean
    r2_q = tf.report.r2_q.mean
    elapsed = TIMINGS["corpus"] + TIMINGS["train"]
    ok = (r2_t >= 0.90 and r2_q >= 0.60 and tf.best_val_loss < ff.best_val_loss
          and elapsed < 1800)
    verdict(3, "2000-week training", ok,
            f"val R2_T {r2_t:.4f} >= 0.90, R2_Q {r2_q:.4f} >= 0.60, "
            f"val loss {tf.best_val_loss:.4f} < ffn {ff.best_val_loss:.4f}, "
            f"{elapsed:.0f}s < 1800s")


def test_4_cma_es_benchmark_convergence():
    t0 = time.monotonic()

    def sphere10(X01):  # optimum at z = 1, away from the start mean (z = 0)
        z = -5.0 + 10.0 * np.asarray(X01) - 1.0
        return np.sum(z * z, axis=1)

    def rosenbrock5(X01):
        z = -2.048 + 4.096 * np.asarray(X01)
        return np.sum(100.0 * (z[:, 1:] - z[:, :-1] ** 2) ** 2 + (1.0 - z[:, :-1]) ** 2, axis=1)

    _, f_s, ev_s, hist_s, _ = cma_minimize(sphere10, 10, seed=1, max_evals=5000, target=1e-10)
    _, f_r, ev_r, hist_r, _ = cma_minimize(rosenbrock5, 5, seed=1, max_evals=50_000, target=1e-6)
    monotone = all(b <= a + 1e-15 for h in (hist_s, hist_r) for a, b in zip(h, h[1:]))
    elapsed = time.monotonic() - t0
    ok = f_s < 1e-10 and ev_s <= 5000 and f_r < 1e-6 and ev_r <= 50_000 and monotone and elapsed < 120
    verdict(4, "evolution-strategy benchmarks", ok,
            f"sphere {f_s:.2e} in {ev_s} evals, rosenbrock {f_r:.2e} in {ev_r} evals, "
            f"monotone={monotone}, {elapsed:.1f}s < 120s")


def test_5_genetic_front_recovers_zdt1():
    t0 = time.monotonic()

    def zdt1(X):
        f1 = X[:, 0]
        g = 1 + 9 * X[:, 1:].mean(axis=1)
        return np.stack([f1, g * (1 - np.sqrt(f1 / g))], axis=1)

    front = nsga2_run(NsgaConfig(population=100, generations=250), zdt1,
                      (np.zeros(30), np.ones(30)), seed=0)
    F = np.array([[o.comfort, o.consumption] for _, o in front.members])
    le = (F[:, None, :] <= F[None, :, :]).all(-1)
    lt = (F[:, None, :] < F[None, :, :]).any(-1)
    dominated = (le & lt).any(axis=0)
    s = np.linspace(0.0, 1.0, 2001)
    curve = np.stack([s, 1 - np.sqrt(s)], axis=1)
    dist = np.sqrt(((F[:, None, :] - curve[None, :, :]) ** 2).sum(-1)).min(axis=1).mean()
    elapsed = time.monotonic() - t0
    ok = not dominated.any() and dist < 0.01 and elapsed < 300
    verdict(5, "two-objective benchmark front", ok,
            f"{len(front)} members mutually non-dominated, mean gap {dist:.4f} < 0.01, "
            f"{elapsed:.1f}s < 300s")


def test_6_twin_calibration_recovers_heldout_accuracy(corpus, frozen):
    pool, _ = corpus
    plant = 13
    params, bms, occ, _ = sample_episode_config(DEFAULT_SCHEMA, len(pool), substream(plant, "episode", 0))
    traces = [twin_trace(params, bms, occ, pool[k], plant, k) for k in (0, 1, 2)]
    holdout = [twin_trace(params, bms, occ, pool[3], plant, 3)]
    space = CalibrationSpace.default(params, bms, occ)
    t0 = time.monotonic()
    _, report = calibrate(space, frozen, traces, [pool[k] for k in (0, 1, 2)],
                          budget=500, seed=7,
                          holdout_traces=holdout, holdout_weathers=[pool[3]])
    elapsed = time.monotonic() - t0
    h = report.holdout_metrics[0]
    ok = (h["r2_t"] >= 0.90 and h["r2_q"] >= 0.80
          and report.best_cost < report.initial_cost and elapsed < 1200)
    verdict(6, "sensor-trace calibration", ok,
            f"held-out R2_T {h['r2_t']:.4f} >= 0.90, R2_Q {h['r2_q']:.4f} >= 0.80, "
            f"cost {report.initial_cost:.4f} -> {report.best_cost:.4f}, "
            f"{elapsed:.0f}s < 1200s")


def test_7_schedule_search_cuts_consumption_at_equal_comfort(corpus, frozen):
    pool, _ = corpus
    weather = pool[4]
    params, bms0, occ0, _ = sample_episode_config(DEFAULT_SCHEMA, len(pool), substream(17, "episode", 0))
    params = replace(params, power_VCV_kW_heat=600.0)  # the sampled draw has no heater
    occ = replace(occ0, start_occupation=(8.0,) * 5, end_occupation=(17.0,) * 5)
    wasteful = replace(bms0, start_heat_day=(7.0,) * 7, end_heat_day=(18.0,) * 7,
                       t_heat_conf_day=(24.0,) * 7)
    occ_mask = expand_daily(occ) > 0

    def oracle_objectives(bms):
        out = simulate_week(params, bms, occ, weather).data
        return objectives_from_series(out[:, T_INT_INDEX], heat_aggregate_of(out), occ_mask)

    t0 = time.monotonic()
    base = oracle_objectives(wasteful)

    # establish the savings floor on a small oracle grid before searching
    floor = 0.0
    for start, end, conf, vol, tv in itertools.product(
            (7.0, 8.0), (17.0, 18.0), (22.5, 24.0),
            (0.7, wasteful.vol_ventilation_day[0]),
            (18.0, wasteful.t_ventilation_day[0])):
        cand = replace(wasteful, start_heat_day=(start,) * 7, end_heat_day=(end,) * 7,
                       t_heat_conf_day=(conf,) * 7, vol_ventilation_day=(vol,) * 7,
                       t_ventilation_day=(tv,) * 7)
        o = oracle_objectives(cand)
        if o.comfort <= base.comfort + 0.05:
            floor = max(floor, 1.0 - o.consumption / base.consumption)

    space = BmsSpace(params, occ)
    base_model = evaluate_settings(frozen, params, wasteful, occ, weather)
    front = optimize_bms(space, frozen, weather,
                         NsgaConfig(population=48, generations=40), seed=11)
    chosen = select_equivalent_comfort(front, base_model)
    checked = oracle_objectives(space.schedule_from_settings(chosen.settings))
    savings = 1.0 - checked.consumption / base.consumption
    elapsed = time.monotonic() - t0
    ok = (floor >= 0.05 and chosen.within_tolerance
          and checked.comfort <= base.comfort + 0.05 and savings >= 0.05
          and elapsed < 900)
    verdict(7, "equivalent-comfort savings", ok,
            f"grid floor {floor:.1%}, re-simulated savings {savings:.1%} >= 5%, "
            f"comfort {checked.comfort:.4f} vs baseline {base.comfort:.4f} (tol 0.05), "
            f"{elapsed:.0f}s < 900s")


def test_8_fixed_seed_reruns_are_byte_identical(tmp_path):
    def run_pipeline(root):
        root.mkdir()
        params, bms, occ, _ = sample_episode_config(DEFAULT_SCHEMA, 3, substream(42, "episode", 0))
        building = root / "building.json"
        building.write_text(json.dumps(
            {"params": params.to_dict(), "bms": bms.to_dict(), "occ": occ.to_dict()},
            indent=2, sort_keys=True))
        config = root / "tiny.json"
        config.write_text(json.dumps({"train": {
            "d_emb": 8, "r": 2, "v_width": 2, "h": 2, "n_layers": 2, "delta": 3,
            "epochs": 2,
        }}))
        for args in (
            ["sample", "--out", str(root / "ds"), "--weather", str(root / "wx"),
             "--weather-weeks", "3", "--episodes", "8", "--seed", "1"],
            ["train", "--dataset", str(root / "ds"), "--out", str(root / "mdl"),
             "--config", str(config), "--seed", "2"],
            ["twin", "--building", str(building), "--weather", str(root / "wx"),
             "--weeks", "0,1", "--out", str(root / "traces"), "--seed", "3"],
            ["calibrate", "--model", str(root / "mdl" / "model.bin"),
             "--traces", str(root / "traces"), "--weather", str(root / "wx"),
             "--base", str(building), "--weeks", "0", "--holdout-weeks", "1",
             "--budget", "2", "--free", "nb_occupants,capacitance_kJ_perdegreK_perm3",
             "--out", str(root / "cal"), "--seed", "4"],
            ["optimize", "--model", str(root / "mdl" / "model.bin"),
             "--calibrated", str(root / "cal" / "calibration.json"),
             "--weather", str(root / "wx"), "--week", "2", "--generations", "3",
             "--pop", "8", "--out", str(root / "opt"), "--seed", "5"],
            ["report", str(root)],
        ):
            assert main(args) == 0, args

    t0 = time.monotonic()
    a, b = tmp_path / "one", tmp_path / "two"
    run_pipeline(a)
    run_pipeline(b)
    rel = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert rel == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    diffs = []
    n_checked = 0
    for r in rel:
        one, two = (a / r).read_bytes(), (b / r).read_bytes()
        if r.name in ("run.json", "report_run.json"):
            # the run manifest stores wall-clock duration and absolute paths;
            # digests and every other field must agree
            def canon(doc, root):
                doc.pop("duration_s")
                for key in ("inputs", "outputs"):
                    doc[key] = {p.replace(str(root), "<root>"): d
                                for p, d in doc[key].items()}
                return doc
            if canon(json.loads(one), a) != canon(json.loads(two), b):
                diffs.append(str(r))
        else:
            n_checked += 1
            if one != two:
                diffs.append(str(r))
    elapsed = time.monotonic() - t0
    verdict(8, "seeded reruns byte-identical", not diffs,
            f"{n_checked} artifacts byte-equal across two full pipeline runs "
            f"(+{len(rel) - n_checked} manifests equal modulo duration), {elapsed:.0f}s"
            + (f"; DIFFS: {diffs}" if diffs else ""))
