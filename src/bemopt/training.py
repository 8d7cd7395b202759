"""Dataset sampling, the training loss, Table-style metrics, and the fit loop.

The sampling side draws every declared variable uniformly on its quantized
grid, attaches one weather week per example, and labels the episode with the
reference simulator. The training side runs minibatch Adam on the composite
loss and keeps the best-validation checkpoint.
"""

import csv
import json
import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .schema import (
    DEFAULT_SCHEMA,
    HEAT_AGGREGATE_INDICES,
    HOURS_PER_WEEK,
    T_INT_INDEX,
    BmsSchedule,
    BuildingParams,
    NormStats,
    OccupancySchedule,
    Schema,
    heat_aggregate_of,
    make_episode,
    occupied_hours,
)
from .rcsim import simulate_week
from .seeding import stream, substream

__all__ = [
    "LOSS_ALPHA",
    "LOSS_BETA",
    "AUX_WEIGHT",
    "Dataset",
    "TrainResult",
    "MetricStat",
    "MetricReport",
    "split_counts",
    "sample_episode_config",
    "sample_dataset",
    "r2_score",
    "episode_errors",
    "loss",
    "training_loss",
    "metrics",
    "predict",
    "train",
    "save_history_csv",
    "load_history_csv",
]

# Weights of the temperature (alpha) and consumption (beta) terms of the loss.
LOSS_ALPHA = 1.0
LOSS_BETA = 0.3
# Weight of the auxiliary all-channel MSE folded into the training objective
# (the reported loss stays the two-term temperature/consumption form).
AUX_WEIGHT = 0.1

SPLIT_RATIOS = (0.95, 0.025, 0.025)

DATASET_ARRAYS = "arrays.bin"
DATASET_MANIFEST = "manifest.json"
MANIFEST_KEYS = ("schema", "seed", "n_weather", "splits", "norm")


class TrainingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# dataset sampling


def split_counts(n_total: int) -> tuple[int, int, int]:
    """Train/val/test counts; val and test round to nearest, train absorbs."""
    if n_total < 3:
        raise ValueError(f"need at least 3 examples to split, got {n_total}")
    n_val = max(1, round(n_total * SPLIT_RATIOS[1]))
    n_test = max(1, round(n_total * SPLIT_RATIOS[2]))
    n_train = n_total - n_val - n_test
    if n_train < 1:
        raise ValueError(f"split of {n_total} leaves no training examples")
    return n_train, n_val, n_test


# Keeps its schema argument: perfbench/bench.py passes DEFAULT_SCHEMA positionally.
def sample_episode_config(schema: Schema, n_weather: int, rng):
    """Draw one episode's free variables; returns (params, bms, occ, week index).

    Draw order is part of the on-disk determinism contract: building
    statics in declaration order, then each daily variable as 7 draws
    Mon..Sun, then the weekday occupation window, then the weather index.
    """
    statics = [spec.sample(rng) for spec in schema.building]
    params = BuildingParams.from_vector(statics)
    daily = {}
    for spec in schema.bms:
        daily[spec.name] = tuple(spec.sample(rng) for _ in range(7))
    bms = BmsSchedule(**daily)
    start = tuple(schema.occupancy[0].sample(rng) for _ in range(5))
    end = tuple(schema.occupancy[1].sample(rng) for _ in range(5))
    occ = OccupancySchedule(start, end)
    week = int(rng.integers(0, n_weather))
    return params, bms, occ, week


def _label_one(args):
    params, bms, occ, weather = args
    return simulate_week(params, bms, occ, weather).data


@dataclass
class Dataset:
    """Sampled, labeled, split, and normalization-fitted training corpus."""

    inputs: np.ndarray  # (n, 168, d_in) physical units
    targets: np.ndarray  # (n, 168, 8) physical units
    weather_index: np.ndarray  # (n,) which pool week each episode used
    splits: dict  # name -> np.ndarray of episode indices
    norm: NormStats
    seed: int
    n_weather: int

    @property
    def n_episodes(self) -> int:
        return self.inputs.shape[0]

    @property
    def masks(self) -> np.ndarray:
        """(n, 168) bool: each episode's occupied hours, read from its inputs."""
        return occupied_hours(self.inputs)

    def split_arrays(self, name: str):
        idx = self.splits[name]
        return self.inputs[idx], self.targets[idx], self.masks[idx]

    def save(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)
        ad.save_tensors(
            os.path.join(directory, DATASET_ARRAYS),
            {
                "inputs": self.inputs,
                "targets": self.targets,
                "weather_index": self.weather_index.astype(np.float64),
            },
            meta={"n_episodes": int(self.n_episodes)},
        )
        manifest = {
            "schema": DEFAULT_SCHEMA.to_dict(),
            "seed": int(self.seed),
            "n_weather": int(self.n_weather),
            "splits": {k: [int(i) for i in v] for k, v in self.splits.items()},
            "norm": self.norm.to_dict(),
        }
        with open(os.path.join(directory, DATASET_MANIFEST), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, directory) -> "Dataset":
        """Read a saved corpus; a manifest that is incomplete, malformed or
        written for another variable declaration, or arrays that do not fit
        it (see `_check_arrays`), raise TrainingError."""
        path = os.path.join(directory, DATASET_MANIFEST)
        try:
            with open(path) as f:
                manifest = json.load(f)
        except FileNotFoundError:
            raise TrainingError(f"{directory}: no dataset manifest found") from None
        except json.JSONDecodeError as e:
            raise TrainingError(f"{path}: manifest is not valid JSON ({e})") from None
        if not isinstance(manifest, dict):
            raise TrainingError(f"{path}: manifest is not a JSON object")
        missing = [k for k in MANIFEST_KEYS if k not in manifest]
        if missing:
            raise TrainingError(f"{path}: manifest lacks {', '.join(missing)}")
        if manifest["schema"] != DEFAULT_SCHEMA.to_dict():
            raise TrainingError(f"{path}: stored schema differs from the variable declaration")
        tensors, _ = ad.load_tensors(os.path.join(directory, DATASET_ARRAYS))
        try:
            ds = cls(
                inputs=tensors["inputs"],
                targets=tensors["targets"],
                weather_index=tensors["weather_index"].astype(np.int64),
                splits={k: np.array(v, dtype=np.int64) for k, v in manifest["splits"].items()},
                norm=NormStats.from_dict(manifest["norm"]),
                seed=int(manifest["seed"]),
                n_weather=int(manifest["n_weather"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise TrainingError(f"{directory}: malformed dataset ({type(e).__name__}: {e})") from None
        _check_arrays(directory, tensors, ds.splits)
        return ds


def _check_arrays(directory, tensors: dict, splits: dict) -> None:
    """The corpus holds n finite episodes as wide as the declaration, and its
    splits are exactly train/val/test, each naming episodes in [0, n)."""
    n = tensors["weather_index"].size
    shapes = {
        "inputs": (n, HOURS_PER_WEEK, DEFAULT_SCHEMA.d_in),
        "targets": (n, HOURS_PER_WEEK, DEFAULT_SCHEMA.d_out),
        "weather_index": (n,),
    }
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise TrainingError(f"{directory}: {name} has shape {tensors[name].shape}, want {shape}")
        if not np.isfinite(tensors[name]).all():
            raise TrainingError(f"{directory}: {name} holds non-finite values")
    if sorted(splits) != ["test", "train", "val"]:
        raise TrainingError(f"{directory}: splits are {sorted(splits)}, want train, val and test")
    for name, idx in splits.items():
        if idx.ndim != 1 or len(idx) == 0 or not ((idx >= 0) & (idx < n)).all():
            raise TrainingError(f"{directory}: split {name} must list episodes in [0, {n})")


def sample_dataset(
    weather_pool,
    n_total: int,
    seed: int,
    counts: tuple[int, int, int] | None = None,
    jobs: int = 1,
) -> Dataset:
    """Draw n_total labeled episodes and split them train/val/test.

    All draws come from per-episode named substreams, so the result is
    reproducible bit-for-bit regardless of the labeling parallelism.
    """
    if not weather_pool:
        raise ValueError("weather pool is empty")
    if counts is None:
        counts = split_counts(n_total)
    if sum(counts) != n_total:
        raise ValueError(f"split counts {counts} do not sum to n_total={n_total}")

    configs = []
    for i in range(n_total):
        rng = substream(seed, "episode", i)
        configs.append(sample_episode_config(DEFAULT_SCHEMA, len(weather_pool), rng))

    work = [(p, b, o, weather_pool[w]) for p, b, o, w in configs]
    if jobs > 1:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            labels = pool.map(_label_one, work, chunksize=16)
    else:
        labels = [_label_one(w) for w in work]

    inputs = np.empty((n_total, HOURS_PER_WEEK, DEFAULT_SCHEMA.d_in))
    targets = np.empty((n_total, HOURS_PER_WEEK, DEFAULT_SCHEMA.d_out))
    for i, ((params, bms, occ, w), y) in enumerate(zip(configs, labels)):
        ep = make_episode(params, bms, occ, weather_pool[w], y)
        inputs[i] = ep.inputs
        targets[i] = ep.targets

    # contiguous split: episodes are i.i.d. draws, so position carries no signal
    n_train, n_val, n_test = counts
    splits = {
        "train": np.arange(0, n_train),
        "val": np.arange(n_train, n_train + n_val),
        "test": np.arange(n_train + n_val, n_total),
    }
    norm = NormStats.fit(inputs[splits["train"]], targets[splits["train"]])
    return Dataset(
        inputs=inputs,
        targets=targets,
        weather_index=np.array([w for _, _, _, w in configs], dtype=np.int64),
        splits=splits,
        norm=norm,
        seed=seed,
        n_weather=len(weather_pool),
    )


# ---------------------------------------------------------------------------
# loss


def _pooled_rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def loss(pred: np.ndarray, target: np.ndarray) -> float:
    """alpha*log(1+D_T) + beta*log(1+D_Q) on physical-unit outputs.

    D_T is the pooled RMSE of the indoor temperature channel, D_Q the
    pooled RMSE of the four-channel heat consumption aggregate; both over
    every hour of every episode passed in.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"loss: prediction {pred.shape} vs target {target.shape}")
    d_t = _pooled_rmse(pred[..., T_INT_INDEX], target[..., T_INT_INDEX])
    d_q = _pooled_rmse(heat_aggregate_of(pred), heat_aggregate_of(target))
    return LOSS_ALPHA * math.log1p(d_t) + LOSS_BETA * math.log1p(d_q)


def training_loss(pred, target_norm: np.ndarray, norm: NormStats):
    """Differentiable objective on normalized predictions.

    Returns (total, reported): the optimized total adds an auxiliary MSE
    over all normalized channels at weight AUX_WEIGHT so that every output
    head receives gradient; `reported` is the plain two-term loss, computed
    in physical units inside the same graph.
    """
    target_norm = np.asarray(target_norm, dtype=np.float64)
    if pred.shape != target_norm.shape:
        raise ValueError(f"training_loss: prediction {pred.shape} vs target {target_norm.shape}")

    std = ad.constant(norm.target_std)
    mean = ad.constant(norm.target_mean)
    pred_phys = ad.add(ad.mul(pred, std), mean)
    target_phys = norm.denormalize_targets(target_norm)

    def rmse(delta):
        return ad.sqrt(ad.mean(ad.square(delta)))

    t = ad.slice_last(pred_phys, T_INT_INDEX, T_INT_INDEX + 1)
    d_t = rmse(ad.sub(t, ad.constant(target_phys[..., T_INT_INDEX:T_INT_INDEX + 1])))

    q_parts = [ad.slice_last(pred_phys, j, j + 1) for j in HEAT_AGGREGATE_INDICES]
    q = q_parts[0]
    for part in q_parts[1:]:
        q = ad.add(q, part)
    d_q = rmse(ad.sub(q, ad.constant(heat_aggregate_of(target_phys)[..., None])))

    reported = ad.add(ad.mul(ad.log1p(d_t), LOSS_ALPHA), ad.mul(ad.log1p(d_q), LOSS_BETA))
    aux = ad.mean(ad.square(ad.sub(pred, ad.constant(target_norm))))
    total = ad.add(reported, ad.mul(aux, AUX_WEIGHT))
    return total, reported


# ---------------------------------------------------------------------------
# metrics


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, constant-target convention included."""
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"r2_score: {y_true.shape} vs {y_pred.shape}")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class MetricStat:
    mean: float
    std: float

    def to_dict(self):
        return {"mean": self.mean, "std": self.std}


def _stat(values) -> MetricStat | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    a = np.asarray(vals, dtype=np.float64)
    return MetricStat(float(a.mean()), float(a.std()))


_METRIC_FIELDS = ("loss", "mse_t", "mse_q", "mse_t_occ", "mse_q_occ", "r2_t", "r2_q")


@dataclass(frozen=True)
class MetricReport:
    """Per-episode metric distribution: mean and std across episodes.

    The occupied-hours variants are None when no passed episode has any
    occupied hour (absent, not zero).
    """

    loss: MetricStat
    mse_t: MetricStat
    mse_q: MetricStat
    mse_t_occ: MetricStat | None
    mse_q_occ: MetricStat | None
    r2_t: MetricStat
    r2_q: MetricStat
    n_episodes: int

    def to_dict(self):
        d = {"n_episodes": self.n_episodes}
        for name in _METRIC_FIELDS:
            stat = getattr(self, name)
            d[name] = None if stat is None else stat.to_dict()
        return d


def episode_errors(p_t, y_t, p_q, y_q, mask) -> dict:
    """One episode's errors: predicted (p) against true (y) temperature and
    heat-consumption series over its hours.

    Holds mse_t, mse_q, their occupied-hours variants mse_t_occ and
    mse_q_occ (None when `mask` marks no hour), r2_t and r2_q.
    """
    row = {
        "mse_t": float(np.mean((p_t - y_t) ** 2)),
        "mse_q": float(np.mean((p_q - y_q) ** 2)),
        "mse_t_occ": None,
        "mse_q_occ": None,
    }
    if mask.any():
        row["mse_t_occ"] = float(np.mean((p_t[mask] - y_t[mask]) ** 2))
        row["mse_q_occ"] = float(np.mean((p_q[mask] - y_q[mask]) ** 2))
    row["r2_t"] = r2_score(y_t, p_t)
    row["r2_q"] = r2_score(y_q, p_q)
    return row


def metrics(preds: np.ndarray, targets: np.ndarray, masks: np.ndarray) -> MetricReport:
    """Episode-wise error suite on physical-unit outputs.

    preds/targets are (n, 168, 8); masks is (n, 168) marking occupied hours.
    MSE_T and R2_T read the indoor temperature channel, MSE_Q and R2_Q the
    heat consumption aggregate.
    """
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    if preds.ndim == 2:
        preds, targets, masks = preds[None], targets[None], masks[None]
    if preds.shape != targets.shape or masks.shape != preds.shape[:2]:
        raise ValueError(
            f"metrics: shapes {preds.shape}, {targets.shape}, {masks.shape} do not line up"
        )

    rows = {name: [] for name in _METRIC_FIELDS}
    for i in range(preds.shape[0]):
        row = episode_errors(preds[i, :, T_INT_INDEX], targets[i, :, T_INT_INDEX],
                             heat_aggregate_of(preds[i]), heat_aggregate_of(targets[i]), masks[i])
        row["loss"] = loss(preds[i], targets[i])
        for name in _METRIC_FIELDS:
            rows[name].append(row[name])

    return MetricReport(
        n_episodes=preds.shape[0],
        **{name: _stat(rows[name]) for name in _METRIC_FIELDS},
    )


# ---------------------------------------------------------------------------
# training loop


def predict(params, cfg, kind, inputs, norm: NormStats, batch_size: int = 32) -> np.ndarray:
    """Forward raw physical inputs through a model; physical-unit outputs.

    Runs without a tape: the forward sees zero-copy ``ad.constant`` views of
    the parameter arrays, so no op keeps a backward closure or its operands
    and no parameter's ``.grad`` is touched. Each row's result does not
    depend on the batch it shares a forward with.

    This is the one finiteness check of inference: a non-finite output
    anywhere raises ModelError once, and numpy's floating-point warnings
    on the way there are silenced.
    """
    forward = mdl.forward_for(kind)
    frozen = {name: ad.constant(p.data) for name, p in params.items()}
    x = np.asarray(inputs, dtype=np.float64)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    xn = norm.normalize_inputs(x)
    outs = []
    with np.errstate(all="ignore"):
        for lo in range(0, x.shape[0], batch_size):
            z = forward(frozen, cfg, ad.constant(xn[lo:lo + batch_size]))
            outs.append(norm.denormalize_targets(z.data))
    out = np.concatenate(outs, axis=0)
    if not np.isfinite(out).all():
        raise mdl.ModelError(f"{kind} model: non-finite output")
    return out[0] if squeeze else out


@dataclass
class TrainResult:
    params: dict
    config: object
    kind: str
    history: list
    best_epoch: int
    best_val_loss: float
    report: MetricReport  # validation metrics of the retained checkpoint


_HISTORY_COLUMNS = ("epoch", "train_objective", "train_loss", "val_loss", "val_r2_t", "val_r2_q")


def save_history_csv(path, history) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_HISTORY_COLUMNS)
        for row in history:
            w.writerow([row["epoch"]] + [repr(float(row[c])) for c in _HISTORY_COLUMNS[1:]])


def load_history_csv(path) -> list:
    out = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            parsed = {"epoch": int(row["epoch"])}
            parsed.update({c: float(row[c]) for c in _HISTORY_COLUMNS[1:]})
            out.append(parsed)
    return out


def train(
    dataset: Dataset,
    kind: str = "transformer",
    config=None,
    epochs: int = 60,
    batch_size: int = 16,
    lr: float = 1e-3,
    seed: int = 0,
    log=None,
) -> TrainResult:
    """Minibatch Adam on the training split; keeps the best-validation weights.

    Validation selection uses the reported two-term loss pooled over the
    whole validation set. A non-finite training loss raises ModelError
    naming the epoch.
    """
    if config is None:
        config = mdl.MetamodelConfig(d_in=DEFAULT_SCHEMA.d_in)
    if config.d_in != DEFAULT_SCHEMA.d_in or config.d_out != DEFAULT_SCHEMA.d_out:
        raise ValueError(
            f"model widths ({config.d_in}, {config.d_out}) do not match "
            f"the declaration ({DEFAULT_SCHEMA.d_in}, {DEFAULT_SCHEMA.d_out})"
        )
    forward = mdl.forward_for(kind)
    train_idx, val_idx = dataset.splits["train"], dataset.splits["val"]
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ValueError("empty train or validation split")

    norm = dataset.norm
    xn = norm.normalize_inputs(dataset.inputs)
    yn = norm.normalize_targets(dataset.targets)

    params = mdl.INITS[kind](config, stream(seed, kind + "-init"))
    plist = mdl.param_list(params)
    state = ad.AdamState(plist, lr=lr)

    val_inputs, val_targets, val_masks = dataset.split_arrays("val")

    def val_metrics(p):
        pred = predict(p, config, kind, val_inputs, norm)
        rep = metrics(pred, val_targets, val_masks)
        pooled = loss(pred, val_targets)
        return pooled, rep

    best_val, best_report = val_metrics(params)
    best_snapshot = {k: v.data.copy() for k, v in params.items()}
    best_epoch = 0
    history = [
        {
            "epoch": 0,
            "train_objective": float("nan"),
            "train_loss": float("nan"),
            "val_loss": best_val,
            "val_r2_t": best_report.r2_t.mean,
            "val_r2_q": best_report.r2_q.mean,
        }
    ]

    for epoch in range(1, epochs + 1):
        order = train_idx[substream(seed, "shuffle", epoch).permutation(len(train_idx))]
        batch_objectives = []
        batch_reported = []
        for lo in range(0, len(order), batch_size):
            sel = order[lo:lo + batch_size]
            pred = forward(params, config, ad.constant(xn[sel]))
            total, reported = training_loss(pred, yn[sel], norm)
            if not np.isfinite(total.data):
                raise mdl.ModelError(f"training loss is not finite in epoch {epoch}")
            total.backward()
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in plist]
            ad.adam_step(plist, grads, state)
            ad.zero_grads(plist)
            batch_objectives.append(float(total.data))
            batch_reported.append(float(reported.data))

        val_loss, report = val_metrics(params)
        history.append(
            {
                "epoch": epoch,
                "train_objective": float(np.mean(batch_objectives)),
                "train_loss": float(np.mean(batch_reported)),
                "val_loss": val_loss,
                "val_r2_t": report.r2_t.mean,
                "val_r2_q": report.r2_q.mean,
            }
        )
        if val_loss < best_val:
            best_val = val_loss
            best_report = report
            best_epoch = epoch
            best_snapshot = {k: v.data.copy() for k, v in params.items()}
        if log is not None:
            log(history[-1])

    for name, p in params.items():
        p.data = best_snapshot[name]

    return TrainResult(
        params=params,
        config=config,
        kind=kind,
        history=history,
        best_epoch=best_epoch,
        best_val_loss=best_val,
        report=best_report,
    )


def write_train_artifacts(out_dir, result: TrainResult, norm: NormStats, seed: int) -> list:
    """model.bin + history.csv for a finished run; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.bin")
    mdl.save_model(
        model_path,
        result.params,
        result.config,
        result.kind,
        extra_meta={
            "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
            "seed": seed,
            "norm": norm.to_dict(),
        },
    )
    history_path = os.path.join(out_dir, "history.csv")
    save_history_csv(history_path, result.history)
    return [model_path, history_path]
