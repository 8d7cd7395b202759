"""Dataset sampling, the training loss, Table-style metrics, and the fit loop.

The sampling side draws every declared variable uniformly on its quantized
grid, attaches one weather week per example, and labels the episode with the
reference simulator. The training side runs minibatch Adam on the composite
loss, with the learning rate on one cosine decay over the whole run, and
keeps the best-validation checkpoint.

`train` and `predict` are the only code that uses more than one core. Each
call opens one `_core_split` and splits its batches by whole sequences over
it, every core running whole forwards (and backwards) with every op
unsplit, so the results do not depend on the core count.

Both run the model in float32 (`COMPUTE_DTYPE`) on float32 copies of the
float64 weights (`_compute_weights`). The weights, Adam's moments, the
summed gradients, the loss and `predict`'s output stay float64.
"""

import contextlib
import contextvars
import csv
import ctypes
import functools
import json
import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .schema import (
    DAYS_PER_WEEK,
    DEFAULT_SCHEMA,
    HEAT_AGGREGATE_INDICES,
    HOURS_PER_WEEK,
    T_INT_INDEX,
    WEEKDAYS,
    BmsSchedule,
    BuildingParams,
    NormStats,
    OccupancySchedule,
    Schema,
    SchemaError,
    heat_aggregate_of,
    make_episode,
    make_output_dir,
    occupied_hours,
    sensor_series,
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
    "cosine_lr",
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
# Sequences per predict forward; a row's result does not depend on it.
PREDICT_BATCH = 32
# Sequences per shard of a training batch. Each shard's weight gradients are
# summed in shard order, so this constant, never the core count, fixes the
# training bits.
TRAIN_SHARD = 8

# The one dtype of every model forward and backward in `train` and `predict`.
COMPUTE_DTYPE = np.float32

DATASET_ARRAYS = "arrays.bin"
DATASET_MANIFEST = "manifest.json"
MANIFEST_KEYS = ("schema", "seed", "n_weather", "splits", "norm")


# ---------------------------------------------------------------------------
# dataset sampling


def split_counts(n_total: int) -> tuple[int, int, int]:
    """Train/val/test counts; val and test round to nearest, train absorbs."""
    if n_total < 3:
        raise SchemaError(f"need at least 3 examples to split, got {n_total}")
    n_val = max(1, round(n_total * SPLIT_RATIOS[1]))
    n_test = max(1, round(n_total * SPLIT_RATIOS[2]))
    n_train = n_total - n_val - n_test
    if n_train < 1:
        raise SchemaError(f"split of {n_total} leaves no training examples")
    return n_train, n_val, n_test


@functools.cache
def _episode_grid(schema: Schema):
    """(n_levels, min, step) of each of an episode's grid draws, in draw order."""
    specs = (
        list(schema.building)
        + [spec for spec in schema.bms for _ in range(DAYS_PER_WEEK)]
        + [spec for spec in schema.occupancy for _ in range(WEEKDAYS)]
    )
    return (
        [spec.n_levels for spec in specs],
        np.array([spec.min for spec in specs], dtype=np.float64),
        np.array([spec.step for spec in specs], dtype=np.float64),
    )


# Keeps its schema argument: perfbench/bench.py passes DEFAULT_SCHEMA positionally.
def sample_episode_config(schema: Schema, n_weather: int, rng):
    """Draw one episode's free variables; returns (params, bms, occ, week index).

    Draw order is part of the on-disk determinism contract: building
    statics in declaration order, then each daily variable as 7 draws
    Mon..Sun, then the weekday occupation window, then the weather index.
    Each is a uniform level index on its grid, value = min + step × index.
    All take one `rng.integers` call, which draws element by element
    exactly as one scalar call per variable would.
    """
    n_levels, lo, step = _episode_grid(schema)
    k = rng.integers(0, n_levels + [n_weather])
    values = (lo + step * k[:-1]).tolist()
    n_static, n_daily = len(schema.building), DAYS_PER_WEEK * len(schema.bms)
    params = BuildingParams.from_vector(values[:n_static])
    daily = values[n_static:n_static + n_daily]
    bms = BmsSchedule(**{
        spec.name: tuple(daily[i * DAYS_PER_WEEK:(i + 1) * DAYS_PER_WEEK])
        for i, spec in enumerate(schema.bms)
    })
    window = values[n_static + n_daily:]
    occ = OccupancySchedule(tuple(window[:WEEKDAYS]), tuple(window[WEEKDAYS:]))
    return params, bms, occ, int(k[-1])


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
        make_output_dir(directory)
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
        it (see `_check_arrays`), raise SchemaError."""
        path = os.path.join(directory, DATASET_MANIFEST)
        try:
            with open(path) as f:
                manifest = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: manifest is not valid JSON ({e})") from None
        if not isinstance(manifest, dict):
            raise SchemaError(f"{path}: manifest is not a JSON object")
        missing = [k for k in MANIFEST_KEYS if k not in manifest]
        if missing:
            raise SchemaError(f"{path}: manifest lacks {', '.join(missing)}")
        if manifest["schema"] != DEFAULT_SCHEMA.to_dict():
            raise SchemaError(f"{path}: stored schema differs from the variable declaration")
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
            raise SchemaError(f"{directory}: malformed dataset ({type(e).__name__}: {e})") from None
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
            raise SchemaError(f"{directory}: {name} has shape {tensors[name].shape}, want {shape}")
        if not np.isfinite(tensors[name]).all():
            raise SchemaError(f"{directory}: {name} holds non-finite values")
    if sorted(splits) != ["test", "train", "val"]:
        raise SchemaError(f"{directory}: splits are {sorted(splits)}, want train, val and test")
    for name, idx in splits.items():
        if idx.ndim != 1 or len(idx) == 0 or not ((idx >= 0) & (idx < n)).all():
            raise SchemaError(f"{directory}: split {name} must list episodes in [0, {n})")


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
    if np.shape(pred) != np.shape(target):
        raise ValueError(f"loss: prediction {np.shape(pred)} vs target {np.shape(target)}")
    (p_t, p_q), (y_t, y_q) = sensor_series(pred), sensor_series(target)
    d_t, d_q = _pooled_rmse(p_t, y_t), _pooled_rmse(p_q, y_q)
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


METRIC_FIELDS = ("loss", "mse_t", "mse_q", "mse_t_occ", "mse_q_occ", "r2_t", "r2_q")


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
        for name in METRIC_FIELDS:
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
    if preds.shape != targets.shape or masks.shape != preds.shape[:2]:
        raise ValueError(
            f"metrics: shapes {preds.shape}, {targets.shape}, {masks.shape} do not line up"
        )

    rows = {name: [] for name in METRIC_FIELDS}
    for i in range(preds.shape[0]):
        (p_t, p_q), (y_t, y_q) = sensor_series(preds[i]), sensor_series(targets[i])
        row = episode_errors(p_t, y_t, p_q, y_q, masks[i])
        row["loss"] = loss(preds[i], targets[i])
        for name in METRIC_FIELDS:
            rows[name].append(row[name])

    return MetricReport(
        n_episodes=preds.shape[0],
        **{name: _stat(rows[name]) for name in METRIC_FIELDS},
    )


# ---------------------------------------------------------------------------
# the core split: predict's batches and train's shards


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        return os.cpu_count() or 1


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _core_split():
    """Yield split(fn, n), which runs fn(lo, hi) over one contiguous chunk of
    range(n) per usable core and returns when every chunk has finished.

    fn writes only what belongs to rows lo:hi, so the result does not depend
    on the chunk count. The calling thread runs the first chunk and a pool
    of cores - 1 threads the rest, each in a copy of the caller's context,
    so numpy's errstate (context-local in numpy 2) holds there too. A
    chunk's error is raised once every chunk has finished, the first chunk's
    first. Inside, OpenBLAS is held to one thread so its workers do not
    compete with the chunks; on exit the pool is closed and the previous
    thread count comes back. A block opened inside another has its own
    pool, so it never waits on itself.
    """
    cores = _cores()
    pool = None
    if cores > 1:
        # imported here, not at the top: it loads logging, which `sample` never needs
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=cores - 1, thread_name_prefix="bemopt-rows")

    def split(fn, n: int) -> None:
        k = min(cores, n)
        if k <= 1:
            fn(0, n)
            return
        bounds = [n * i // k for i in range(k + 1)]
        futures = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
                   for lo, hi in zip(bounds[1:-1], bounds[2:])]
        try:
            fn(0, bounds[1])
        finally:
            for f in futures:
                f.exception()  # waits without raising: no chunk may outlive the call
        for f in futures:
            f.result()

    blas = _openblas()
    threads = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        yield split
    finally:
        if pool is not None:
            pool.shutdown()
        if blas:
            blas[1](threads)


# ---------------------------------------------------------------------------
# training loop


def _compute_weights(params) -> dict:
    """COMPUTE_DTYPE copies of the weight arrays, by name."""
    return {name: w.astype(COMPUTE_DTYPE) for name, w in params.items()}


# inputs is keyword-only because perfbench/tracer.py reads it by name
def predict(model: mdl.FrozenModel, *, inputs) -> np.ndarray:
    """Forward raw physical inputs through `model`; physical-unit outputs.

    The forward runs in float32 on constants over float32 copies of the
    weights, made once per call, and on float32 normalized inputs; it
    denormalizes into a float64 result. It runs without a tape and never
    writes to `model.params`. Each row's result does not depend on the
    batch it shares a forward with, so each batch's sequences are divided
    among the cores of the call's one `_core_split`, each core running the
    whole forward on its share with every op unsplit.

    This is the one finiteness check of inference: a non-finite output
    anywhere raises ModelError once, and numpy's floating-point warnings
    on the way there, normalizing the inputs and casting them to float32
    included, are silenced. So a normalized input beyond float32's range
    ends as that ModelError too.
    """
    forward, cfg, norm = mdl.forward_for(model.kind), model.config, model.norm
    frozen = {name: ad.constant(w) for name, w in _compute_weights(model.params).items()}
    x = np.asarray(inputs, dtype=np.float64)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    out = np.empty(x.shape[:2] + (cfg.d_out,))

    def forward_rows(xb, ob, lo, hi):
        ob[lo:hi] = norm.denormalize_targets(forward(frozen, cfg, ad.constant(xb[lo:hi])).data)

    with np.errstate(all="ignore"), _core_split() as split:
        xn = norm.normalize_inputs(x).astype(COMPUTE_DTYPE)
        for lo in range(0, len(xn), PREDICT_BATCH):
            xb, ob = xn[lo:lo + PREDICT_BATCH], out[lo:lo + PREDICT_BATCH]
            split(functools.partial(forward_rows, xb, ob), len(xb))
    if not np.isfinite(out).all():
        raise mdl.ModelError(f"{model.kind} model: non-finite output")
    return out[0] if squeeze else out


@dataclass
class TrainResult:
    model: mdl.FrozenModel  # the best-validation weights, with the corpus norm
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


def cosine_lr(lr: float, step: int, n_steps: int) -> float:
    """Learning rate of step ``step`` (from 0) of ``n_steps``: ``lr``
    decayed on a half cosine to 0 at the end of the run
    (Loshchilov & Hutter, arXiv:1608.03983). Step 0 uses ``lr`` exactly."""
    return lr * (0.5 * (1.0 + math.cos(math.pi * step / n_steps)))


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
    """Minibatch Adam on the training split; returns the best-validation model.

    Step k of the run's K = epochs × batches-per-epoch steps uses the
    learning rate ``cosine_lr(lr, k, K)``, so the last epochs take small
    steps and the run ends converged rather than wherever a fixed rate
    leaves it. Every epoch validates through ``predict(model, inputs=...)``
    on one `FrozenModel` over the float64 weight arrays Adam updates in
    place, selecting by the reported two-term loss pooled over the whole
    validation set; the best epoch's weights go back into it at the end.

    Each batch is cut into fixed shards of TRAIN_SHARD whole sequences,
    which the cores of the run's one `_core_split` share (each per-epoch
    validation ``predict`` opens its own): each shard runs its
    gradient-mode forward on its own leaf Tensors over the step's shared
    float32 copies of the weights, so no ``.grad`` is shared between
    threads. Forwards and backwards run in float32 on float32 normalized
    inputs. The loss runs once, in float64, on one float64 leaf over the
    joined predictions; each shard's backward is seeded with its rows of
    that leaf's gradient, cast to float32, and each parameter's gradient is
    the shards' gradients, cast to float64, summed in shard order. Adam
    updates the float64 weights. A non-finite training loss raises
    ModelError naming the epoch, and numpy's floating-point warnings in the
    step's forward, loss and backward, and in normalizing and casting the
    inputs, are silenced.
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
    # a value beyond float32's range casts to inf, and the forward it reaches
    # raises ModelError
    with np.errstate(all="ignore"):
        xn = norm.normalize_inputs(dataset.inputs).astype(COMPUTE_DTYPE)
    yn = norm.normalize_targets(dataset.targets)

    params = mdl.INITS[kind](config, stream(seed, kind + "-init"))
    model = mdl.FrozenModel(params, config, kind, norm)
    plist = list(params.values())
    state = ad.AdamState(plist, lr=lr)

    n_steps = epochs * -(-len(train_idx) // batch_size)
    step = 0

    val_inputs, val_targets, val_masks = dataset.split_arrays("val")

    def val_metrics():
        pred = predict(model, inputs=val_inputs)
        return loss(pred, val_targets), metrics(pred, val_targets, val_masks)

    best_val, best_report = val_metrics()
    best_snapshot = {k: w.copy() for k, w in params.items()}
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

    def forward_shards(xb, pb, shards, lo, hi):
        for i in range(lo, hi):
            a, b, own, _ = shards[i]
            root = forward(own, config, ad.constant(xb[a:b]))
            pb[a:b] = root.data
            shards[i] = (a, b, own, root)

    def backward_shards(g, shards, lo, hi):
        for a, b, _, root in shards[lo:hi]:
            root.backward(g[a:b].astype(COMPUTE_DTYPE))

    with _core_split() as split:
        for epoch in range(1, epochs + 1):
            order = train_idx[substream(seed, "shuffle", epoch).permutation(len(train_idx))]
            batch_objectives = []
            batch_reported = []
            for lo in range(0, len(order), batch_size):
                sel = order[lo:lo + batch_size]
                bounds = list(range(0, len(sel), TRAIN_SHARD)) + [len(sel)]
                weights = _compute_weights(params)
                shards = [(a, b, {k: ad.Tensor(w, requires_grad=True)
                                  for k, w in weights.items()}, None)
                          for a, b in zip(bounds[:-1], bounds[1:])]
                pred = ad.Tensor(np.empty((len(sel),) + yn.shape[1:]), requires_grad=True)
                with np.errstate(all="ignore"):
                    split(functools.partial(forward_shards, xn[sel], pred.data, shards),
                          len(shards))
                    total, reported = training_loss(pred, yn[sel], norm)
                    if not np.isfinite(total.data):
                        raise mdl.ModelError(f"training loss is not finite in epoch {epoch}")
                    total.backward()
                    split(functools.partial(backward_shards, pred.grad, shards), len(shards))
                grads = [functools.reduce(np.add, (own[k].grad.astype(np.float64)
                                                   for _, _, own, _ in shards))
                         for k in params]
                state.lr = cosine_lr(lr, step, n_steps)
                ad.adam_step(plist, grads, state)
                step += 1
                batch_objectives.append(float(total.data))
                batch_reported.append(float(reported.data))

            val_loss, report = val_metrics()
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
                best_snapshot = {k: w.copy() for k, w in params.items()}
            if log is not None:
                log(history[-1])

    params.update(best_snapshot)
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_val_loss=best_val,
        report=best_report,
    )

