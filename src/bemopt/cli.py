"""Command-line pipeline: sample -> train -> (twin) -> calibrate -> optimize -> report.

Every command takes an explicit --seed and writes a run manifest listing the
digests of everything it read and produced, so a rerun with the same inputs
is byte-identical (the manifest's wall-clock field aside). Exit codes: 0 ok,
2 usage, 3 input error, 4 numerical failure.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import model as mdl
from .calibration import BUDGET, SIGMA0, CalibrationSpace, FreeVariable, SensorTrace, calibrate
from .pareto import (
    COMFORT_TOLERANCE,
    BmsSpace,
    NsgaConfig,
    evaluate_settings,
    optimize_bms,
    select_equivalent_comfort,
)
from .rcsim import NumericalError, simulate_week
from .schema import (
    DEFAULT_SCHEMA,
    HOURS_PER_WEEK,
    BmsSchedule,
    BuildingParams,
    OccupancySchedule,
    SchemaError,
    assemble_inputs,
    check_output_dir,
    make_output_dir,
    sensor_series,
    write_hourly_csv,
)
from .seeding import substream
from .training import (
    METRIC_FIELDS,
    Dataset,
    metrics,
    predict,
    sample_dataset,
    save_history_csv,
    split_counts,
    train,
)
from .weather import generate_pool, load_pool, load_week, save_pool, week_path

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

# the architecture keys a config may set; the widths follow the schema
MODEL_CONFIG_FIELDS = tuple(k for k in mdl._CONFIG_KEYS if k not in ("d_in", "d_out"))


class CliError(Exception):
    """A usage error: the command line lacks what the command needs (exit 2).

    Bad input of every other kind raises SchemaError (exit 3)."""


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Digest ledger of one command invocation, written last."""

    def __init__(self, command: str, seed: int):
        self.command = command
        self.seed = seed
        self.inputs = {}
        self.outputs = {}
        self._t0 = time.monotonic()

    def add_input(self, path) -> None:
        try:
            self.inputs[str(path)] = _sha256(path)
        except OSError as e:
            raise SchemaError(f"cannot read input {path}: {e.strerror or e}") from None

    def add_output(self, path) -> None:
        self.outputs[str(path)] = _sha256(path)

    def write(self, path) -> None:
        doc = {
            "command": self.command,
            "seed": self.seed,
            "version": __version__,
            "duration_s": time.monotonic() - self._t0,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        _write_json(path, doc)


def _write_json(path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_json(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON: {e}") from None


def _load_building_file(path, block=None):
    """JSON with params/bms/occ sections -> the three schedule dataclasses.

    `block` names the object that holds the sections, as ``calibrated`` does
    in a calibration.json; without it they sit at the top level.
    """
    doc = _load_json(path)
    try:
        if block is not None:
            doc = doc[block]
        return (
            BuildingParams.from_dict(doc["params"]),
            BmsSchedule.from_dict(doc["bms"]),
            OccupancySchedule.from_dict(doc["occ"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"{path}: bad building description: {e}") from None


def _parse_weeks(text: str) -> list:
    try:
        weeks = [int(w) for w in text.split(",") if w.strip() != ""]
    except ValueError:
        raise SchemaError(f"bad week list {text!r}; want comma-separated integers") from None
    if not weeks or any(w < 0 for w in weeks):
        raise SchemaError(f"bad week list {text!r}")
    return weeks


def _trace_path(directory, week: int) -> str:
    return os.path.join(directory, f"trace_w{week:04d}.csv")


def _load_weather_week(manifest, directory, week: int):
    path = week_path(directory, week)
    manifest.add_input(path)
    return load_week(path)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fmt(v) -> str:
    """Full-precision, parseable rendering for reports and CSV cells."""
    if v is None:
        return "absent"
    return repr(float(v))


# ---------------------------------------------------------------------------
# commands


def cmd_sample(args, section) -> int:
    weather_weeks = _pick(args, section, "weather_weeks", None, int)
    episodes = _pick(args, section, "episodes", None, int)
    if episodes is None:
        raise CliError("--episodes is required")
    if args.jobs < 1:
        raise SchemaError(f"jobs must be >= 1, got {args.jobs}")
    split_counts(episodes)  # before a weather pool is generated and written
    check_output_dir(args.out)  # before the labeling

    manifest = RunManifest("sample", args.seed)
    generated = []
    have_weather = os.path.isdir(args.weather) and any(
        n.endswith(".csv") for n in os.listdir(args.weather)
    )
    if not have_weather:
        if weather_weeks is None:
            raise SchemaError(
                f"weather directory {args.weather} has no CSV files; "
                "pass --weather-weeks N to generate a pool there",
            )
        generated = save_pool(args.weather, generate_pool(0, weather_weeks))
    for name in sorted(os.listdir(args.weather)):
        if name.endswith(".csv"):
            (manifest.add_output if generated else manifest.add_input)(
                os.path.join(args.weather, name)
            )
    pool = load_pool(args.weather)
    if weather_weeks is not None and len(pool) != weather_weeks:
        raise SchemaError(
            f"weather directory {args.weather} holds {len(pool)} weeks, "
            f"--weather-weeks says {weather_weeks}",
        )

    ds = sample_dataset(pool, episodes, seed=args.seed, jobs=args.jobs)
    ds.save(args.out)
    manifest.add_output(os.path.join(args.out, "arrays.bin"))
    manifest.add_output(os.path.join(args.out, "manifest.json"))
    manifest.write(os.path.join(args.out, "run.json"))
    _progress(f"sampled {ds.n_episodes} episodes "
              f"(splits {dict((k, len(v)) for k, v in ds.splits.items())}) into {args.out}")
    return EXIT_OK


def cmd_train(args, section) -> int:
    epochs = _pick(args, section, "epochs", 60, int)
    batch_size = _pick(args, section, "batch_size", 16, int)
    lr = _pick(args, section, "lr", 1e-3, float)
    if epochs < 0:
        raise SchemaError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise SchemaError(f"batch_size must be >= 1, got {batch_size}")
    if not 0 < lr < math.inf:
        raise SchemaError(f"lr must be finite and > 0, got {lr}")
    overrides = {k: _pick(args, section, k, None, int) for k in MODEL_CONFIG_FIELDS
                 if section.get(k) is not None}
    manifest = RunManifest("train", args.seed)
    for name in ("arrays.bin", "manifest.json"):
        manifest.add_input(os.path.join(args.dataset, name))
    ds = Dataset.load(args.dataset)
    config = mdl.MetamodelConfig(d_in=DEFAULT_SCHEMA.d_in, **overrides) if overrides else None
    make_output_dir(args.out)  # before the epochs' progress lines, not after

    result = train(
        ds,
        kind=args.kind,
        config=config,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        seed=args.seed,
        log=lambda row: _progress(
            f"epoch {row['epoch']:3d}  train {row['train_loss']:.4f}  "
            f"val {row['val_loss']:.4f}  r2_t {row['val_r2_t']:.3f}  r2_q {row['val_r2_q']:.3f}"
        ),
    )

    model = result.model
    model_path = os.path.join(args.out, "model.bin")
    model.save(model_path)
    manifest.add_output(model_path)
    history_path = os.path.join(args.out, "history.csv")
    save_history_csv(history_path, result.history)
    manifest.add_output(history_path)
    test_inputs, test_targets, test_masks = ds.split_arrays("test")
    test_report = metrics(predict(model, inputs=test_inputs), test_targets, test_masks)
    metrics_path = os.path.join(args.out, "metrics.json")
    _write_json(
        metrics_path,
        {
            "kind": model.kind,
            "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
            "epochs": epochs,
            "seed": args.seed,
            "val": result.report.to_dict(),
            "test": test_report.to_dict(),
        },
    )
    manifest.add_output(metrics_path)
    manifest.write(os.path.join(args.out, "run.json"))
    _progress(f"kept epoch {result.best_epoch} (val loss {result.best_val_loss:.4f}) -> {args.out}")
    return EXIT_OK


def cmd_twin(args, section) -> int:
    noise_t = _pick(args, section, "noise_t", 0.1, float)
    noise_q = _pick(args, section, "noise_q", 0.02, float)
    if not (noise_t >= 0 and noise_q >= 0):  # NaN fails too
        raise SchemaError(f"noise levels must be >= 0, got {noise_t} and {noise_q}")
    manifest = RunManifest("twin", args.seed)
    manifest.add_input(args.building)
    params, bms, occ = _load_building_file(args.building)

    weeks = _parse_weeks(args.weeks) if args.weeks else None
    if weeks is None:
        names = os.listdir(args.weather) if os.path.isdir(args.weather) else []
        weeks = list(range(sum(n.endswith(".csv") for n in names)))
        if not weeks:
            raise SchemaError(f"no weather files in {args.weather}")

    traces = []  # every week is read and simulated before anything is written
    for k in weeks:
        weather = _load_weather_week(manifest, args.weather, k)
        truth = SensorTrace.from_output(simulate_week(params, bms, occ, weather).data)
        rng = substream(args.seed, "twin-noise", k)
        t_noisy = truth.t_int + noise_t * rng.standard_normal(HOURS_PER_WEEK)
        q_noisy = truth.q_heat * (1.0 + noise_q * rng.standard_normal(HOURS_PER_WEEK))
        traces.append((k, SensorTrace(t_noisy, q_noisy)))
    make_output_dir(args.out)
    for k, trace in traces:
        path = _trace_path(args.out, k)
        trace.save_csv(path)
        manifest.add_output(path)
    manifest.write(os.path.join(args.out, "run.json"))
    _progress(f"wrote {len(weeks)} sensor trace(s) to {args.out}")
    return EXIT_OK


def _parse_free(text: str):
    """'a,b:per_day,c' -> CalibrationSpace free-variable list."""
    free = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, qualified, flag = item.partition(":")
        if qualified and flag != "per_day":
            raise SchemaError(f"bad free-variable qualifier {item!r}")
        free.append(FreeVariable(name, per_day=bool(qualified)))
    if not free:
        raise SchemaError("empty --free list")
    return free


def cmd_calibrate(args, section) -> int:
    budget = _pick(args, section, "budget", BUDGET, int)
    sigma0 = _pick(args, section, "sigma0", SIGMA0, float)
    if budget < 0:
        raise SchemaError(f"budget must be >= 0, got {budget}")
    if not 0 < sigma0 < math.inf:
        raise SchemaError(f"sigma0 must be finite and > 0, got {sigma0}")
    check_output_dir(args.out)  # before the search
    manifest = RunManifest("calibrate", args.seed)
    manifest.add_input(args.model)
    model = mdl.FrozenModel.load(args.model)
    manifest.add_input(args.base)
    params, bms, occ = _load_building_file(args.base)
    space = (
        CalibrationSpace(_parse_free(args.free), params, bms, occ)
        if args.free
        else CalibrationSpace.default(params, bms, occ)
    )

    def load_split(weeks_text):
        traces, weathers = [], []
        for k in _parse_weeks(weeks_text):
            tpath = _trace_path(args.traces, k)
            manifest.add_input(tpath)
            traces.append(SensorTrace.load_csv(tpath))
            weathers.append(_load_weather_week(manifest, args.weather, k))
        return traces, weathers

    traces, weathers = load_split(args.weeks)
    holdout_traces, holdout_weathers = ([], [])
    if args.holdout_weeks:
        holdout_traces, holdout_weathers = load_split(args.holdout_weeks)

    best_x, report = calibrate(
        space,
        model,
        traces,
        weathers,
        budget=budget,
        seed=args.seed,
        holdout_traces=holdout_traces,
        holdout_weathers=holdout_weathers,
        sigma0=sigma0,
        log=lambda gen, best: _progress(f"generation {gen:4d}  best cost {best:.6f}"),
    )

    cal_params, cal_bms, cal_occ = space.decode(best_x)
    make_output_dir(args.out)
    out_path = os.path.join(args.out, "calibration.json")
    _write_json(
        out_path,
        {
            "space": space.to_dict(),
            "best_x01": [float(v) for v in best_x],
            "report": report.to_dict(),
            "calibrated": {
                "params": cal_params.to_dict(),
                "bms": cal_bms.to_dict(),
                "occ": cal_occ.to_dict(),
            },
            "budget": budget,
            "seed": args.seed,
        },
    )
    manifest.add_output(out_path)
    manifest.write(os.path.join(args.out, "run.json"))
    _progress(
        f"cost {report.initial_cost:.4f} -> {report.best_cost:.4f} "
        f"over {report.generations} generations -> {out_path}"
    )
    return EXIT_OK


def cmd_optimize(args, section) -> int:
    generations = _pick(args, section, "generations", NsgaConfig().generations, int)
    population = _pick(args, section, "pop", NsgaConfig().population, int)
    tolerance = _pick(args, section, "tolerance", COMFORT_TOLERANCE, float)
    if not math.isfinite(tolerance):
        raise SchemaError(f"tolerance must be finite, got {tolerance}")
    check_output_dir(args.out)  # before the search
    manifest = RunManifest("optimize", args.seed)
    manifest.add_input(args.model)
    model = mdl.FrozenModel.load(args.model)
    manifest.add_input(args.calibrated)
    params, baseline_bms, occ = _load_building_file(args.calibrated, "calibrated")
    weather = _load_weather_week(manifest, args.weather, args.week)

    config = NsgaConfig(population=population, generations=generations)
    space = BmsSpace(params, occ)
    baseline = evaluate_settings(model, params, baseline_bms, occ, weather)

    front = optimize_bms(
        space, model, weather, config, seed=args.seed,
        log=lambda gen, hv: _progress(f"generation {gen:4d}  hypervolume {hv:.4f}"),
    )
    chosen = select_equivalent_comfort(front, baseline, tolerance=tolerance)

    make_output_dir(args.out)
    front_path = os.path.join(args.out, "front.csv")
    with open(front_path, "w") as f:
        f.write("comfort,consumption," + ",".join(space.names) + "\n")
        for settings, obj in front.members:
            cells = [_fmt(obj.comfort), _fmt(obj.consumption)] + [_fmt(v) for v in settings]
            f.write(",".join(cells) + "\n")
    hv_path = os.path.join(args.out, "hypervolume.csv")
    with open(hv_path, "w") as f:
        f.write("generation,hypervolume\n")
        for g, hv in enumerate(front.hypervolume):
            f.write(f"{g},{_fmt(hv)}\n")
    chosen_path = os.path.join(args.out, "chosen.json")
    _write_json(
        chosen_path,
        {
            "settings": {n: float(v) for n, v in zip(space.names, chosen.settings)},
            "objectives": {"comfort": chosen.objectives.comfort,
                           "consumption": chosen.objectives.consumption},
            "baseline": {"comfort": baseline.comfort, "consumption": baseline.consumption},
            "savings": chosen.savings,
            "within_tolerance": chosen.within_tolerance,
            "tolerance": tolerance,
            "front_size": len(front),
            "population": population,
            "generations": generations,
            "seed": args.seed,
        },
    )
    chosen_bms = space.schedule_from_settings(chosen.settings)
    pred = predict(model, inputs=assemble_inputs(params, chosen_bms, occ, weather))
    series_path = os.path.join(args.out, "chosen_timeseries.csv")
    write_hourly_csv(series_path, ("t_pred", "q_heat_pred"), np.column_stack(sensor_series(pred)))
    for path in (front_path, hv_path, chosen_path, series_path):
        manifest.add_output(path)
    manifest.write(os.path.join(args.out, "run.json"))
    _progress(
        f"front of {len(front)}; savings {100 * chosen.savings:.2f}% "
        f"(within tolerance: {chosen.within_tolerance}) -> {args.out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _metric_block(lines, title, d):
    lines.append(f"  {title}:")
    for name in METRIC_FIELDS:
        stat = d.get(name)
        if stat is None:
            lines.append(f"    {name:<10} absent")
        else:
            lines.append(f"    {name:<10} mean {_fmt(stat['mean'])}  std {_fmt(stat['std'])}")


def cmd_report(args, section) -> int:
    root = args.dir
    if not os.path.isdir(root):
        raise SchemaError(f"{root} is not a directory")
    metric_files, calib_files, chosen_files = [], [], []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if name == "metrics.json":
                metric_files.append(path)
            elif name == "calibration.json":
                calib_files.append(path)
            elif name == "chosen.json":
                chosen_files.append(path)
    if not (metric_files or calib_files or chosen_files):
        print("nothing to report")
        return EXIT_OK

    manifest = RunManifest("report", args.seed)
    lines = []
    histories = []  # (path, text) of each calibration_history.csv
    # every artifact is read and rendered before any file is written
    for path in metric_files + calib_files + chosen_files:
        manifest.add_input(path)
        d = _load_json(path)
        rel = os.path.relpath(path, root)
        try:
            if path in metric_files:
                _report_metrics(lines, rel, d)
            elif path in calib_files:
                hist_path = os.path.join(os.path.dirname(path), "calibration_history.csv")
                histories.append((hist_path, _report_calibration(lines, rel, d)))
            else:
                _report_operating_point(lines, rel, d)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"{path}: malformed artifact ({type(e).__name__}: {e})") from None
        lines.append("")

    for hist_path, hist in histories:
        with open(hist_path, "w") as f:
            f.write(hist)
    text = "\n".join(lines)
    report_path = os.path.join(root, "report.txt")
    with open(report_path, "w") as f:
        f.write(text)
    print(text, end="")
    manifest.add_output(report_path)
    for hist_path, _ in histories:
        manifest.add_output(hist_path)
    manifest.write(os.path.join(root, "report_run.json"))
    return EXIT_OK


def _report_metrics(lines, rel, d) -> None:
    lines.append(f"== model metrics ({rel}) ==")
    lines.append(
        f"  kind {d['kind']}  best epoch {d['best_epoch']}  "
        f"best val loss {_fmt(d['best_val_loss'])}"
    )
    _metric_block(lines, "validation", d["val"])
    _metric_block(lines, "test", d["test"])


def _report_calibration(lines, rel, d) -> str:
    """Appends the calibration block; returns the calibration_history.csv text."""
    lines.append(f"== calibration ({rel}) ==")
    r = d["report"]
    lines.append(
        f"  cost {_fmt(r['initial_cost'])} -> {_fmt(r['best_cost'])} "
        f"in {r['generations']} generations ({r['evaluations']} evaluations)"
    )
    width = max(len(n) for n in r["names"])
    for n, v in zip(r["names"], r["values"]):
        lines.append(f"    {n:<{width}}  {_fmt(v)}")
    for label, rows in (("week", r["week_metrics"]), ("held-out week", r["holdout_metrics"])):
        for row in rows:
            lines.append(
                f"  {label} {row['week']}: r2_t {_fmt(row['r2_t'])}  "
                f"r2_q {_fmt(row['r2_q'])}  mse_t {_fmt(row['mse_t'])}  "
                f"mse_q {_fmt(row['mse_q'])}"
            )
    return "generation,best_cost\n" + "".join(
        f"{g},{_fmt(c)}\n" for g, c in enumerate(r["history"], start=1))


def _report_operating_point(lines, rel, d) -> None:
    lines.append(f"== operating point ({rel}) ==")
    lines.append(f"  front size {d['front_size']}  generations {d['generations']}")
    lines.append(
        f"  baseline comfort {_fmt(d['baseline']['comfort'])}  "
        f"consumption {_fmt(d['baseline']['consumption'])}"
    )
    lines.append(
        f"  chosen   comfort {_fmt(d['objectives']['comfort'])}  "
        f"consumption {_fmt(d['objectives']['consumption'])}"
    )
    lines.append(
        f"  savings {_fmt(100 * d['savings'])} %  "
        f"within tolerance: {d['within_tolerance']}"
    )


# ---------------------------------------------------------------------------
# argument plumbing


def _pick(args, section, name, builtin, kind):
    """Priority: explicit flag > --config file section > built-in default.

    The value is converted by `kind` (int or float); one that does not
    convert is an input error. A JSON null in the section means the default.
    """
    v = getattr(args, name, None)
    if v is None:
        v = section.get(name)
    if v is None:
        return builtin
    try:
        return kind(v)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{name} must be {kind.__name__}, got {v!r}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    common.add_argument("--config", default=None, help="JSON file with per-command defaults")

    p = argparse.ArgumentParser(prog="bemopt", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"bemopt {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", parents=[common], help="draw a synthetic dataset")
    s.add_argument("--out", required=True, help="dataset output directory")
    s.add_argument("--weather", required=True, help="weather CSV directory")
    s.add_argument("--episodes", type=int, default=None, help="number of building-weeks")
    s.add_argument("--weather-weeks", type=int, default=None, dest="weather_weeks",
                   help="generate this many weather weeks when the directory is empty")
    s.add_argument("--jobs", type=int, default=1, help="labeling worker processes (default 1)")

    s = sub.add_parser("train", parents=[common], help="fit a surrogate on a dataset")
    s.add_argument("--dataset", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--kind", choices=sorted(mdl.FORWARDS), default="transformer")
    s.add_argument("--epochs", type=int, default=None)
    s.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    s.add_argument("--lr", type=float, default=None)

    s = sub.add_parser("twin", parents=[common], help="fabricate noisy sensor traces")
    s.add_argument("--building", required=True, help="JSON with params/bms/occ of the true building")
    s.add_argument("--weather", required=True)
    s.add_argument("--weeks", default=None, help="comma-separated week indices (default: all)")
    s.add_argument("--noise-t", type=float, default=None, dest="noise_t",
                   help="temperature noise sigma, deg C (default 0.1)")
    s.add_argument("--noise-q", type=float, default=None, dest="noise_q",
                   help="multiplicative heat noise sigma (default 0.02)")
    s.add_argument("--out", required=True)

    s = sub.add_parser("calibrate", parents=[common], help="fit model inputs to sensor traces")
    s.add_argument("--model", required=True, help="trained checkpoint (model.bin)")
    s.add_argument("--traces", required=True, help="directory of trace_wNNNN.csv files")
    s.add_argument("--weather", required=True)
    s.add_argument("--base", required=True, help="JSON with the pinned params/bms/occ")
    s.add_argument("--weeks", required=True, help="calibration week indices, comma-separated")
    s.add_argument("--holdout-weeks", default=None, dest="holdout_weeks")
    s.add_argument("--free", default=None, help="free variables, e.g. 'nb_occupants,t_heat_conf_day:per_day'")
    s.add_argument("--budget", type=int, default=None, help=f"CMA-ES generations (default {BUDGET})")
    s.add_argument("--sigma0", type=float, default=None, help=f"initial step size (default {SIGMA0})")
    s.add_argument("--out", required=True)

    s = sub.add_parser("optimize", parents=[common], help="search the comfort/consumption front")
    s.add_argument("--model", required=True)
    s.add_argument("--calibrated", required=True, help="calibration.json from `calibrate`")
    s.add_argument("--weather", required=True)
    s.add_argument("--week", type=int, default=0, help="weather week to optimize against")
    s.add_argument("--generations", type=int, default=None)
    s.add_argument("--pop", type=int, default=None)
    s.add_argument("--tolerance", type=float, default=None,
                   help=f"comfort tolerance, deg C (default {COMFORT_TOLERANCE})")
    s.add_argument("--out", required=True)

    s = sub.add_parser("report", parents=[common], help="summarize a run directory")
    s.add_argument("dir", help="directory holding command outputs")

    return p


COMMANDS = {
    "sample": cmd_sample,
    "train": cmd_train,
    "twin": cmd_twin,
    "calibrate": cmd_calibrate,
    "optimize": cmd_optimize,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        return COMMANDS[args.command](args, _config_section(args))
    except CliError as e:
        print(f"bemopt {args.command}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as e:
        print(f"bemopt {args.command}: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, mdl.ModelError) as e:
        print(f"bemopt {args.command}: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def _config_section(args) -> dict:
    """The command's section of the --config file; {} without one."""
    if args.config is None:
        return {}
    doc = _load_json(args.config)
    if not isinstance(doc, dict):
        raise SchemaError(f"{args.config}: --config must hold a JSON object")
    section = doc.get(args.command, {})
    if not isinstance(section, dict):
        raise SchemaError(f"{args.config}: --config section {args.command!r} must be an object")
    return section


if __name__ == "__main__":
    sys.exit(main())
