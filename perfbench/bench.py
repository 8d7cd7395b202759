"""Workloads, measurement and output checks of the bemopt pipeline benchmark.

Three workloads drive the real ``bemopt`` commands in-process through
``cli.main``, in one process with ``--jobs`` at its CLI default:

- ``label``:  ``bemopt sample`` of a fresh corpus from a generated weather pool.
- ``train``:  ``bemopt train`` on a corpus built in set-up.
- ``search``: ``bemopt calibrate``, then ``bemopt optimize`` on its result,
  with the model and the sensor traces built in set-up.

Every model uses the acceptance-gate configuration (d_emb 32, r 4, v_width 4,
h 4, n_layers 3, delta 12; batch 32, lr 3e-3).

End-to-end metrics, the same names on every workload:

- ``items_per_s``: units of work per second of the timed commands. A unit is
  one labeled episode (label), one episode-epoch (train), or one surrogate
  evaluation of a 168-hour week (search: candidate-weeks of calibrate plus
  candidates of optimize).
- ``setup_s``: building the inputs before timing (weather, corpus, model, traces).
- ``peak_rss_mb``: peak resident memory of one process running the commands.

``items_per_s`` and ``setup_s`` are in machine-speed-corrected seconds: each
timed interval is bracketed by runs of a fixed reference kernel and rescaled
to the kernel's reference duration (see ``speed.py``), because on a shared
2-core host plain wall time drifts more between runs than the bounds allow.
Their plain wall-clock values are printed beside them as ``wall_items_per_s``
and ``wall_setup_s``.

The per-stage wall-clock throughputs (``label_episodes_per_s`` ...), the
quality guards (``train_val_loss``, ``calibrate_best_cost``,
``optimize_hypervolume``) and ``failed_ops_ratio`` are printed by name above
the JSON line, and reported as ``stage.*`` and ``quality.*`` per-layer metrics.

A run with ``--trace 0`` sets up several times (``setup_s`` is the median),
runs the workload once in a child process (its peak resident memory is
``peak_rss_mb``, its artifacts the reference), checks that run's outputs, then
repeats the workload in-process for ``--seconds`` seconds and reports the
median corrected throughput. Every repeat uses the same seed, so its artifacts
must equal the reference's byte for byte. (tracemalloc would give the peak of the
Python heap alone, but it slows the simulator-bound ``label`` workload about
forty-fold, so the child's peak RSS stands in for it.)

A run with ``--trace 1`` alternates untraced and traced repeats. The traced
ones give the per-layer numbers (medians over traced repeats); the difference
between the two kinds is the tracing overhead. Spans are written to
``.perfbench_out/`` at the end.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for people.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bemopt
from bemopt import cli
from bemopt.pareto import BmsSpace
from bemopt.rcsim import simulate_week
from bemopt.schema import DEFAULT_SCHEMA, BuildingParams, OccupancySchedule
from bemopt.seeding import substream
from bemopt.training import Dataset, load_history_csv, sample_episode_config
from bemopt.weather import generate_pool, load_pool, save_pool

import machine
import tracer as tr
from speed import SpeedProbe

MODEL_CONFIG = {"d_emb": 32, "r": 4, "v_width": 4, "h": 4, "n_layers": 3, "delta": 12,
                "batch_size": 32, "lr": 3e-3}

SRC = Path(bemopt.__file__).resolve().parent.parent  # the sources the child run imports

CALIBRATION_WEEKS = "0,1,2"
HOLDOUT_WEEKS = "3"
OPTIMIZE_WEEK = 4


@dataclass(frozen=True)
class Sizes:
    """Work per repeat and per set-up; chosen so a repeat takes one to two seconds."""

    weather_weeks: int = 16
    label_episodes: int = 96
    corpus_episodes: int = 134  # 128 train episodes: four batches of 32
    train_epochs: int = 2
    search_corpus: int = 40
    search_epochs: int = 1
    calibrate_budget: int = 8
    optimize_generations: int = 4
    optimize_pop: int = 48
    min_setups: int = 3  # set-up runs at least this often and for at least setup_seconds
    setup_seconds: float = 2.0
    probe_every_s: float = 0.5  # short set-ups share one pair of reference-kernel runs
    min_repeats: int = 3


class SetupError(RuntimeError):
    pass


def run_cli(argv) -> tuple:
    """(exit code, captured stderr) of one in-process bemopt command."""
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _setup_cli(argv) -> None:
    code, err = run_cli(argv)
    if code != 0:
        raise SetupError(f"set-up command {argv[0]} exited {code}: {err.strip()}")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _weather_pool(d: Path, seed: int, sizes: Sizes) -> Path:
    wx = d / "wx"
    save_pool(wx, generate_pool(seed, sizes.weather_weeks))
    return wx


def _model_config(d: Path, epochs: int) -> Path:
    path = d / "model_config.json"
    _write_json(path, {"train": dict(MODEL_CONFIG, epochs=epochs)})
    return path


def _finite_numbers(doc) -> bool:
    """Every number inside a JSON document is finite."""
    if isinstance(doc, dict):
        return all(_finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite_numbers(v) for v in doc)
    if isinstance(doc, float):
        return math.isfinite(doc)
    return True


class Workload:
    name = ""
    why = ""
    stage_metrics = {}  # stage -> issue-level name of its throughput

    def setup(self, d: Path, seed: int, sizes: Sizes) -> dict:
        raise NotImplementedError

    def commands(self, ctx: dict, out: Path, seed: int, sizes: Sizes) -> list:
        """(stage, argv) pairs, run in order; a later one may read an earlier one's output."""
        raise NotImplementedError

    def items(self, stage: str, ctx: dict, out: Path, sizes: Sizes) -> int:
        """Units of work `stage` completed, read after it ran."""
        raise NotImplementedError

    def check(self, ctx: dict, out: Path, seed: int, sizes: Sizes) -> list:
        """One reason per failed output check on one repeat's artifacts."""
        raise NotImplementedError

    def quality(self, ctx: dict, out: Path) -> dict:
        return {}


class Label(Workload):
    name = "label"
    why = ("bemopt sample: about 90% simulator time and no autodiff, and it writes the "
           "largest artifact, so labeling changes show here and inference changes must not")
    stage_metrics = {"sample": "label_episodes_per_s"}
    checked_episodes = 4

    def setup(self, d, seed, sizes):
        return {"wx": _weather_pool(d, seed, sizes)}

    def commands(self, ctx, out, seed, sizes):
        return [("sample", ["sample", "--out", out / "ds", "--weather", ctx["wx"],
                            "--episodes", sizes.label_episodes, "--seed", seed])]

    def items(self, stage, ctx, out, sizes):
        return sizes.label_episodes

    def check(self, ctx, out, seed, sizes):
        """A fixed handful of episodes, re-simulated, give identical targets."""
        ds = Dataset.load(out / "ds")
        pool = load_pool(ctx["wx"])
        n = sizes.label_episodes
        failures = []
        if ds.n_episodes != n:
            failures.append(f"label: {ds.n_episodes} episodes written, want {n}")
        picks = sorted({round(k * (n - 1) / (self.checked_episodes - 1))
                        for k in range(self.checked_episodes)})
        for i in picks:
            params, bms, occ, week = sample_episode_config(
                DEFAULT_SCHEMA, len(pool), substream(seed, "episode", i))
            if int(ds.weather_index[i]) != week:
                failures.append(f"label: episode {i} used weather week {ds.weather_index[i]}, "
                                f"want {week}")
                continue
            truth = simulate_week(params, bms, occ, pool[week]).data
            if not np.array_equal(truth, ds.targets[i]):
                failures.append(f"label: episode {i} targets differ from a fresh simulation")
        return failures


class Train(Workload):
    name = "train"
    why = ("bemopt train: forward, tape backward and Adam on batches of 32 with no simulator "
           "or search; the main training target and the control for inference-only changes")
    stage_metrics = {"train": "train_episodes_per_s"}

    def setup(self, d, seed, sizes):
        wx = _weather_pool(d, seed, sizes)
        corpus = d / "corpus"
        _setup_cli(["sample", "--out", corpus, "--weather", wx,
                    "--episodes", sizes.corpus_episodes, "--seed", seed])
        manifest = json.loads((corpus / "manifest.json").read_text())
        return {"corpus": corpus, "config": _model_config(d, sizes.train_epochs),
                "n_train": len(manifest["splits"]["train"])}

    def commands(self, ctx, out, seed, sizes):
        return [("train", ["train", "--dataset", ctx["corpus"], "--out", out / "mdl",
                           "--config", ctx["config"], "--seed", seed])]

    def items(self, stage, ctx, out, sizes):
        return ctx["n_train"] * sizes.train_epochs

    def check(self, ctx, out, seed, sizes):
        """history.csv has epochs+1 rows and every metric is finite.

        Epoch 0 is the untrained model's validation, so its two training
        columns are NaN by definition and are not checked.
        """
        failures = []
        history = load_history_csv(out / "mdl" / "history.csv")
        if len(history) != sizes.train_epochs + 1:
            failures.append(f"train: history has {len(history)} rows, "
                            f"want {sizes.train_epochs + 1}")
        for row in history:
            values = [v for k, v in row.items()
                      if not (row["epoch"] == 0 and k in ("train_objective", "train_loss"))]
            if not all(math.isfinite(v) for v in values):
                failures.append(f"train: non-finite metric in history epoch {row['epoch']}")
        doc = json.loads((out / "mdl" / "metrics.json").read_text())
        if not _finite_numbers(doc):
            failures.append("train: non-finite number in metrics.json")
        return failures

    def quality(self, ctx, out):
        doc = json.loads((out / "mdl" / "metrics.json").read_text())
        return {"train_val_loss": doc["best_val_loss"]}


class Search(Workload):
    name = "search"
    why = ("bemopt calibrate then optimize: forward-only inference at batches of 10 and 48, "
           "per-candidate assembly and CMA-ES/NSGA-II bookkeeping, no backward pass")
    stage_metrics = {"calibrate": "calibrate_evals_per_s", "optimize": "optimize_evals_per_s"}

    def setup(self, d, seed, sizes):
        wx = _weather_pool(d, seed, sizes)
        params, bms, occ, _ = sample_episode_config(
            DEFAULT_SCHEMA, sizes.weather_weeks, substream(seed, "perfbench-building", 0))
        building = d / "building.json"
        _write_json(building, {"params": params.to_dict(), "bms": bms.to_dict(),
                               "occ": occ.to_dict()})
        corpus, mdl = d / "corpus", d / "mdl"
        _setup_cli(["sample", "--out", corpus, "--weather", wx,
                    "--episodes", sizes.search_corpus, "--seed", seed])
        _setup_cli(["train", "--dataset", corpus, "--out", mdl,
                    "--config", _model_config(d, sizes.search_epochs), "--seed", seed])
        traces = d / "traces"
        _setup_cli(["twin", "--building", building, "--weather", wx,
                    "--weeks", f"{CALIBRATION_WEEKS},{HOLDOUT_WEEKS}",
                    "--out", traces, "--seed", seed])
        return {"wx": wx, "building": building, "model": mdl / "model.bin", "traces": traces}

    def commands(self, ctx, out, seed, sizes):
        return [
            ("calibrate", ["calibrate", "--model", ctx["model"], "--traces", ctx["traces"],
                           "--weather", ctx["wx"], "--base", ctx["building"],
                           "--weeks", CALIBRATION_WEEKS, "--holdout-weeks", HOLDOUT_WEEKS,
                           "--budget", sizes.calibrate_budget, "--out", out / "cal",
                           "--seed", seed]),
            ("optimize", ["optimize", "--model", ctx["model"],
                          "--calibrated", out / "cal" / "calibration.json",
                          "--weather", ctx["wx"], "--week", OPTIMIZE_WEEK,
                          "--generations", sizes.optimize_generations,
                          "--pop", sizes.optimize_pop, "--out", out / "opt", "--seed", seed]),
        ]

    def items(self, stage, ctx, out, sizes):
        if stage == "calibrate":
            report = json.loads((out / "cal" / "calibration.json").read_text())["report"]
            return report["evaluations"] * len(CALIBRATION_WEEKS.split(","))
        return sizes.optimize_pop * (sizes.optimize_generations + 1)

    def check(self, ctx, out, seed, sizes):
        """best <= initial cost, the front is non-dominated, chosen.json is complete."""
        failures = []
        report = json.loads((out / "cal" / "calibration.json").read_text())["report"]
        if not (math.isfinite(report["best_cost"]) and report["best_cost"] <= report["initial_cost"]):
            failures.append(f"search: calibration best cost {report['best_cost']} "
                            f"above initial {report['initial_cost']}")
        rows = (out / "opt" / "front.csv").read_text().splitlines()[1:]
        front = np.array([[float(v) for v in row.split(",")[:2]] for row in rows])
        if len(front) == 0:
            failures.append("search: empty front")
        for i, a in enumerate(front):
            dominated = np.all(front <= a, axis=1) & np.any(front < a, axis=1)
            if dominated.any():
                failures.append(f"search: front member {i} is dominated")
                break
        hv_rows = (out / "opt" / "hypervolume.csv").read_text().splitlines()[1:]
        if len(hv_rows) != sizes.optimize_generations + 1:
            failures.append(f"search: {len(hv_rows)} hypervolume rows, "
                            f"want {sizes.optimize_generations + 1}")
        chosen = json.loads((out / "opt" / "chosen.json").read_text())
        calibrated = json.loads((out / "cal" / "calibration.json").read_text())["calibrated"]
        space = BmsSpace(BuildingParams.from_dict(calibrated["params"]),
                         OccupancySchedule.from_dict(calibrated["occ"]))
        settings = chosen.get("settings", {})
        if sorted(settings) != sorted(space.names) or not _finite_numbers(settings):
            failures.append("search: chosen.json lacks finite settings for every schedule variable")
        return failures

    def quality(self, ctx, out):
        report = json.loads((out / "cal" / "calibration.json").read_text())["report"]
        last = (out / "opt" / "hypervolume.csv").read_text().splitlines()[-1]
        return {"calibrate_best_cost": report["best_cost"],
                "optimize_hypervolume": float(last.split(",")[1])}


WORKLOADS = {w.name: w for w in (Label(), Train(), Search())}

# Per-layer metrics that come from untraced runs and output files, not from spans.
STAGE_METRICS = tuple(m for w in WORKLOADS.values() for m in w.stage_metrics.values())
QUALITY_METRICS = ("train_val_loss", "calibrate_best_cost", "optimize_hypervolume")

UNITS = {
    "items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB",
    "label_episodes_per_s": "episodes/s", "train_episodes_per_s": "episodes/s",
    "calibrate_evals_per_s": "cand-weeks/s", "optimize_evals_per_s": "candidates/s",
    "train_val_loss": "1", "calibrate_best_cost": "1", "optimize_hypervolume": "1",
    "failed_ops_ratio": "fraction",
    "wall_items_per_s": "items/s", "wall_setup_s": "s", "reference_kernel_ms": "ms",
}


# ---------------------------------------------------------------------------
# running and comparing repeats


@dataclass
class Ops:
    """Commands and checks attempted; each failure keeps a one-line reason."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Repeat:
    ok: bool
    walls: dict = field(default_factory=dict)  # stage -> seconds
    items: dict = field(default_factory=dict)  # stage -> units of work
    correction: float = 1.0  # wall seconds -> corrected seconds, from SpeedProbe.factor

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    def rate(self, stages=None) -> float:
        """Units of work per wall-clock second."""
        stages = list(self.walls) if stages is None else stages
        return sum(self.items[s] for s in stages) / sum(self.walls[s] for s in stages)

    def corrected_rate(self) -> float:
        return self.rate() / self.correction


def run_repeat(workload, ctx, out: Path, seed: int, sizes: Sizes, ops: Ops,
               tracer=None) -> Repeat:
    """Run the workload's commands once into `out`; stops at the first failure."""
    out.mkdir(parents=True)
    rep = Repeat(ok=True)
    gc.collect()
    for stage, argv in workload.commands(ctx, out, seed, sizes):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code, err = run_cli(argv)
            else:
                with tracer.span(f"cli.{stage}"):
                    code, err = run_cli(argv)
        except Exception:  # a crash is one failed op; the benchmark reports it and goes on
            code, err = -1, traceback.format_exc()
        wall = time.perf_counter() - t0
        last = err.strip().splitlines()[-1] if err.strip() else ""
        if not ops.record(code == 0, f"{workload.name}: {stage} exited {code}: {last}"):
            rep.ok = False
            return rep
        rep.walls[stage] = wall
        rep.items[stage] = workload.items(stage, ctx, out, sizes)
    return rep


def _canon_manifest(raw: bytes, root: Path) -> dict:
    """run.json without its wall-clock field and with the run's root path masked."""
    doc = json.loads(raw)
    doc.pop("duration_s", None)
    for key in ("inputs", "outputs"):
        doc[key] = {p.replace(str(root), "<root>"): d for p, d in doc[key].items()}
    return doc


def tree_diffs(ref: Path, other: Path) -> list:
    """Relative paths whose content differs between two repeats' output trees."""
    a = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    b = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    if a != b:
        return sorted(str(p) for p in set(a) ^ set(b))
    diffs = []
    for rel in a:
        x, y = (ref / rel).read_bytes(), (other / rel).read_bytes()
        if rel.name == "run.json":
            same = _canon_manifest(x, ref) == _canon_manifest(y, other)
        else:
            same = x == y
        if not same:
            diffs.append(str(rel))
    return diffs


def _check_same(ops: Ops, ref: Path, out: Path, what: str) -> bool:
    diffs = tree_diffs(ref, out)
    return ops.record(not diffs, f"{what}: artifacts differ from the first run: {diffs[:5]}")


def _check_outputs(workload, ctx, out, seed, sizes, ops: Ops) -> None:
    try:
        failures = workload.check(ctx, out, seed, sizes)
    except Exception:  # an unreadable artifact fails the check instead of the benchmark
        failures = [f"{workload.name}: output check crashed: "
                    f"{traceback.format_exc().strip().splitlines()[-1]}"]
    ops.record(not failures, "; ".join(failures))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _stage_rates(workload, repeats) -> dict:
    """Issue-level throughput per stage: median over repeats."""
    return {metric: _median([r.rate([stage]) for r in repeats])
            for stage, metric in workload.stage_metrics.items()}


def timed_setups(workload, seed: int, sizes: Sizes, work: Path, probe: SpeedProbe) -> tuple:
    """(context of the last set-up, wall seconds of each set-up, corrected seconds of each).

    The reference kernel runs before the first set-up and then after the
    set-up that ends a stretch of at least `probe_every_s`; every set-up in a
    stretch is corrected by the kernel runs around it.
    """
    walls, corrected, pending = [], [], []
    k = 0
    t_start = time.perf_counter()
    before = probe.sample()
    more = True
    while more:
        d = work / f"setup{k}"
        gc.collect()
        t0 = time.perf_counter()
        ctx = workload.setup(d, seed, sizes)
        pending.append(time.perf_counter() - t0)
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
        k += 1
        more = k < sizes.min_setups or time.perf_counter() - t_start < sizes.setup_seconds
        if not more or time.perf_counter() - probe.taken_at >= sizes.probe_every_s:
            after = probe.sample()
            walls.extend(pending)
            corrected.extend(t * probe.factor(before, after) for t in pending)
            pending, before = [], after
    return ctx, walls, corrected


_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from bemopt import cli
for argv in json.loads(sys.argv[2]):
    code = cli.main(argv)
    if code:
        print(f"{argv[0]} exited {code}", file=sys.stderr)
        sys.exit(code)
"""


def run_child(workload, ctx, out: Path, seed: int, sizes: Sizes, ops: Ops) -> float:
    """Run the workload's commands once in a fresh interpreter; returns its peak RSS in MB."""
    out.mkdir(parents=True)
    argvs = [[str(a) for a in argv] for _, argv in workload.commands(ctx, out, seed, sizes)]
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, str(SRC), json.dumps(argvs)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    last = err.strip().splitlines()[-1] if err.strip() else ""
    ops.record(proc.returncode == 0,
               f"{workload.name}: reference run exited {proc.returncode}: {last}")
    return usage.ru_maxrss / 1024  # Linux reports kilobytes


def measure(workload, seed: int, seconds: float, sizes: Sizes, work: Path) -> dict:
    """Untraced run: set-up time, peak memory, throughput, checks."""
    ops = Ops()
    probe = SpeedProbe()
    ctx, setup_walls, setup_times = timed_setups(workload, seed, sizes, work, probe)
    ref = work / "ref"
    peak_mb = run_child(workload, ctx, ref, seed, sizes, ops)
    ok = not ops.failures
    quality = {}
    if ok:
        _check_outputs(workload, ctx, ref, seed, sizes, ops)
        quality = workload.quality(ctx, ref)

    repeats = []
    t_start = time.perf_counter()
    k = 0
    before = probe.sample()
    while ok and (k < sizes.min_repeats or time.perf_counter() - t_start < seconds):
        out = work / f"rep{k}"
        rep = run_repeat(workload, ctx, out, seed, sizes, ops)
        after = probe.sample()
        rep.correction = probe.factor(before, after)
        before = after
        if rep.ok and _check_same(ops, ref, out, f"{workload.name} repeat {k}"):
            repeats.append(rep)
        shutil.rmtree(out)
        k += 1

    return {
        "ops": ops,
        "repeats": len(repeats),
        "e2e": {
            "items_per_s": _median([r.corrected_rate() for r in repeats]),
            "setup_s": _median(setup_times),
            "peak_rss_mb": peak_mb,
        },
        "wall": {
            "wall_items_per_s": _median([r.rate() for r in repeats]),
            "wall_setup_s": _median(setup_walls),
            "reference_kernel_ms": 1e3 * _median(probe.samples),
        },
        "stage": _stage_rates(workload, repeats),
        "quality": quality,
    }


def measure_traced(workload, seed: int, seconds: float, sizes: Sizes, work: Path,
                   spans_path: Path) -> dict:
    """Alternating untraced and traced repeats: per-layer numbers and overhead."""
    ops = Ops()
    ctx = workload.setup(work / "setup0", seed, sizes)
    ref = work / "ref"
    first = run_repeat(workload, ctx, ref, seed, sizes, ops)
    quality = {}
    if first.ok:
        _check_outputs(workload, ctx, ref, seed, sizes, ops)
        quality = workload.quality(ctx, ref)

    plain, traced, layers, spans = [], [], [], []
    missing = set()
    t_start = time.perf_counter()
    k = 0
    while first.ok and (k < sizes.min_repeats or time.perf_counter() - t_start < seconds):
        out = work / f"plain{k}"
        rep = run_repeat(workload, ctx, out, seed, sizes, ops)
        if rep.ok and _check_same(ops, ref, out, f"{workload.name} untraced repeat {k}"):
            plain.append(rep)
        shutil.rmtree(out)

        out = work / f"traced{k}"
        with tr.Tracer() as tracer:
            tracer.run = f"{workload.name}-seed{seed}-traced{k}"
            tr.install(tracer)
            rep = run_repeat(workload, ctx, out, seed, sizes, ops, tracer)
        ops.record(not tracer.unrestored(),
                   f"{workload.name}: bindings not restored: {tracer.unrestored()[:3]}")
        missing.update(tracer.missing)
        if rep.ok and _check_same(ops, ref, out, f"{workload.name} traced repeat {k}"):
            traced.append(rep)
            layers.append(tr.layer_metrics(tracer))
            layers[-1]["trace.spans"] = len(tracer.spans)
            spans.extend(tracer.spans)
        shutil.rmtree(out)
        k += 1

    tr.write_spans(spans_path, spans)
    per_layer = ({name: statistics.median(m[name] for m in layers) for name in layers[0]}
                 if layers else {})
    base = _median([r.wall for r in plain])
    overhead = _median([r.wall for r in traced]) - base
    per_layer["trace.overhead_s"] = overhead
    per_layer["trace.overhead_ratio"] = overhead / base if base else 0.0
    stage = _stage_rates(workload, plain)
    for name in STAGE_METRICS:
        per_layer[f"stage.{name}"] = stage.get(name, 0.0)
    for name in QUALITY_METRICS:
        per_layer[f"quality.{name}"] = quality.get(name, 0.0)
    per_layer["quality.failed_ops_ratio"] = ops.failed / max(ops.attempted, 1)
    return {"ops": ops, "repeats": len(traced), "per_layer": per_layer,
            "stage": stage, "quality": quality, "untraced": sorted(missing)}


# ---------------------------------------------------------------------------
# reporting


def _print_report(workload, seed, trace, sizes, facts, res) -> None:
    ops = res["ops"]
    print(f"== perfbench {workload.name} seed {seed} trace {trace} ==")
    print(f"why: {workload.why}")
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"sizes: {json.dumps(vars(sizes), sort_keys=True)}")
    rows = dict(res.get("e2e", {}))
    rows.update(res.get("wall", {}))
    rows.update(res["stage"])
    rows.update(res["quality"])
    rows["failed_ops_ratio"] = ops.failed / max(ops.attempted, 1)
    for name, value in rows.items():
        print(f"  {name:<24} {value:>14.6g} {UNITS[name]}")
    print(f"  repeats {res['repeats']}  ops {ops.attempted}  failed {ops.failed}")
    if res.get("untraced"):
        print(f"  not traced (no longer in bemopt): {', '.join(res['untraced'])}")
    for reason in ops.failures:
        print(f"  FAILED {reason}")


def _result_json(res, trace: bool) -> dict:
    ops = res["ops"]
    if trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in res["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in res["e2e"].items()}
    return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.startswith("stage."):
        return UNITS[name[len("stage."):]]
    if name.startswith("quality."):
        return UNITS[name[len("quality."):]]
    suffix = name.rsplit(".", 1)[1]
    if suffix.startswith("ms_"):
        return "ms"
    if suffix.endswith("_s"):
        return "s"
    if suffix == "bytes" or suffix.endswith("_bytes"):
        return "bytes"
    if suffix.endswith("ratio"):
        return "fraction"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 sizes: Sizes = Sizes(), facts=None) -> dict:
    """Measure one workload in a work directory under `root`; returns the JSON result."""
    workload = WORKLOADS[name]
    facts = machine.machine_facts() if facts is None else facts
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=work_root))
    try:
        if trace:
            spans_path = root / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl"
            res = measure_traced(workload, seed, seconds, sizes, work, spans_path)
        else:
            res = measure(workload, seed, seconds, sizes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it
    _print_report(workload, seed, int(trace), sizes, facts, res)
    return _result_json(res, trace)


def main(argv, root: Path) -> int:
    p = argparse.ArgumentParser(prog="perfbench", description="bemopt pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if SRC != (root / "src").resolve():
        print(f"perfbench: imported bemopt from {SRC}, not from {root / 'src'}", file=sys.stderr)
        return 2

    facts = machine.machine_facts()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         root, facts=facts)
        except SetupError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": spec for name, r in results.items()
                        for m, spec in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0
