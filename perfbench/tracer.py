"""Outside tracer for bemopt: spans around public calls, no edits to the package.

While a `Tracer` is active, each traced function is replaced at every binding
bemopt code looks it up through: the defining module, every bemopt module that
imported it by name (``from .training import predict``), class dictionaries
(methods) and module-level dispatch dicts (``model.FORWARDS``). On exit every
binding gets its original object back.

Spans (name, start, end, parent, run) are kept in memory; `write_spans` saves
them when the benchmark ends. `layer_metrics` turns one traced run into the
per-layer numbers: call counts, busy time (span durations), self time (span
duration minus its children) and the counters read from wrapped calls'
arguments and results (skipped Adam steps, CMA covariance repairs, bytes
written and hashed, distinct candidates).
"""

import collections
import contextlib
import functools
import json
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run: str


def bindings(obj) -> list:
    """(container, key) pairs under which bemopt code can reach `obj`.

    Containers are module dicts, class dicts and module-level dicts. Each
    container is visited once, so a class imported into several modules
    yields one binding per method.
    """
    found, seen = [], set()
    for modname in sorted(sys.modules):
        mod = sys.modules[modname]
        if mod is None or not (modname == "bemopt" or modname.startswith("bemopt.")):
            continue
        containers = [vars(mod)]
        for key, val in vars(mod).items():
            if key.startswith("__"):
                continue
            if isinstance(val, dict):
                containers.append(val)
            elif isinstance(val, type) and val.__module__.startswith("bemopt"):
                containers.append(val)
        for container in containers:
            if id(container) in seen:
                continue
            seen.add(id(container))
            items = vars(container) if isinstance(container, type) else container
            for key, val in list(items.items()):
                if val is obj:
                    found.append((container, key))
    return found


def _get(container, key):
    return vars(container)[key] if isinstance(container, type) else container[key]


def _set(container, key, value) -> None:
    if isinstance(container, type):
        setattr(container, key, value)
    else:
        container[key] = value


class Tracer:
    """Records spans around patched functions; restores every binding on exit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.run = ""
        self.counts = collections.Counter()
        self.notes = collections.defaultdict(list)
        self.objects = {}  # keyed objects read after the run (optimizer states, spaces)
        self.patched = []  # (container, key, original) for every binding ever replaced
        self.missing = []  # traced functions install() could not find
        self._stack = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(tracer, args, kwargs, result)` runs once it closes."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, self.run)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one command."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.spans[idx] = Span(name, t0, t1, parent, self.run)

    def patch(self, original, name: str, after=None) -> int:
        """Replace `original` at all its bindings; returns how many there were."""
        found = bindings(original)
        if not found:
            raise LookupError(f"{name}: no bemopt binding holds {original!r}")
        wrapper = self.wrap(name, original, after)
        for container, key in found:
            self.patched.append((container, key, original))
            _set(container, key, wrapper)
        return len(found)

    def restore(self) -> None:
        for container, key, original in reversed(self.patched):
            if _get(container, key) is not original:
                _set(container, key, original)

    def unrestored(self) -> list:
        """Bindings that do not hold their original object (empty after exit)."""
        return [(container, key) for container, key, original in self.patched
                if _get(container, key) is not original]


# ---------------------------------------------------------------------------
# what gets traced


def _note_rows(tracer, args, kwargs, result):
    inputs = args[3] if len(args) > 3 else kwargs["inputs"]
    tracer.counts["training.predict.rows"] += 1 if np.ndim(inputs) == 2 else len(inputs)


def _note_adam(tracer, args, kwargs, result):
    state = args[2] if len(args) > 2 else kwargs["state"]
    tracer.objects[("adam", id(state))] = state


def _note_cma_tell(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    tracer.objects[("cma", id(state))] = state


def _note_cma_ask(tracer, args, kwargs, result):
    tracer.notes["cma_candidates"].append(np.array(result, copy=True))


def _note_calibration_space(tracer, args, kwargs, result):
    tracer.objects.setdefault("calibration_space", args[0])


def _note_schedule(tracer, args, kwargs, result):
    tracer.objects.setdefault("bms_space", args[0])
    x01 = args[1] if len(args) > 1 else kwargs["x01"]
    tracer.notes["schedules"].append(np.array(x01, dtype=np.float64, copy=True))


def _note_penalized(penalty):
    def note(tracer, args, kwargs, result):
        if not (math.isfinite(result.comfort) and result.comfort < penalty):
            tracer.counts["pareto.nonfinite_candidates"] += 1
    return note


def _note_container_bytes(name):
    def note(tracer, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tracer.counts[name] += os.path.getsize(path)
    return note


def _note_hashed_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["cli.manifest.hashed_bytes"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Patch bemopt's layer boundaries into `tracer`.

    A boundary that no longer exists is skipped and listed in
    `tracer.missing`; its metrics then read zero.
    """
    from bemopt import autodiff as ad
    from bemopt import calibration, cli, model, pareto, rcsim, schema, training, weather

    plan = [
        ("rcsim.simulate_week", rcsim, "simulate_week", None),
        ("schema.make_episode", schema, "make_episode", None),
        ("schema.assemble_inputs", schema, "assemble_inputs", None),
        ("weather.load_pool", weather, "load_pool", None),
        ("weather.load_week", weather, "load_week", None),
        ("training.sample_dataset", training, "sample_dataset", None),
        ("training.train", training, "train", None),
        ("training.training_loss", training, "training_loss", None),
        ("training.predict", training, "predict", _note_rows),
        ("model.transformer_forward", model, "transformer_forward", None),
        ("model.attention_block", model, "attention_block", None),
        ("autodiff.matmul", ad, "matmul", None),
        ("autodiff.windowed_attention", ad, "windowed_attention", None),
        ("autodiff.layer_norm", ad, "layer_norm", None),
        ("autodiff.backward", ad.Tensor, "backward", None),
        ("autodiff.adam_step", ad, "adam_step", _note_adam),
        ("autodiff.save_tensors", ad, "save_tensors",
         _note_container_bytes("autodiff.save_tensors.bytes")),
        ("autodiff.load_tensors", ad, "load_tensors",
         _note_container_bytes("autodiff.load_tensors.bytes")),
        ("calibration.calibrate", calibration, "calibrate", None),
        ("calibration.cma_ask", calibration, "cma_ask", _note_cma_ask),
        ("calibration.cma_tell", calibration, "cma_tell", _note_cma_tell),
        ("calibration.CalibrationSpace.assemble", calibration.CalibrationSpace, "assemble",
         _note_calibration_space),
        ("calibration.cost_from_series", calibration, "cost_from_series", None),
        ("pareto.optimize_bms", pareto, "optimize_bms", None),
        ("pareto.BmsSpace.assemble", pareto.BmsSpace, "assemble", _note_schedule),
        ("pareto.objectives_from_series", pareto, "objectives_from_series",
         _note_penalized(pareto.PENALTY)),
        ("pareto.non_dominated_sort", pareto, "non_dominated_sort", None),
        ("pareto.crowding_distance", pareto, "crowding_distance", None),
        ("pareto.hypervolume_2d", pareto, "hypervolume_2d", None),
        ("cli.manifest", cli.RunManifest, "add_input", _note_hashed_bytes),
        ("cli.manifest", cli.RunManifest, "add_output", _note_hashed_bytes),
    ]
    for name, owner, attr, after in plan:
        fn = vars(owner).get(attr)
        if fn is None:
            tracer.missing.append(f"{owner.__name__}.{attr}")
        else:
            tracer.patch(fn, name, after)


# ---------------------------------------------------------------------------
# from spans to per-layer metrics


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _inside(spans, ancestor: str) -> list:
    """Per span: does an enclosing span carry the name `ancestor`?"""
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        flags[i] = p >= 0 and (spans[p].name == ancestor or flags[p])
    return flags


def _ms(values, q: float) -> float:
    return 1e3 * float(np.percentile(values, q)) if values else 0.0


def _calibration_generations(spans) -> list:
    """cma_ask start to the matching cma_tell end, one per generation."""
    asks = [s for s in spans if s.name == "calibration.cma_ask"]
    tells = [s for s in spans if s.name == "calibration.cma_tell"]
    return [t.end - a.start for a, t in zip(asks, tells)]


def _pareto_generations(spans) -> list:
    """Between successive hypervolume records inside one optimize_bms call.

    The search records one hypervolume for the initial population and one
    per generation, so the gaps between them are the generations.
    """
    out = []
    for o in (s for s in spans if s.name == "pareto.optimize_bms"):
        ends = [s.end for s in spans
                if s.name == "pareto.hypervolume_2d" and o.start <= s.start and s.end <= o.end]
        out.extend(b - a for a, b in zip(ends, ends[1:]))
    return out


def _train_steps(spans, in_predict) -> list:
    """Gradient-mode forward start to the following Adam step end."""
    steps, forward_start = [], None
    for s, inferring in zip(spans, in_predict):
        if s.name == "model.transformer_forward" and not inferring:
            forward_start = s.start
        elif s.name == "autodiff.adam_step" and forward_start is not None:
            steps.append(s.end - forward_start)
            forward_start = None
    return steps


def _distinct_ratio(keys) -> float:
    keys = list(keys)
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced run, keyed as in BENCHMARK.json."""
    spans = tracer.spans
    selfs = self_times(spans)
    in_predict = _inside(spans, "training.predict")
    durs = collections.defaultdict(list)
    self_sum = collections.Counter()
    for s, own in zip(spans, selfs):
        durs[s.name].append(s.end - s.start)
        self_sum[s.name] += own

    def calls(name):
        return len(durs[name])

    def busy(name):
        return float(sum(durs[name]))

    m = {}
    sim = durs["rcsim.simulate_week"]
    m["rcsim.simulate_week.calls"] = len(sim)
    m["rcsim.simulate_week.busy_s"] = busy("rcsim.simulate_week")
    m["rcsim.simulate_week.ms_p50"] = _ms(sim, 50)
    m["rcsim.simulate_week.ms_p90"] = _ms(sim, 90)

    m["schema.make_episode.busy_s"] = busy("schema.make_episode")
    m["schema.assemble_inputs.calls"] = calls("schema.assemble_inputs")
    m["schema.assemble_inputs.busy_s"] = busy("schema.assemble_inputs")

    m["weather.load_pool.busy_s"] = busy("weather.load_pool")
    m["weather.load_week.calls"] = calls("weather.load_week")

    rows = tracer.counts["training.predict.rows"]
    m["training.predict.calls"] = calls("training.predict")
    m["training.predict.rows"] = rows
    m["training.predict.busy_s"] = busy("training.predict")
    m["training.predict.ms_per_row"] = 1e3 * busy("training.predict") / rows if rows else 0.0
    steps = _train_steps(spans, in_predict)
    m["training.step.count"] = len(steps)
    m["training.step.ms_p50"] = _ms(steps, 50)
    m["training.step.ms_p90"] = _ms(steps, 90)
    m["training.training_loss.busy_s"] = busy("training.training_loss")
    m["training.train.self_s"] = float(self_sum["training.train"])
    m["training.sample_dataset.self_s"] = float(self_sum["training.sample_dataset"])

    grad_s = infer_s = 0.0
    for s, inferring in zip(spans, in_predict):
        if s.name == "model.transformer_forward":
            if inferring:
                infer_s += s.end - s.start
            else:
                grad_s += s.end - s.start
    m["model.transformer_forward.grad_s"] = grad_s
    m["model.transformer_forward.infer_s"] = infer_s
    m["model.attention_block.busy_s"] = busy("model.attention_block")

    for op in ("windowed_attention", "layer_norm", "matmul"):
        m[f"autodiff.{op}.fwd_s"] = busy(f"autodiff.{op}")
    m["autodiff.matmul.calls"] = calls("autodiff.matmul")
    m["autodiff.backward.busy_s"] = busy("autodiff.backward")
    m["autodiff.backward.ms_p50"] = _ms(durs["autodiff.backward"], 50)
    m["autodiff.adam_step.busy_s"] = busy("autodiff.adam_step")
    m["autodiff.adam.skipped"] = sum(state.skipped for key, state in tracer.objects.items()
                                     if isinstance(key, tuple) and key[0] == "adam")
    for op in ("save_tensors", "load_tensors"):
        m[f"autodiff.{op}.bytes"] = tracer.counts[f"autodiff.{op}.bytes"]
        m[f"autodiff.{op}.busy_s"] = busy(f"autodiff.{op}")

    gens = _calibration_generations(spans)
    m["calibration.generation.count"] = len(gens)
    m["calibration.generation.ms_p50"] = _ms(gens, 50)
    m["calibration.generation.ms_p90"] = _ms(gens, 90)
    m["calibration.cma_ask.busy_s"] = busy("calibration.cma_ask")
    m["calibration.cma_tell.busy_s"] = busy("calibration.cma_tell")
    m["calibration.cma.repairs"] = sum(state.repairs for key, state in tracer.objects.items()
                                       if isinstance(key, tuple) and key[0] == "cma")
    m["calibration.CalibrationSpace.assemble.calls"] = calls("calibration.CalibrationSpace.assemble")
    m["calibration.CalibrationSpace.assemble.busy_s"] = busy("calibration.CalibrationSpace.assemble")
    m["calibration.cost_from_series.busy_s"] = busy("calibration.cost_from_series")
    space = tracer.objects.get("calibration_space")
    candidates = [x for batch in tracer.notes["cma_candidates"] for x in batch]
    m["calibration.unique_candidate_ratio"] = _distinct_ratio(
        json.dumps([part.to_dict() for part in space.decode(x)], sort_keys=True)
        for x in candidates) if space is not None else 0.0

    gens = _pareto_generations(spans)
    m["pareto.generation.count"] = len(gens)
    m["pareto.generation.ms_p50"] = _ms(gens, 50)
    m["pareto.generation.ms_p90"] = _ms(gens, 90)
    m["pareto.BmsSpace.assemble.calls"] = calls("pareto.BmsSpace.assemble")
    m["pareto.BmsSpace.assemble.busy_s"] = busy("pareto.BmsSpace.assemble")
    for fn in ("objectives_from_series", "non_dominated_sort", "crowding_distance",
               "hypervolume_2d"):
        m[f"pareto.{fn}.busy_s"] = busy(f"pareto.{fn}")
    bms_space = tracer.objects.get("bms_space")
    m["pareto.unique_schedule_ratio"] = _distinct_ratio(
        bms_space.settings_vector(bms_space.decode(x)).tobytes()
        for x in tracer.notes["schedules"]) if bms_space is not None else 0.0
    m["pareto.nonfinite_candidates"] = tracer.counts["pareto.nonfinite_candidates"]

    m["cli.manifest.busy_s"] = busy("cli.manifest")
    m["cli.manifest.hashed_bytes"] = tracer.counts["cli.manifest.hashed_bytes"]
    return m


def write_spans(path, spans) -> None:
    """One JSON object per line: name, start, end, parent, run."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s._asdict()) + "\n")
