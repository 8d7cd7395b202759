"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import numpy as np
import pytest

import bench
import speed
import tracer as tr
from bemopt import autodiff as ad
from bemopt import calibration, cli, model, pareto, rcsim, training

ROOT = Path(__file__).resolve().parent.parent

TINY = bench.Sizes(weather_weeks=6, label_episodes=6, corpus_episodes=12, train_epochs=1,
                   search_corpus=8, search_epochs=1, calibrate_budget=2,
                   optimize_generations=2, optimize_pop=8, min_setups=1,
                   setup_seconds=0.0, min_repeats=1)


def _issue_bindings():
    """Bindings the tracer must reach: names imported into callers, dispatch dicts, methods."""
    return [
        (vars(training), "predict", training.predict),
        (vars(calibration), "predict", training.predict),
        (vars(pareto), "predict", training.predict),
        (vars(cli), "predict", training.predict),
        (vars(rcsim), "simulate_week", rcsim.simulate_week),
        (vars(training), "simulate_week", rcsim.simulate_week),
        (vars(cli), "simulate_week", rcsim.simulate_week),
        (vars(ad), "matmul", ad.matmul),
        (vars(ad), "adam_step", ad.adam_step),
        (model.FORWARDS, "transformer", model.transformer_forward),
        (vars(model), "transformer_forward", model.transformer_forward),
        (vars(ad.Tensor), "backward", vars(ad.Tensor)["backward"]),
        (vars(calibration), "cma_tell", calibration.cma_tell),
    ]


def test_tracing_patches_every_caller_binding_and_restores_it():
    expected = _issue_bindings()
    with tr.Tracer() as tracer:
        tr.install(tracer)
        for container, key, original in expected:
            assert container[key] is not original, key
    for container, key, original in expected:
        assert container[key] is original, key
    assert tracer.patched and tracer.unrestored() == [] and tracer.missing == []


def test_a_function_gone_from_bemopt_is_skipped_not_fatal(monkeypatch):
    monkeypatch.delattr(calibration, "cma_ask")
    with tr.Tracer() as tracer:
        tr.install(tracer)
    assert tracer.missing == ["bemopt.calibration.cma_ask"]
    assert tracer.unrestored() == []


def test_bindings_are_restored_when_the_traced_code_raises():
    with pytest.raises(RuntimeError):
        with tr.Tracer() as tracer:
            tr.install(tracer)
            raise RuntimeError("boom")
    assert tracer.unrestored() == []
    for container, key, original in _issue_bindings():
        assert container[key] is original, key


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = [tr.Span("root", 0.0, 10.0, -1, "r"), tr.Span("a", 1.0, 4.0, 0, "r"),
             tr.Span("b", 5.0, 9.0, 0, "r"), tr.Span("c", 6.0, 8.0, 2, "r")]
    assert tr.self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_wrapped_calls_record_nested_spans():
    ticks = iter(range(100))
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.start, outer_span.end) == ("outer", -1, 0, 3)
    assert (inner_span.name, inner_span.parent, inner_span.start, inner_span.end) == ("inner", 0, 1, 2)
    assert tr.self_times(tracer.spans) == [2.0, 1.0]


class _ScriptedProbe:
    """SpeedProbe stand-in whose kernel runs take the given durations."""

    def __init__(self, durations):
        self.durations = iter(durations)
        self.samples = []
        self.taken_at = None

    def sample(self):
        self.samples.append(next(self.durations))
        self.taken_at = bench.time.perf_counter()
        return self.samples[-1]

    factor = staticmethod(speed.SpeedProbe.factor)


class _CountingWorkload(bench.Workload):
    name = "counting"

    def setup(self, d, seed, sizes):
        d.mkdir(parents=True)
        return {}


def test_each_set_up_is_corrected_by_the_kernel_runs_around_it(tmp_path):
    sizes = bench.Sizes(min_setups=3, setup_seconds=0.0, probe_every_s=0.0)
    probe = _ScriptedProbe([0.1, 0.2, 0.4, 0.8])
    _, walls, corrected = bench.timed_setups(_CountingWorkload(), 1, sizes, tmp_path, probe)
    assert len(walls) == len(corrected) == 3 and probe.samples == [0.1, 0.2, 0.4, 0.8]
    for wall, got, before, after in zip(walls, corrected, probe.samples, probe.samples[1:]):
        assert got == pytest.approx(wall * speed.REFERENCE_S / ((before + after) / 2))


def test_tree_diffs_ignores_only_duration_and_root_of_run_manifests(tmp_path):
    def write(root, duration, payload):
        root.mkdir()
        (root / "a.bin").write_bytes(payload)
        (root / "run.json").write_text(json.dumps({
            "duration_s": duration, "seed": 1,
            "inputs": {}, "outputs": {str(root / "a.bin"): "digest"}}))

    write(tmp_path / "one", 1.0, b"x")
    write(tmp_path / "two", 2.0, b"x")
    assert bench.tree_diffs(tmp_path / "one", tmp_path / "two") == []
    write(tmp_path / "three", 1.0, b"y")
    assert bench.tree_diffs(tmp_path / "one", tmp_path / "three") == ["a.bin"]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_pass_writes_the_same_artifacts_as_an_untraced_pass(tmp_path, name):
    workload = bench.WORKLOADS[name]
    ctx = workload.setup(tmp_path / "setup", 3, TINY)
    ops = bench.Ops()
    bench.run_repeat(workload, ctx, tmp_path / "plain", 3, TINY, ops)
    with tr.Tracer() as tracer:
        tr.install(tracer)
        bench.run_repeat(workload, ctx, tmp_path / "traced", 3, TINY, ops, tracer)
    assert ops.failures == []
    assert tracer.spans
    assert bench.tree_diffs(tmp_path / "plain", tmp_path / "traced") == []


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """JSON results of every workload in both modes, on tiny inputs."""
    root = tmp_path_factory.mktemp("checkout")
    return {(name, trace): bench.run_workload(name, 5, 0.0, trace, root, TINY)
            for name in sorted(bench.WORKLOADS) for trace in (False, True)}


def test_every_metric_in_benchmark_json_is_emitted(emitted):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in bench.WORKLOADS:
            result = emitted[(name, trace)]
            assert result["correct"] and result["failed"] == 0, (name, trace)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            assert got == want, (name, trace)
            assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in bench.WORKLOADS.items()}


def test_traced_counts_confirm_the_workload_design(emitted):
    layers = {name: {m: v["value"] for m, v in emitted[(name, True)]["metrics"].items()}
              for name in bench.WORKLOADS}
    assert layers["label"]["rcsim.simulate_week.calls"] > 0
    assert layers["train"]["rcsim.simulate_week.calls"] == 0
    assert layers["search"]["rcsim.simulate_week.calls"] == 0
    assert layers["train"]["autodiff.backward.busy_s"] > 0
    assert layers["label"]["autodiff.backward.busy_s"] == 0
    assert layers["search"]["autodiff.backward.busy_s"] == 0
    counts = ("calibration.generation.count", "calibration.CalibrationSpace.assemble.calls",
              "pareto.generation.count", "pareto.BmsSpace.assemble.calls")
    for metric in counts:
        assert layers["search"][metric] > 0, metric
        assert layers["label"][metric] == 0 and layers["train"][metric] == 0, metric
    assert layers["search"]["calibration.generation.count"] == TINY.calibrate_budget
    assert layers["search"]["pareto.generation.count"] == TINY.optimize_generations
    assert layers["train"]["training.step.count"] > 0
