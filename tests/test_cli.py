"""End-to-end command pipeline: artifacts, manifests, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bemopt
import bemopt.autodiff as ad
import bemopt.cli
import bemopt.pareto
import bemopt.training
from bemopt.calibration import SensorTrace
from bemopt.cli import main
from bemopt.model import FrozenModel
from bemopt.rcsim import simulate_week
from bemopt.schema import (
    DEFAULT_SCHEMA,
    T_INT_INDEX,
    BmsSchedule,
    BuildingParams,
    OccupancySchedule,
)
from bemopt.seeding import substream
from bemopt.training import load_history_csv, sample_episode_config
from bemopt.weather import load_week


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_json(path) -> dict:
    with open(path) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    params, bms, occ, _ = sample_episode_config(DEFAULT_SCHEMA, 3, substream(42, "episode", 0))
    building = base / "building.json"
    building.write_text(json.dumps(
        {"params": params.to_dict(), "bms": bms.to_dict(), "occ": occ.to_dict()},
        indent=2, sort_keys=True))
    config = base / "tiny.json"
    config.write_text(json.dumps({"train": {
        "d_emb": 8, "r": 2, "v_width": 2, "h": 2, "n_layers": 2, "delta": 3, "epochs": 2,
    }}))

    paths = {
        "base": base,
        "building": building,
        "config": config,
        "weather": base / "wx",
        "dataset": base / "ds",
        "model": base / "mdl",
        "traces": base / "traces",
        "cal": base / "cal",
        "opt": base / "opt",
    }
    assert main(["sample", "--out", str(paths["dataset"]), "--weather", str(paths["weather"]),
                 "--weather-weeks", "3", "--episodes", "8", "--seed", "1"]) == 0
    assert main(["train", "--dataset", str(paths["dataset"]), "--out", str(paths["model"]),
                 "--config", str(config), "--seed", "2"]) == 0
    assert main(["twin", "--building", str(building), "--weather", str(paths["weather"]),
                 "--weeks", "0,1", "--out", str(paths["traces"]), "--seed", "3"]) == 0
    assert main(["calibrate", "--model", str(paths["model"] / "model.bin"),
                 "--traces", str(paths["traces"]), "--weather", str(paths["weather"]),
                 "--base", str(building), "--weeks", "0", "--holdout-weeks", "1",
                 "--budget", "3", "--free", "nb_occupants,capacitance_kJ_perdegreK_perm3",
                 "--out", str(paths["cal"]), "--seed", "4"]) == 0
    assert main(["optimize", "--model", str(paths["model"] / "model.bin"),
                 "--calibrated", str(paths["cal"] / "calibration.json"),
                 "--weather", str(paths["weather"]), "--week", "2",
                 "--generations", "3", "--pop", "8",
                 "--out", str(paths["opt"]), "--seed", "5"]) == 0
    return paths


# ---------------------------------------------------------------------------
# manifests and artifact layout


def test_sample_artifacts_and_manifest(pipeline):
    ds = pipeline["dataset"]
    for name in ("arrays.bin", "manifest.json", "run.json"):
        assert (ds / name).exists()
    run = read_json(ds / "run.json")
    assert run["command"] == "sample" and run["seed"] == 1
    assert {"version", "duration_s", "inputs", "outputs"} <= set(run)
    for path, digest in run["outputs"].items():
        assert sha256(path) == digest  # every artifact listed with its content digest
    listed = {os.path.basename(p) for p in run["outputs"]}
    assert {"arrays.bin", "manifest.json"} <= listed
    assert "week_0000.csv" in listed  # generated weather counts as an output


def test_sample_rerun_byte_identical(pipeline):
    ds2 = pipeline["base"] / "ds2"
    assert main(["sample", "--out", str(ds2), "--weather", str(pipeline["weather"]),
                 "--episodes", "8", "--seed", "1"]) == 0
    assert (ds2 / "arrays.bin").read_bytes() == (pipeline["dataset"] / "arrays.bin").read_bytes()
    assert (ds2 / "manifest.json").read_bytes() == (pipeline["dataset"] / "manifest.json").read_bytes()
    run = read_json(ds2 / "run.json")
    assert set(run["inputs"]) == {str(pipeline["weather"] / f"week_{k:04d}.csv") for k in range(3)}


def test_sample_input_errors(pipeline, tmp_path):
    # empty weather dir without a generation request
    assert main(["sample", "--out", str(tmp_path / "d"), "--weather", str(tmp_path / "empty"),
                 "--episodes", "4"]) == 3
    # declared week count disagrees with the directory
    assert main(["sample", "--out", str(tmp_path / "d"), "--weather", str(pipeline["weather"]),
                 "--weather-weeks", "5", "--episodes", "4"]) == 3
    # missing required count
    assert main(["sample", "--out", str(tmp_path / "d"), "--weather", str(pipeline["weather"])]) == 2


def test_malformed_weather_leaves_no_partial_files(pipeline, tmp_path):
    wx = tmp_path / "wx"
    wx.mkdir()
    good = (pipeline["weather"] / "week_0000.csv").read_text().splitlines()
    good[3] = good[3].replace(",", ";", 1)
    (wx / "week_0000.csv").write_text("\n".join(good) + "\n")
    out = tmp_path / "ds"
    assert main(["sample", "--out", str(out), "--weather", str(wx), "--episodes", "4"]) == 3
    assert not (out / "arrays.bin").exists() and not (out / "manifest.json").exists()


def test_train_artifacts(pipeline):
    mdl_dir = pipeline["model"]
    for name in ("model.bin", "history.csv", "metrics.json", "run.json"):
        assert (mdl_dir / name).exists()
    frozen = FrozenModel.load(mdl_dir / "model.bin")  # norm stats embedded
    assert frozen.kind == "transformer"
    assert frozen.config.d_emb == 8  # --config section reached the model
    history = load_history_csv(mdl_dir / "history.csv")
    assert len(history) == 3 and history[0]["epoch"] == 0  # 2 epochs + baseline row
    m = read_json(mdl_dir / "metrics.json")
    assert m["epochs"] == 2 and m["kind"] == "transformer"
    assert np.isfinite(m["best_val_loss"])
    for split in ("val", "test"):
        assert {"loss", "mse_t", "mse_q", "r2_t", "r2_q"} <= set(m[split])


def test_train_input_error(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "m")]) == 3


def test_twin_traces_and_noise(pipeline):
    doc = read_json(pipeline["building"])
    params = BuildingParams.from_dict(doc["params"])
    bms = BmsSchedule.from_dict(doc["bms"])
    occ = OccupancySchedule.from_dict(doc["occ"])
    weather = load_week(pipeline["weather"] / "week_0000.csv")
    truth = SensorTrace.from_output(simulate_week(params, bms, occ, weather).data)
    noisy = SensorTrace.load_csv(pipeline["traces"] / "trace_w0000.csv")
    # default corruption: additive N(0, 0.1) on temperature, multiplicative 2% on heat
    dt = noisy.t_int - truth.t_int
    assert 0.07 < dt.std() < 0.13 and abs(dt.mean()) < 0.04
    hot = truth.q_heat > 1.0
    assert hot.sum() >= 20
    ratio = noisy.q_heat[hot] / truth.q_heat[hot]
    assert 0.013 < ratio.std() < 0.027 and abs(ratio.mean() - 1.0) < 0.01
    assert not np.array_equal(noisy.t_int, truth.t_int)

    out0 = pipeline["base"] / "twin-exact"
    assert main(["twin", "--building", str(pipeline["building"]), "--weather",
                 str(pipeline["weather"]), "--weeks", "0", "--noise-t", "0",
                 "--noise-q", "0", "--out", str(out0), "--seed", "9"]) == 0
    exact = SensorTrace.load_csv(out0 / "trace_w0000.csv")
    np.testing.assert_array_equal(exact.t_int, truth.t_int)
    np.testing.assert_array_equal(exact.q_heat, truth.q_heat)

    out_b = pipeline["base"] / "twin-seed-b"
    assert main(["twin", "--building", str(pipeline["building"]), "--weather",
                 str(pipeline["weather"]), "--weeks", "0", "--out", str(out_b),
                 "--seed", "33"]) == 0
    other = SensorTrace.load_csv(out_b / "trace_w0000.csv")
    assert not np.array_equal(other.t_int, noisy.t_int)  # seeds decorrelate traces


def test_twin_rerun_byte_identical(pipeline):
    again = pipeline["base"] / "traces-again"
    assert main(["twin", "--building", str(pipeline["building"]), "--weather",
                 str(pipeline["weather"]), "--weeks", "0,1", "--out", str(again),
                 "--seed", "3"]) == 0
    for k in (0, 1):
        name = f"trace_w{k:04d}.csv"
        assert (again / name).read_bytes() == (pipeline["traces"] / name).read_bytes()


def test_calibrate_artifacts(pipeline):
    doc = read_json(pipeline["cal"] / "calibration.json")
    assert "model_checksum" not in doc
    model = str(pipeline["model"] / "model.bin")
    assert read_json(pipeline["cal"] / "run.json")["inputs"][model] == sha256(model)
    r = doc["report"]
    assert r["generations"] == 3
    assert len(doc["best_x01"]) == 2 == len(r["names"])
    assert all(b <= a + 1e-15 for a, b in zip(r["history"], r["history"][1:]))
    assert r["best_cost"] <= r["initial_cost"]
    # the decoded configuration round-trips through the schema types
    BuildingParams.from_dict(doc["calibrated"]["params"])
    BmsSchedule.from_dict(doc["calibrated"]["bms"])
    OccupancySchedule.from_dict(doc["calibrated"]["occ"])
    assert len(r["week_metrics"]) == 1 and len(r["holdout_metrics"]) == 1


def test_calibrate_does_not_mutate_inputs(pipeline):
    run = read_json(pipeline["cal"] / "run.json")
    for path, digest in run["inputs"].items():
        assert sha256(path) == digest


def test_calibrate_input_errors(pipeline, tmp_path):
    args = ["calibrate", "--model", str(pipeline["model"] / "model.bin"),
            "--traces", str(pipeline["traces"]), "--weather", str(pipeline["weather"]),
            "--base", str(pipeline["building"]), "--out", str(tmp_path / "c")]
    assert main(args + ["--weeks", "7", "--budget", "1"]) == 3  # no such trace
    assert main(args + ["--weeks", "0", "--budget", "1",
                        "--free", "nb_occupants:bogus"]) == 3
    assert main(args + ["--weeks", "0", "--budget", "1", "--free", "no_such_var"]) == 3


def test_optimize_artifacts(pipeline):
    opt = pipeline["opt"]
    chosen = read_json(opt / "chosen.json")
    front_lines = (opt / "front.csv").read_text().splitlines()
    header = front_lines[0].split(",")
    assert header[:2] == ["comfort", "consumption"]
    assert len(header) == 2 + len(DEFAULT_SCHEMA.bms) * 7
    assert len(front_lines) - 1 == chosen["front_size"]
    hv_lines = (opt / "hypervolume.csv").read_text().splitlines()
    assert hv_lines[0] == "generation,hypervolume"
    assert len(hv_lines) - 1 == chosen["generations"] + 1  # initial population included
    series = (opt / "chosen_timeseries.csv").read_text().splitlines()
    assert series[0] == "hour,t_pred,q_heat_pred" and len(series) == 169
    assert set(chosen["settings"]) == {f"{s.name}[{d}]" for s in DEFAULT_SCHEMA.bms
                                       for d in ("mon", "tue", "wed", "thu", "fri", "sat", "sun")}
    for name, v in chosen["settings"].items():
        spec = DEFAULT_SCHEMA.spec(name.split("[")[0])
        steps = (v - spec.min) / spec.step
        assert abs(steps - round(steps)) < 1e-9
    assert np.isfinite(chosen["savings"])
    assert chosen["baseline"]["consumption"] > 0


def test_optimize_rerun_byte_identical(pipeline):
    opt2 = pipeline["base"] / "opt2"
    assert main(["optimize", "--model", str(pipeline["model"] / "model.bin"),
                 "--calibrated", str(pipeline["cal"] / "calibration.json"),
                 "--weather", str(pipeline["weather"]), "--week", "2",
                 "--generations", "3", "--pop", "8",
                 "--out", str(opt2), "--seed", "5"]) == 0
    for name in ("front.csv", "hypervolume.csv", "chosen.json", "chosen_timeseries.csv"):
        assert (opt2 / name).read_bytes() == (pipeline["opt"] / name).read_bytes()


def test_report_renders_and_regenerates(pipeline, capsys):
    assert main(["report", str(pipeline["base"])]) == 0
    first = (pipeline["base"] / "report.txt").read_bytes()
    text = first.decode()
    m = read_json(pipeline["model"] / "metrics.json")
    assert repr(float(m["best_val_loss"])) in text  # full-precision echo
    cal = read_json(pipeline["cal"] / "calibration.json")
    assert repr(float(cal["report"]["best_cost"])) in text
    chosen = read_json(pipeline["opt"] / "chosen.json")
    assert repr(float(chosen["objectives"]["consumption"])) in text
    hist = (pipeline["cal"] / "calibration_history.csv").read_text().splitlines()
    assert hist[0] == "generation,best_cost" and len(hist) == 4
    capsys.readouterr()
    assert main(["report", str(pipeline["base"])]) == 0
    assert (pipeline["base"] / "report.txt").read_bytes() == first


def test_report_empty_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 0
    assert "nothing to report" in capsys.readouterr().out
    assert not (tmp_path / "report.txt").exists()


def test_usage_and_config_errors(tmp_path):
    assert main([]) == 2
    assert main(["nonsense"]) == 2
    assert main(["--version"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sample", "--out", str(tmp_path / "d"), "--weather", str(tmp_path / "w"),
                 "--episodes", "2", "--config", str(bad)]) == 3
    assert main(["report", str(tmp_path), "--jobs", "3"]) == 2  # only `sample` has workers


# ---------------------------------------------------------------------------
# bad inputs and numerical failures: exit code, one stderr line, nothing written


def _argv(pipeline, tmp, command, *extra):
    """`command` on the pipeline's inputs, writing to tmp/out; `extra` flags
    come later and so override the inputs given here."""
    p = pipeline
    inputs = {
        "sample": ["--weather", str(p["weather"]), "--episodes", "4"],
        "train": ["--dataset", str(p["dataset"])],
        "twin": ["--building", str(p["building"]), "--weather", str(p["weather"]),
                 "--weeks", "0"],
        "calibrate": ["--model", str(p["model"] / "model.bin"), "--traces", str(p["traces"]),
                      "--weather", str(p["weather"]), "--base", str(p["building"]),
                      "--weeks", "0"],
        "optimize": ["--model", str(p["model"] / "model.bin"),
                     "--calibrated", str(p["cal"] / "calibration.json"),
                     "--weather", str(p["weather"]), "--week", "2",
                     "--generations", "1", "--pop", "8"],
    }[command]
    return [command, *inputs, *extra, "--out", str(tmp / "out")]


def _config(tmp, doc) -> str:
    path = tmp / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _truncated_model(pipeline, tmp):
    path = tmp / "input"
    path.write_bytes((pipeline["model"] / "model.bin").read_bytes()[:5])
    return _argv(pipeline, tmp, "optimize", "--model", str(path))


def _short_payload_model(pipeline, tmp):
    path = tmp / "input"
    path.write_bytes((pipeline["model"] / "model.bin").read_bytes()[:-8])
    return _argv(pipeline, tmp, "optimize", "--model", str(path))


def _trailing_bytes_model(pipeline, tmp):
    path = tmp / "input"
    path.write_bytes((pipeline["model"] / "model.bin").read_bytes() + b"\0" * 8)
    return _argv(pipeline, tmp, "optimize", "--model", str(path))


def _edited_model(pipeline, tmp, command, edit):
    """`command` on a copy of the pipeline's checkpoint whose tensors and
    meta went through `edit`, which edits in place or returns a new meta."""
    path = tmp / "input"
    tensors, meta = ad.load_tensors(pipeline["model"] / "model.bin")
    replaced = edit(tensors, meta)
    ad.save_tensors(path, tensors, meta=meta if replaced is None else replaced)
    return _argv(pipeline, tmp, command, "--model", str(path))


def _nan_weights_model(pipeline, tmp):
    def edit(tensors, meta):
        tensors["out.W"][:] = np.nan
    return _edited_model(pipeline, tmp, "optimize", edit)


def _config_narrower_than_tensors(pipeline, tmp):
    def edit(tensors, meta):
        meta["config"]["d_in"] -= 1
    return _edited_model(pipeline, tmp, "optimize", edit)


def _model_narrower_than_declaration(pipeline, tmp):
    def edit(tensors, meta):  # a consistent checkpoint, one input channel short
        meta["config"]["d_in"] -= 1
        tensors["emb.W"] = tensors["emb.W"][:, :-1]
    return _edited_model(pipeline, tmp, "optimize", edit)


def _model_kind_is_a_list(pipeline, tmp):
    def edit(tensors, meta):
        meta["kind"] = [meta["kind"]]
    return _edited_model(pipeline, tmp, "calibrate", edit)


def _model_config_is_a_list(pipeline, tmp):
    def edit(tensors, meta):  # the field names, so only the mapping check catches it
        meta["config"] = list(meta["config"])
    return _edited_model(pipeline, tmp, "calibrate", edit)


def _model_meta_is_not_an_object(pipeline, tmp):
    return _edited_model(pipeline, tmp, "calibrate", lambda tensors, meta: [meta])


def _model_config_with_pos_scale(pipeline, tmp):
    def edit(tensors, meta):  # as written before the position scale became a constant
        meta["config"]["pos_scale"] = 0.3
    return _edited_model(pipeline, tmp, "calibrate", edit)


def _nan_norm_std(pipeline, tmp):
    def edit(tensors, meta):  # on a sensor channel, so every candidate's cost is NaN
        meta["norm"]["target_std"][T_INT_INDEX] = float("nan")
    return _edited_model(pipeline, tmp, "calibrate", edit)


def _huge_norm_std(pipeline, tmp, command):
    def edit(tensors, meta):  # finite predictions whose sensor scores overflow
        meta["norm"]["target_std"][T_INT_INDEX] = 1e300
    return _edited_model(pipeline, tmp, command, edit)


def _calibration_cost_overflows(pipeline, tmp):
    return _huge_norm_std(pipeline, tmp, "calibrate")


def _baseline_comfort_overflows(pipeline, tmp):
    return _huge_norm_std(pipeline, tmp, "optimize")


def _norm_hi_below_lo(pipeline, tmp):
    def edit(tensors, meta):  # fit() makes every input_hi >= its input_lo
        norm = meta["norm"]
        norm["input_lo"][0], norm["input_hi"][0] = norm["input_hi"][0], norm["input_lo"][0]
        assert norm["input_hi"][0] < norm["input_lo"][0]
    return _edited_model(pipeline, tmp, "calibrate", edit)


def _short_norm_mean(pipeline, tmp):
    def edit(tensors, meta):
        meta["norm"]["target_mean"].pop()
    return _edited_model(pipeline, tmp, "optimize", edit)


def _edited_dataset(pipeline, tmp, edit):
    """`train` on a copy of the pipeline's dataset whose manifest went through `edit`."""
    path = tmp / "input"
    path.mkdir()
    (path / "arrays.bin").write_bytes((pipeline["dataset"] / "arrays.bin").read_bytes())
    doc = read_json(pipeline["dataset"] / "manifest.json")
    edit(doc)
    (path / "manifest.json").write_text(json.dumps(doc))
    return _argv(pipeline, tmp, "train", "--dataset", str(path))


def _manifest_missing_splits(pipeline, tmp):
    return _edited_dataset(pipeline, tmp, lambda doc: doc.pop("splits"))


def _manifest_negative_norm_std(pipeline, tmp):
    def edit(doc):  # would train on a sign-flipped channel
        doc["norm"]["target_std"][0] = -1.0
    return _edited_dataset(pipeline, tmp, edit)


def _splits_without_val(pipeline, tmp):
    return _edited_dataset(pipeline, tmp, lambda doc: doc["splits"].pop("val"))


def _edited_arrays(pipeline, tmp, edit):
    """`train` on a copy of the pipeline's dataset whose arrays.bin tensors
    went through `edit`."""
    path = tmp / "input"
    path.mkdir()
    (path / "manifest.json").write_bytes((pipeline["dataset"] / "manifest.json").read_bytes())
    tensors, meta = ad.load_tensors(pipeline["dataset"] / "arrays.bin")
    edit(tensors)
    ad.save_tensors(path / "arrays.bin", tensors, meta=meta)
    return _argv(pipeline, tmp, "train", "--dataset", str(path))


def _dataset_inputs_one_channel_short(pipeline, tmp):
    def edit(tensors):
        tensors["inputs"] = tensors["inputs"][..., :-1]
    return _edited_arrays(pipeline, tmp, edit)


def _dataset_nan_target(pipeline, tmp):
    first_train = read_json(pipeline["dataset"] / "manifest.json")["splits"]["train"][0]

    def edit(tensors):
        tensors["targets"][first_train, 0, T_INT_INDEX] = np.nan
    return _edited_arrays(pipeline, tmp, edit)


def _manifest_schema_differs(pipeline, tmp):
    return _edited_dataset(pipeline, tmp, lambda doc: doc["schema"]["building"].pop())


def _corrupt_dataset(pipeline, tmp):
    path = tmp / "input"
    path.mkdir()
    for name in ("arrays.bin", "manifest.json"):
        (path / name).write_bytes((pipeline["dataset"] / name).read_bytes())
    raw = bytearray((path / "arrays.bin").read_bytes())
    raw[8:12] = b"\xff{[,"  # the JSON index no longer parses
    (path / "arrays.bin").write_bytes(bytes(raw))
    return _argv(pipeline, tmp, "train", "--dataset", str(path))


def _config_is_an_array(pipeline, tmp):
    return _argv(pipeline, tmp, "train", "--config", _config(tmp, [{"train": {}}]))


def _config_budget_not_a_number(pipeline, tmp):
    return _argv(pipeline, tmp, "calibrate",
                 "--config", _config(tmp, {"calibrate": {"budget": "abc"}}))


def _config_zero_model_width(pipeline, tmp):
    return _argv(pipeline, tmp, "train", "--config", _config(tmp, {"train": {"d_emb": 0}}))


def _zero_batch_size(pipeline, tmp):
    return _argv(pipeline, tmp, "train", "--batch-size", "0")


def _negative_epochs(pipeline, tmp):
    return _argv(pipeline, tmp, "train", "--epochs", "-1")


def _nan_lr(pipeline, tmp):
    return _argv(pipeline, tmp, "train", "--lr", "nan")


def _negative_lr(pipeline, tmp):
    return _argv(pipeline, tmp, "train", "--lr", "-1")


def _zero_jobs(pipeline, tmp):
    return _argv(pipeline, tmp, "sample", "--jobs", "0")


def _too_few_episodes_for_new_weather(pipeline, tmp):
    # the count is checked before a weather pool is generated into `wx`
    return _argv(pipeline, tmp, "sample", "--weather", str(tmp / "wx"),
                 "--weather-weeks", "2", "--episodes", "2")


def _new_weather_directory_is_a_file(pipeline, tmp):
    (tmp / "wx").write_text("")
    return _argv(pipeline, tmp, "sample", "--weather", str(tmp / "wx"), "--weather-weeks", "2")


def _out_is_a_file(pipeline, tmp, command, *extra):
    (tmp / "out").write_text("")
    return _argv(pipeline, tmp, command, *extra)


def _sample_out_is_a_file(pipeline, tmp):
    return _out_is_a_file(pipeline, tmp, "sample")


def _twin_out_is_a_file(pipeline, tmp):
    return _out_is_a_file(pipeline, tmp, "twin")


def _train_out_is_a_file(pipeline, tmp):
    return _out_is_a_file(pipeline, tmp, "train", "--config", str(pipeline["config"]))


def _calibrate_out_is_a_file(pipeline, tmp):
    return _out_is_a_file(pipeline, tmp, "calibrate", "--budget", "3")


def _optimize_out_is_a_file(pipeline, tmp):
    return _out_is_a_file(pipeline, tmp, "optimize")


def _zero_sigma0(pipeline, tmp):
    return _argv(pipeline, tmp, "calibrate", "--sigma0", "0")


def _infinite_sigma0(pipeline, tmp):
    return _argv(pipeline, tmp, "calibrate", "--sigma0", "inf")


def _negative_budget(pipeline, tmp):
    return _argv(pipeline, tmp, "calibrate", "--budget", "-3")


def _nan_noise(pipeline, tmp):
    return _argv(pipeline, tmp, "twin", "--noise-t", "nan")


def _nan_tolerance(pipeline, tmp):
    return _argv(pipeline, tmp, "optimize", "--tolerance", "nan")


def _edited_weather(pipeline, tmp, edit):
    """`twin` on weeks 0 and 1 of a copy of the pipeline's weather whose week-1
    CSV lines are passed through `edit`."""
    wx = tmp / "wx"
    wx.mkdir()
    for k in range(3):
        name = f"week_{k:04d}.csv"
        (wx / name).write_bytes((pipeline["weather"] / name).read_bytes())
    lines = (wx / "week_0001.csv").read_text().splitlines()
    (wx / "week_0001.csv").write_text("\n".join(edit(lines)) + "\n")
    # week 0 reads and simulates fine, so its trace must not be written either
    return _argv(pipeline, tmp, "twin", "--weather", str(wx), "--weeks", "0,1")


def _malformed_weather_csv(pipeline, tmp):
    def edit(lines):
        lines[3] = lines[3].replace(",", ";", 1)
        return lines
    return _edited_weather(pipeline, tmp, edit)


def _hours_reversed(lines):
    header, *rows = lines
    return [header] + [f"{167 - h}," + row.split(",", 1)[1] for h, row in enumerate(rows)]


def _weather_hours_reversed(pipeline, tmp):
    return _edited_weather(pipeline, tmp, _hours_reversed)


def _missing_trace(pipeline, tmp):
    return _argv(pipeline, tmp, "calibrate", "--weeks", "0,2")


def _edited_trace(pipeline, tmp, edit):
    """`calibrate` on a copy of the pipeline's week-0 trace whose lines are
    passed through `edit`."""
    traces = tmp / "traces"
    traces.mkdir()
    lines = (pipeline["traces"] / "trace_w0000.csv").read_text().splitlines()
    (traces / "trace_w0000.csv").write_text("\n".join(edit(lines)) + "\n")
    return _argv(pipeline, tmp, "calibrate", "--traces", str(traces))


def _trace_with_duplicate_hour(pipeline, tmp):
    def edit(lines):
        lines[8] = "6," + lines[8].split(",", 1)[1]  # hour 6 twice, no hour 7
        return lines
    return _edited_trace(pipeline, tmp, edit)


def _trace_with_extra_field(pipeline, tmp):
    def edit(lines):
        lines[5] += ",junk"
        return lines
    return _edited_trace(pipeline, tmp, edit)


def _trace_hours_reversed(pipeline, tmp):
    return _edited_trace(pipeline, tmp, _hours_reversed)


def _twin_without_weather_directory(pipeline, tmp):
    argv = _argv(pipeline, tmp, "twin", "--weather", str(tmp / "nope"))
    i = argv.index("--weeks")
    return argv[:i] + argv[i + 2:]  # all weeks of the directory


def _unknown_free_variable(pipeline, tmp):
    return _argv(pipeline, tmp, "calibrate", "--free", "no_such_variable")


def _odd_population(pipeline, tmp):
    return _argv(pipeline, tmp, "optimize", "--pop", "5")


def _edited_building(pipeline, tmp, section, name, value, command="twin"):
    """`command` (`twin` or `calibrate`) on a copy of the pipeline's
    building.json with `section.name` set to `value`."""
    doc = read_json(pipeline["building"])
    doc[section][name] = value
    path = tmp / "building.json"
    path.write_text(json.dumps(doc))
    flag = {"twin": "--building", "calibrate": "--base"}[command]
    return _argv(pipeline, tmp, command, flag, str(path))


def _heat_window_start_not_before_end(pipeline, tmp):
    end = read_json(pipeline["building"])["bms"]["end_heat_day"]
    return _edited_building(pipeline, tmp, "bms", "start_heat_day", end)


def _zero_capacitance(pipeline, tmp):
    return _edited_building(pipeline, tmp, "params", "capacitance_kJ_perdegreK_perm3", 0)


def _negative_heating_power(pipeline, tmp):
    return _edited_building(pipeline, tmp, "params", "power_VCV_kW_heat", -50)


def _nan_heating_setpoint(pipeline, tmp):
    return _edited_building(pipeline, tmp, "bms", "t_heat_conf_day", [math.nan] * 7)


def _negative_ventilation_volume(pipeline, tmp):
    return _edited_building(pipeline, tmp, "bms", "vol_ventilation_day", [-1.0] * 7)


def _thickness_overflowing_the_normalization(pipeline, tmp):
    # a length BuildingParams accepts; scaled by the model's 0.1-wide input
    # range it overflows, so every candidate's prediction is non-finite
    return _edited_building(pipeline, tmp, "params", "facade_1_thickness_2", 1e308,
                            command="calibrate")


def _thickness_beyond_float32_range(pipeline, tmp):
    # scaled by the 0.1-wide input range it normalizes to about 1e39: finite
    # in float64, but beyond float32's range, where the model runs
    return _edited_building(pipeline, tmp, "params", "facade_1_thickness_2", 1e38,
                            command="calibrate")


def _calibrated_block_without_occ(pipeline, tmp):
    doc = read_json(pipeline["cal"] / "calibration.json")
    del doc["calibrated"]["occ"]
    path = tmp / "calibration.json"
    path.write_text(json.dumps(doc))
    return _argv(pipeline, tmp, "optimize", "--calibrated", str(path))


def _missing_model(pipeline, tmp):
    return _argv(pipeline, tmp, "calibrate", "--model", str(tmp / "nope" / "model.bin"))


def _missing_calibrated(pipeline, tmp):
    return _argv(pipeline, tmp, "optimize", "--calibrated", str(tmp / "nope" / "calibration.json"))


def _report_dir(pipeline, tmp, name, doc):
    """A run directory with the pipeline's metrics, calibration and chosen
    artifacts, the one called `name` replaced by `doc`."""
    run = tmp / "run"
    for key, artifact in (("model", "metrics.json"), ("cal", "calibration.json"),
                          ("opt", "chosen.json")):
        (run / key).mkdir(parents=True)
        (run / key / artifact).write_bytes((pipeline[key] / artifact).read_bytes())
        if artifact == name:
            (run / key / artifact).write_text(json.dumps(doc))
    return ["report", str(run)]


def _report_metrics_without_best_epoch(pipeline, tmp):
    doc = read_json(pipeline["model"] / "metrics.json")
    del doc["best_epoch"]
    return _report_dir(pipeline, tmp, "metrics.json", doc)


def _report_chosen_is_a_list(pipeline, tmp):
    # rendered after calibration.json, whose history CSV must not be written
    doc = [read_json(pipeline["opt"] / "chosen.json")]
    return _report_dir(pipeline, tmp, "chosen.json", doc)


@pytest.mark.parametrize("make, code", [
    (_truncated_model, 3),
    (_short_payload_model, 3),
    (_trailing_bytes_model, 3),
    (_corrupt_dataset, 3),
    (_nan_weights_model, 4),
    (_config_narrower_than_tensors, 3),
    (_model_narrower_than_declaration, 3),
    (_model_kind_is_a_list, 3),
    (_model_config_is_a_list, 3),
    (_model_meta_is_not_an_object, 3),
    (_model_config_with_pos_scale, 3),
    (_nan_norm_std, 3),
    (_calibration_cost_overflows, 4),
    (_baseline_comfort_overflows, 4),
    (_norm_hi_below_lo, 3),
    (_short_norm_mean, 3),
    (_manifest_missing_splits, 3),
    (_manifest_negative_norm_std, 3),
    (_splits_without_val, 3),
    (_dataset_inputs_one_channel_short, 3),
    (_dataset_nan_target, 3),
    (_manifest_schema_differs, 3),
    (_config_is_an_array, 3),
    (_config_budget_not_a_number, 3),
    (_config_zero_model_width, 3),
    (_zero_batch_size, 3),
    (_negative_epochs, 3),
    (_nan_lr, 3),
    (_negative_lr, 3),
    (_zero_jobs, 3),
    (_too_few_episodes_for_new_weather, 3),
    (_new_weather_directory_is_a_file, 3),
    (_sample_out_is_a_file, 3),
    (_twin_out_is_a_file, 3),
    (_train_out_is_a_file, 3),
    (_calibrate_out_is_a_file, 3),
    (_optimize_out_is_a_file, 3),
    (_zero_sigma0, 3),
    (_infinite_sigma0, 3),
    (_negative_budget, 3),
    (_nan_noise, 3),
    (_nan_tolerance, 3),
    (_malformed_weather_csv, 3),
    (_weather_hours_reversed, 3),
    (_missing_trace, 3),
    (_trace_with_duplicate_hour, 3),
    (_trace_with_extra_field, 3),
    (_trace_hours_reversed, 3),
    (_twin_without_weather_directory, 3),
    (_unknown_free_variable, 3),
    (_odd_population, 3),
    (_heat_window_start_not_before_end, 3),
    (_zero_capacitance, 3),
    (_negative_heating_power, 3),
    (_nan_heating_setpoint, 3),
    (_negative_ventilation_volume, 3),
    (_thickness_overflowing_the_normalization, 4),
    (_thickness_beyond_float32_range, 4),
    (_calibrated_block_without_occ, 3),
    (_missing_model, 3),
    (_missing_calibrated, 3),
    (_report_metrics_without_best_epoch, 3),
    (_report_chosen_is_a_list, 3),
])
@pytest.mark.filterwarnings("error")
def test_faults_exit_with_one_line(pipeline, tmp_path, capsys, make, code):
    argv = make(pipeline, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"bemopt {argv[0]}: "), err
    # a checkpoint or calibration the row broke or removed is named once,
    # though its loader's message or the OSError names it too
    for flag in ("--model", "--calibrated"):
        given = [value for f, value in zip(argv, argv[1:]) if f == flag]
        if code == 3 and given and Path(given[-1]).is_relative_to(tmp_path):
            assert err[0].count(given[-1]) == 1, err
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.filterwarnings("error")
def test_a_front_of_penalized_schedules_exits_4_with_one_line(
        pipeline, tmp_path, capsys, monkeypatch):
    """Every searched schedule's comfort overflows, the baseline's does not:
    optimize exits 4 with one line and writes nothing, rather than choose a
    PENALTY member as its operating point and exit 0."""
    predict = bemopt.pareto.predict

    def overflowing_search(model, *, inputs):
        preds = predict(model, inputs=inputs)
        if preds.ndim == 3:  # the search's batches, not the one-week baseline
            preds[..., T_INT_INDEX] = 1e300
        return preds

    monkeypatch.setattr(bemopt.pareto, "predict", overflowing_search)
    argv = _argv(pipeline, tmp_path, "optimize")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bemopt optimize: numerical failure: every "
                                               "schedule on the front of "), err
    assert err[0].endswith(" scored non-finite")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, module, work", [
    ("sample", bemopt.training, "simulate_week"),
    ("calibrate", bemopt.cli, "calibrate"),
    ("optimize", bemopt.cli, "optimize_bms"),
])
@pytest.mark.parametrize("out", ["out", "out/run"])
def test_out_that_cannot_be_a_directory_fails_before_the_work(
        pipeline, tmp_path, capsys, monkeypatch, command, module, work, out):
    """`--out` a regular file, or under one: exit 3 with nothing labeled or searched."""
    (tmp_path / "out").write_text("")
    calls = []
    real = getattr(module, work)

    def counted(*args, **kwargs):
        calls.append(work)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, work, counted)
    argv = _argv(pipeline, tmp_path, command)[:-1] + [str(tmp_path / out)]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 3
    assert calls == []
    assert capsys.readouterr().err.splitlines() == [
        f"bemopt {command}: cannot create output directory {tmp_path / out}: "
        f"{tmp_path / 'out'} is not a directory"]
    assert sorted(tmp_path.rglob("*")) == before


def test_every_building_description_is_read_by_one_parser(pipeline, tmp_path, capsys):
    """A building.json (twin, calibrate) and the `calibrated` block of a
    calibration.json (optimize) fail alike when a section is missing."""
    building = read_json(pipeline["building"])
    del building["occ"]
    path = tmp_path / "building.json"
    path.write_text(json.dumps(building))
    cases = [(_argv(pipeline, tmp_path, "twin", "--building", str(path)), path),
             (_argv(pipeline, tmp_path, "calibrate", "--base", str(path)), path),
             (_calibrated_block_without_occ(pipeline, tmp_path), tmp_path / "calibration.json")]
    for argv, source in cases:
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"bemopt {argv[0]}: {source}: bad building description: 'occ'"]


def _in_a_fresh_process(argv):
    """`bemopt` run on argv in a new interpreter that prints numpy's warnings."""
    src = os.path.dirname(os.path.dirname(bemopt.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
    return subprocess.run([sys.executable, "-m", "bemopt.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command", ["calibrate", "optimize"])
def test_nonfinite_weight_fails_with_one_line_in_a_fresh_process(pipeline, tmp_path, command):
    """Exit 4 with the one `predict` message and no numpy warning before it.

    In-process rows cannot see such warnings: pytest captures them.
    """
    def edit(tensors, meta):
        tensors["enc0.ffn.W2"][0, 0] = np.inf
    proc = _in_a_fresh_process(_edited_model(pipeline, tmp_path, command, edit))
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [
        f"bemopt {command}: numerical failure: transformer model: non-finite output"]
    assert not (tmp_path / "out").exists()


def test_input_overflowing_the_normalization_fails_with_one_line_in_a_fresh_process(
        pipeline, tmp_path):
    """Exit 4 with the one `predict` message: the overflow while normalizing
    prints no numpy warning first."""
    proc = _in_a_fresh_process(_thickness_overflowing_the_normalization(pipeline, tmp_path))
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [
        "bemopt calibrate: numerical failure: transformer model: non-finite output"]
    assert not (tmp_path / "out").exists()
