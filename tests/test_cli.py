import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gridscreen import load_model, read_dataset, split_dataset
from gridscreen.cli import _config_from_flags, _write_history_csv, build_parser, main
from gridscreen.gnn import ModelConfig, TrainHistory

CASES = Path(__file__).resolve().parents[1] / "cases"
TRI3 = str(CASES / "tri3.case")


def _unblob(text):
    return np.frombuffer(base64.b64decode(text), "<f8")


def _blob(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _with_nan(blob):
    """A base64 float64 array, from a dataset or model file, with its first value replaced by NaN."""
    values = _unblob(blob).copy()
    values[0] = np.nan
    return _blob(values)


def _normalized_report(path):
    def strip(obj):
        if isinstance(obj, dict):
            return {k: (None if k.endswith("_seconds") or k == "time_pct" else strip(v))
                    for k, v in obj.items()}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return json.dumps(strip(json.loads(Path(path).read_text())), sort_keys=True)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small dataset + trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "d.jsonl"
    model = root / "m.json"
    assert main(["gen-data", "--case", TRI3, "--samples", "60", "--magnitude", "0.1",
                 "--seed", "7", "--out", str(data)]) == 0
    assert main(["train", "--case", TRI3, "--data", str(data), "--threshold", "0.95",
                 "--epochs", "8", "--layers", "2", "--channels", "8",
                 "--out", str(model)]) == 0
    return root, data, model


def test_gen_data_layout_and_summary(workspace, capsys):
    root, data, _ = workspace
    out = root / "d2.jsonl"
    code = main(["gen-data", "--case", TRI3, "--samples", "10", "--seed", "3",
                 "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "wrote 10 samples" in captured
    assert "redraws" in captured
    assert len(out.read_text().splitlines()) == 11


def test_gen_data_deterministic(workspace, tmp_path):
    _, data, _ = workspace
    again = tmp_path / "again.jsonl"
    assert main(["gen-data", "--case", TRI3, "--samples", "60", "--magnitude", "0.1",
                 "--seed", "7", "--out", str(again)]) == 0
    assert data.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--case", TRI3, "--samples", "0", "--out", "x.jsonl"],
    ["gen-data", "--case", TRI3, "--samples", "5", "--magnitude", "1.5", "--out", "x.jsonl"],
    ["gen-data", "--case", "missing.case", "--samples", "5", "--out", "x.jsonl"],
    ["gen-data", "--case", TRI3, "--samples", "5", "--threads", "0", "--out", "x.jsonl"],
])
def test_gen_data_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_gen_data_runtime_failure(tmp_path, tri3_text, capsys):
    bad = tmp_path / "hot.case"
    bad.write_text(tri3_text.replace("3 1 150.0", "3 1 500.0"))
    # 20 samples make two batches, so two workers really run
    for threads in ("1", "2"):
        code = main(["gen-data", "--case", str(bad), "--samples", "20", "--threads", threads,
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "base-case" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


def test_train_outputs(workspace):
    root, data, model = workspace
    doc = json.loads(model.read_text())
    assert doc["format_version"] == 4
    assert doc["kind"] == "gnn"
    assert doc["trained_threshold"] == 0.95
    assert set(doc["config"]) == {"num_layers", "channels", "seed", "learning_rate", "epochs", "batch_size"}
    assert sorted(doc["normalizer"]) == ["edge_mean", "edge_std", "node_mean", "node_std"]
    assert all(isinstance(value, str) for value in doc["normalizer"].values())
    history = root / "m_history.csv"
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,train_acc,val_acc"
    assert len(lines) == 9  # header + 8 epochs


def test_train_summary_names_epochs_and_wall_time(workspace, tmp_path, capsys):
    _, data, _ = workspace
    out = tmp_path / "m.json"
    assert main(["train", "--case", TRI3, "--data", str(data), "--threshold", "0.95",
                 "--epochs", "2", "--layers", "1", "--channels", "4", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert re.search(r"^trained gnn for 2 epochs in \d+\.\d\d s at threshold 0\.95: ", summary, re.M), summary


def test_train_deterministic(workspace, tmp_path):
    _, data, model = workspace
    again = tmp_path / "m2.json"
    assert main(["train", "--case", TRI3, "--data", str(data), "--threshold", "0.95",
                 "--epochs", "8", "--layers", "2", "--channels", "8",
                 "--out", str(again)]) == 0
    assert model.read_bytes() == again.read_bytes()


def test_train_threshold_range(workspace, capsys):
    _, data, _ = workspace
    assert main(["train", "--case", TRI3, "--data", str(data), "--threshold", "1.5",
                 "--out", "x.json"]) == 2
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--case", "c", "--data", "d", "--threshold", "0.9", "--out", "m.json"],
    ["sweep", "--case", "c", "--data", "d", "--thresholds", "0.9", "--out-dir", "o"],
], ids=["train", "sweep"])
def test_model_flag_defaults_are_model_config_defaults(argv):
    args = build_parser()[0].parse_args(argv)
    assert _config_from_flags(args) == ModelConfig()
    assert args.baseline == "gnn"


def test_train_bad_hyperparameters_are_config_errors(workspace, capsys, monkeypatch):
    _, data, _ = workspace
    monkeypatch.setattr("gridscreen.cli.read_dataset", _no_work)  # rejected before the dataset is read
    for flags, named in ((["--epochs", "0"], "epochs"), (["--lr", "nan"], "learning_rate"),
                         (["--lr", "inf"], "learning_rate")):
        assert main(["train", "--case", TRI3, "--data", str(data), "--threshold", "0.9",
                     *flags, "--out", "x.json"]) == 2
        assert named in capsys.readouterr().err


def test_train_missing_dataset(capsys):
    assert main(["train", "--case", TRI3, "--data", "no.jsonl", "--threshold", "0.9",
                 "--out", "x.json"]) == 2
    assert "no.jsonl" in capsys.readouterr().err


def test_train_fingerprint_mismatch(workspace, capsys):
    _, data, _ = workspace
    case14 = str(CASES / "case14.case")
    assert main(["train", "--case", case14, "--data", str(data), "--threshold", "0.9",
                 "--out", "x.json"]) == 2
    assert "different network" in capsys.readouterr().err


def test_train_malformed_dataset_names_file_and_line(workspace, tmp_path, capsys):
    _, data, _ = workspace
    edits = {
        "load_mw": lambda row: {**row, "load_mw": _blob(_unblob(row["load_mw"])[:2])},
        "p_g": lambda row: {**row, "p_g": "not*base64"},
        "p_g_nan": lambda row: {**row, "p_g": _with_nan(row["p_g"])},
        "sample_id": lambda row: {**row, "sample_id": "x"},
    }
    for case, edit in edits.items():
        key = case.removesuffix("_nan")
        lines = data.read_text().splitlines()
        lines[2] = json.dumps(edit(json.loads(lines[2])))
        bad = tmp_path / f"bad_{case}.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["train", "--case", TRI3, "--data", str(bad), "--threshold", "0.9",
                     "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert f"bad_{case}.jsonl: line 3: {key}" in err
        assert "Error" not in err


@pytest.mark.parametrize("key, value", [
    ("count", "5"), ("count", -1), ("count", True), ("seed", [1]), ("seed", 1.0), ("seed", -1), ("seed", 2**64),
    ("redraws", "x"), ("redraws", -1), ("magnitude", "big"), ("magnitude", 1.0), ("magnitude", False),
], ids=["count-string", "count-negative", "count-bool", "seed-list", "seed-float", "seed-negative", "seed-2**64",
        "redraws-string", "redraws-negative", "magnitude-string", "magnitude-one", "magnitude-bool"])
def test_train_bad_dataset_header_names_key(workspace, tmp_path, capsys, key, value):
    _, data, _ = workspace
    lines = data.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), key: value})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["train", "--case", TRI3, "--data", str(bad), "--threshold", "0.9",
                 "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert f"bad.jsonl: line 1: {key} must be" in err
    assert "Error" not in err


def test_train_mlp_baseline(workspace, tmp_path):
    _, data, _ = workspace
    out = tmp_path / "mlp.json"
    assert main(["train", "--case", TRI3, "--data", str(data), "--threshold", "0.95",
                 "--epochs", "5", "--layers", "2", "--channels", "8", "--baseline", "mlp",
                 "--out", str(out)]) == 0
    assert load_model(out).kind == "mlp"


def test_eval_outputs(workspace, tmp_path, capsys):
    _, data, model = workspace
    out_dir = tmp_path / "eval"
    code = main(["eval", "--case", TRI3, "--data", str(data), "--model", str(model),
                 "--out-dir", str(out_dir)])
    assert code == 0
    assert "prediction error" in capsys.readouterr().out
    for name in ["report_095.json", "summary_095.csv", "branches_095.csv",
                 "wrong_histogram_095.csv", "costs_095.csv"]:
        assert (out_dir / name).is_file(), name
    report = json.loads((out_dir / "report_095.json").read_text())
    assert report["threshold"] == 0.95
    assert report["num_samples"] == 6  # 10% test split of 60


def test_eval_deterministic_modulo_timing(workspace, tmp_path):
    _, data, model = workspace
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["eval", "--case", TRI3, "--data", str(data), "--model", str(model),
                     "--out-dir", str(out)]) == 0
    assert _normalized_report(a / "report_095.json") == _normalized_report(b / "report_095.json")


def test_eval_missing_model_names_path(workspace, capsys):
    _, data, _ = workspace
    assert main(["eval", "--case", TRI3, "--data", str(data),
                 "--model", "ghost.json", "--out-dir", "out"]) == 2
    assert "ghost.json" in capsys.readouterr().err


def test_eval_model_without_config(workspace, tmp_path, capsys):
    _, data, model = workspace
    doc = json.loads(model.read_text())
    del doc["config"]
    bad = tmp_path / "noconfig.json"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--case", TRI3, "--data", str(data), "--model", str(bad),
                 "--out-dir", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert "noconfig.json" in err and "config" in err
    assert "KeyError" not in err


def test_eval_threshold_mismatch_warns_but_runs(workspace, tmp_path, capsys):
    _, data, model = workspace
    code = main(["eval", "--case", TRI3, "--data", str(data), "--model", str(model),
                 "--threshold", "0.7", "--out-dir", str(tmp_path / "e")])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err and "0.95" in captured.err
    assert (tmp_path / "e" / "report_070.json").is_file()


def test_sweep_csv_sorted(workspace, tmp_path):
    _, data, _ = workspace
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--case", TRI3, "--data", str(data), "--thresholds", "95,70,0.95",
                 "--epochs", "5", "--layers", "2", "--channels", "8",
                 "--out-dir", str(out_dir)])
    assert code == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("threshold,")
    taus = [float(line.split(",")[0]) for line in lines[1:]]
    assert taus == [0.7, 0.95]
    assert (out_dir / "model_070.json").is_file()
    assert (out_dir / "report_095.json").is_file()


def test_sweep_single_threshold(workspace, tmp_path):
    _, data, _ = workspace
    out_dir = tmp_path / "one"
    assert main(["sweep", "--case", TRI3, "--data", str(data), "--thresholds", "0.9",
                 "--epochs", "3", "--layers", "2", "--channels", "8",
                 "--out-dir", str(out_dir)]) == 0
    assert len((out_dir / "sweep.csv").read_text().splitlines()) == 2


def test_sweep_bad_threshold(workspace, capsys):
    _, data, _ = workspace
    for thresholds, named in (("150", "out of range"), (" , ", "no thresholds given")):
        assert main(["sweep", "--case", TRI3, "--data", str(data), "--thresholds", thresholds,
                     "--out-dir", "x"]) == 2
        assert named in capsys.readouterr().err


def test_sweep_non_numeric_threshold(workspace, capsys):
    _, data, _ = workspace
    assert main(["sweep", "--case", TRI3, "--data", str(data), "--thresholds", "0.9,abc",
                 "--out-dir", "x"]) == 2
    err = capsys.readouterr().err
    assert "'abc' is not a number" in err
    assert "ValueError" not in err


def test_solve_monitor_all(capsys):
    assert main(["solve", "--case", TRI3, "--monitor", "all"]) == 0
    out = capsys.readouterr().out
    assert "objective: 2100" in out
    assert "VIOLATION" not in out


def test_solve_monitor_none_flags_violation(capsys):
    assert main(["solve", "--case", TRI3, "--monitor", "none"]) == 0
    out = capsys.readouterr().out
    assert "objective: 1500" in out
    assert "VIOLATION" in out
    assert "worst overload 20" in out


def test_solve_monitor_file(tmp_path, capsys):
    listing = tmp_path / "monitor.txt"
    listing.write_text("1\n")
    assert main(["solve", "--case", TRI3, "--monitor", str(listing)]) == 0
    assert "objective: 2100" in capsys.readouterr().out


def test_solve_infeasible_is_not_an_error(tmp_path, capsys):
    load = tmp_path / "load.json"
    load.write_text("[0.0, 0.0, 450.0]")
    assert main(["solve", "--case", TRI3, "--load", str(load)]) == 0
    assert "status: infeasible" in capsys.readouterr().out


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.update(trained_threshold="abc"), "trained_threshold"),
    (lambda doc: doc.update(trained_threshold=True), "trained_threshold"),
    (lambda doc: doc["params"].update({"dense.w_out": _with_nan(doc["params"]["dense.w_out"])}), "dense.w_out"),
    (lambda doc: doc["normalizer"].update(node_std=_blob(np.r_[0.0, _unblob(doc["normalizer"]["node_std"])[1:]])),
     "normalizer node_std"),
    (lambda doc: doc.update(format_version=1), "retrain it with train"),
    (lambda doc: doc.update(format_version=3), "retrain it with train"),
    (lambda doc: doc["config"].update(activation="relu"), "activation"),
    (lambda doc: doc["config"].update(num_layers=True), "num_layers"),
    (lambda doc: doc["config"].update(epochs=2.5), "epochs"),
    (lambda doc: doc["config"].update(seed=2**64), "config field seed must be an integer in [0, 2**64)"),
    (lambda doc: doc["binding"].update(num_buses=True), "num_buses"),
    (lambda doc: doc["binding"].update(num_buses=3.0), "num_buses"),
    (lambda doc: doc["binding"].update(num_branches=0), "num_branches"),
    (lambda doc: doc.update(kind="forest"), "unknown model kind 'forest'"),
], ids=["threshold-string", "threshold-bool", "nan-weight", "zero-std", "format-1", "format-3",
        "config-activation", "config-bool", "config-float", "config-seed-2**64",
        "binding-bool", "binding-float", "binding-zero", "kind-unknown"])
def test_eval_rejects_bad_model_values(workspace, tmp_path, capsys, edit, named):
    _, data, model = workspace
    doc = json.loads(model.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--case", TRI3, "--data", str(data), "--model", str(bad),
                 "--out-dir", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and named in err
    assert "Error" not in err
    assert not (tmp_path / "e").exists()


def test_eval_model_for_another_case_fails_first(workspace, tmp_path, capsys, monkeypatch):
    # the workspace model was trained on tri3: 3 buses and 3 branches, not case14's 14 and 20
    _, _, model = workspace
    case14 = str(CASES / "case14.case")
    data = tmp_path / "d14.jsonl"
    assert main(["gen-data", "--case", case14, "--samples", "5", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("gridscreen.cli.evaluate", _no_work)
    assert main(["eval", "--case", case14, "--data", str(data), "--model", str(model),
                 "--out-dir", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert str(model) in err and "num_buses 3 (the case has 14)" in err
    assert "num_branches 3 (the case has 20)" in err
    assert "Error" not in err
    assert not (tmp_path / "e").exists()


def test_solve_load_length_error(tmp_path, capsys):
    load = tmp_path / "load.json"
    load.write_text("[1.0, 2.0]")
    assert main(["solve", "--case", TRI3, "--load", str(load)]) == 2
    assert "3 buses" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[1.0, NaN, 2.0]",
    "[1.0, Infinity, 2.0]",
    "[1.0, null, 2.0]",
    '[1.0, "two", 3.0]',
    "[[1.0, 2.0, 3.0]]",
    "1.0 two 3.0",
    f"[1{'0' * 400}, 0, 0]",
], ids=["nan", "inf", "null", "string", "nested", "not-numbers", "int-beyond-float"])
def test_solve_malformed_load_is_a_config_error(tmp_path, capsys, text):
    load = tmp_path / "load.json"
    load.write_text(text)
    assert main(["solve", "--case", TRI3, "--load", str(load)]) == 2
    err = capsys.readouterr().err
    assert str(load) in err
    assert "Error" not in err   # no exception class name: not a runtime failure


def test_usage_error_exit_code():
    assert main(["gen-data", "--case", TRI3]) == 2  # missing required flags
    assert main([]) == 2


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 5, "seed": 3, "magnitude": 0.05}))
    out = tmp_path / "ds.jsonl"
    assert main(["--config", str(cfg), "gen-data", "--case", TRI3, "--out", str(out)]) == 0
    assert "wrote 5 samples" in capsys.readouterr().out
    # explicit flag beats the config value
    out2 = tmp_path / "ds2.jsonl"
    assert main(["--config", str(cfg), "gen-data", "--case", TRI3, "--samples", "7",
                 "--out", str(out2)]) == 0
    assert "wrote 7 samples" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["cnn", True, ["mlp"], None], ids=["not-a-choice", "bool", "list", "null"])
def test_config_file_value_outside_a_flags_choices(workspace, tmp_path, capsys, value):
    """--baseline takes only gnn or mlp: a config value outside them exits 2, naming its key, before training."""
    _, data, _ = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"baseline": value}))
    out = tmp_path / "m.json"
    assert main(["--config", str(cfg), "train", "--case", TRI3, "--data", str(data), "--threshold", "0.95",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config key 'baseline': {json.dumps(value)} is not a valid --baseline value" in err
    assert "Error" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["train", "eval"])
def test_config_path_named_like_a_subcommand(workspace, tmp_path, monkeypatch, name):
    """The subcommand is found after --config's value, even where that value names a subcommand."""
    _, data, _ = workspace
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(json.dumps({"epochs": 1}))
    flags = ["--case", TRI3, "--data", str(data), "--threshold", "0.95", "--layers", "1", "--channels", "4"]
    assert main(["--config", name, "train", *flags, "--out", "config.json"]) == 0
    assert main(["train", *flags, "--epochs", "1", "--out", "flags.json"]) == 0
    assert Path("config.json").read_bytes() == Path("flags.json").read_bytes()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample": 5}))
    assert main(["--config", str(cfg), "gen-data", "--case", TRI3, "--out", "x"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("[1, 2]", "JSON object"),
    ('{"samples": [3]}', "'samples'"),
    ('{"seed": {"value": 3}}', "'seed'"),
    # each value goes through its flag's own conversion, as on the command line
    ('{"samples": 2.5}', "'samples'"),
    ('{"samples": null}', "'samples'"),
    ('{"samples": true}', "'samples'"),
    ('{"seed": -1}', "config key 'seed': -1 is not a valid --seed value"),
    ('{"seed": 18446744073709551616}', "config key 'seed': 18446744073709551616 is not a valid --seed value"),
    ("samples: 5", "invalid JSON"),
    ("true", "JSON object"),
], ids=["top-level-list", "list-value", "object-value", "float-for-int", "null-value", "bool-value",
        "seed-negative", "seed-2**64", "not-json", "top-level-bool"])
def test_config_file_wrong_shape(tmp_path, capsys, text, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "x.jsonl"
    assert main(["--config", str(cfg), "gen-data", "--case", TRI3, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and named in err
    assert "Error" not in err
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output directory was checked")


def test_gen_data_missing_out_dir_fails_first(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gridscreen.cli.generate_dataset", _no_work)
    taken = tmp_path / "taken"
    taken.mkdir()
    missing = tmp_path / "no_such_dir"
    for out, named in ((missing / "x.jsonl", f"{missing} does not exist"), (taken, f"{taken} is a directory")):
        assert main(["gen-data", "--case", TRI3, "--samples", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Error" not in err
    assert list(taken.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_dir_that_is_a_file_fails_first(workspace, tmp_path, capsys, monkeypatch, command, under):
    _, data, model = workspace
    for name in ("train", "evaluate", "load_model", "read_dataset"):
        monkeypatch.setattr(f"gridscreen.cli.{name}", _no_work)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out_dir = blocker / "sub" if under else blocker
    extra = (["--model", str(model)] if command == "eval" else ["--thresholds", "95"])
    assert main([command, "--case", TRI3, "--data", str(data), *extra, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert str(blocker) in err and "not a directory" in err
    assert "Error" not in err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("flag, is_dir", [("--out", False), ("--history", False), ("--out", True), ("--history", True)],
                         ids=["--out", "--history", "--out-is-dir", "--history-is-dir"])
def test_train_missing_out_dir_fails_first(workspace, tmp_path, capsys, monkeypatch, flag, is_dir):
    # an output path must name a file in an existing directory
    _, data, _ = workspace
    monkeypatch.setattr("gridscreen.cli.train", _no_work)
    paths = {"--out": str(tmp_path / "m.json"), "--history": str(tmp_path / "h.csv")}
    named = tmp_path / ("taken" if is_dir else "no_such_dir")
    if is_dir:
        named.mkdir()
    paths[flag] = str(named if is_dir else named / "x")
    assert main(["train", "--case", TRI3, "--data", str(data), "--threshold", "0.95",
                 "--out", paths["--out"], "--history", paths["--history"]]) == 2
    err = capsys.readouterr().err
    assert str(named) in err
    assert "Error" not in err
    assert not (tmp_path / "m.json").exists()


def test_train_history_naming_the_model_file_fails_first(workspace, tmp_path, capsys, monkeypatch):
    """A --history path that resolves to the --out file exits 2 before any work and writes no file."""
    _, data, _ = workspace
    monkeypatch.setattr("gridscreen.cli.train", _no_work)
    out = tmp_path / "m.json"
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(out)
    for history in (out, tmp_path / "sub" / ".." / "m.json", tmp_path / "link.csv"):
        assert main(["train", "--case", TRI3, "--data", str(data), "--threshold", "0.95",
                     "--out", str(out), "--history", str(history)]) == 2
        err = capsys.readouterr().err
        assert "same file as --out" in err and str(history) in err
        assert "Error" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "sub"]
    assert not any((tmp_path / "sub").iterdir())


@pytest.mark.parametrize("command, output, input_flag", [
    ("gen-data", "--out", "--case"),
    ("train", "--out", "--case"),
    ("train", "--out", "--data"),
    ("train", "--history", "--case"),
    ("train", "--history", "--data"),
    ("gen-data", "--out", "--config"),
    ("train", "--out", "--config"),
    # eval and sweep write tagged files into --out-dir; the input takes one's name
    ("eval", "report_095.json", "--model"),
    ("eval", "costs_095.csv", "--data"),
    ("eval", "summary_095.csv", "--config"),
    ("sweep", "model_095.json", "--data"),
    ("sweep", "sweep.csv", "--case"),
    ("sweep", "branches_095.csv", "--config"),
])
def test_output_naming_an_input_fails_first(workspace, tmp_path, capsys, monkeypatch, command, output, input_flag):
    """An output path that resolves to an input file exits 2, naming both flags, and leaves the input as it was."""
    _, data, model = workspace
    for name in ("generate_dataset", "train", "evaluate"):
        monkeypatch.setattr(f"gridscreen.cli.{name}", _no_work)
    inputs = {"--case": tmp_path / "t.case", "--data": tmp_path / "d.jsonl",
              "--model": tmp_path / "m.json", "--config": tmp_path / "c.json"}
    if not output.startswith("--"):
        inputs[input_flag] = tmp_path / output
    for flag, content in (("--case", Path(TRI3).read_bytes()), ("--data", data.read_bytes()),
                          ("--model", model.read_bytes()), ("--config", b"{}\n")):
        inputs[flag].write_bytes(content)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = {"gen-data": ["--samples", "5"],
            "train": ["--data", str(inputs["--data"]), "--threshold", "0.95", "--epochs", "1"],
            "eval": ["--data", str(inputs["--data"]), "--model", str(inputs["--model"])],
            "sweep": ["--data", str(inputs["--data"]), "--thresholds", "95"]}[command]
    if output.startswith("--"):
        outputs = {"--out": str(tmp_path / "m_out.json"), "--history": str(tmp_path / "h.csv")}
        outputs[output] = str(inputs[input_flag])
        argv += ["--out", outputs["--out"]] + (["--history", outputs["--history"]] if command == "train" else [])
        named = f"{output} {inputs[input_flag]}"
    else:
        argv += ["--out-dir", str(tmp_path)]
        named = f"--out-dir {inputs[input_flag]}"
    assert main(["--config", str(inputs["--config"]), command, "--case", str(inputs["--case"]), *argv]) == 2
    err = capsys.readouterr().err
    assert f"{named} names the same file as {input_flag} {inputs[input_flag]}" in err
    assert "Error" not in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_eval_splits_with_the_seed_the_model_was_trained_with(workspace, tmp_path, capsys):
    """Without --seed, eval tests on the split that train held out; an explicit --seed that differs warns."""
    _, data, _ = workspace
    model = tmp_path / "m3.json"
    assert main(["train", "--case", TRI3, "--data", str(data), "--threshold", "0.95", "--epochs", "1",
                 "--layers", "1", "--channels", "4", "--seed", "3", "--out", str(model)]) == 0
    evaluate = ["eval", "--case", TRI3, "--data", str(data), "--model", str(model)]
    assert main([*evaluate, "--out-dir", str(tmp_path / "default")]) == 0
    assert main([*evaluate, "--seed", "3", "--out-dir", str(tmp_path / "same")]) == 0
    assert "warning" not in capsys.readouterr().err
    costs = (tmp_path / "default" / "costs_095.csv").read_bytes()
    assert costs == (tmp_path / "same" / "costs_095.csv").read_bytes()
    _, _, test_split = split_dataset(read_dataset(data), (0.8, 0.1, 0.1), 3)
    assert [int(row.split(",")[0]) for row in costs.decode().splitlines()[1:]] == [s.sample_id for s in test_split]
    assert main([*evaluate, "--seed", "5", "--out-dir", str(tmp_path / "other")]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "seed 3" in err and "seed 5" in err


def test_sweep_thresholds_sharing_a_file_tag_fail_first(workspace, tmp_path, capsys, monkeypatch):
    """Two thresholds that round to one file tag exit 2, naming both and the tag, before any work."""
    _, data, _ = workspace
    for name in ("train", "evaluate", "read_dataset"):
        monkeypatch.setattr(f"gridscreen.cli.{name}", _no_work)
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--case", TRI3, "--data", str(data), "--thresholds", "90,90.4",
                 "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "thresholds 0.9 and 0.904 share the file tag 090" in err
    assert "Error" not in err
    assert not out_dir.exists()


def test_sweep_matches_train_then_eval(workspace, tmp_path):
    """Each threshold of a sweep writes the model train writes and the tables eval writes on that model."""
    _, data, _ = workspace
    flags = ["--case", TRI3, "--data", str(data), "--epochs", "2", "--layers", "1", "--channels", "4"]
    sweep = tmp_path / "sweep"
    assert main(["sweep", *flags, "--thresholds", "95,90", "--out-dir", str(sweep)]) == 0
    for tau, tag in (("0.90", "090"), ("0.95", "095")):
        model = tmp_path / f"train_{tag}.json"
        assert main(["train", *flags, "--threshold", tau, "--out", str(model)]) == 0
        assert (sweep / f"model_{tag}.json").read_bytes() == model.read_bytes()
        assert main(["eval", "--case", TRI3, "--data", str(data), "--model", str(model),
                     "--out-dir", str(tmp_path / "eval")]) == 0
        for table in ("costs", "branches", "wrong_histogram"):
            name = f"{table}_{tag}.csv"
            assert (sweep / name).read_bytes() == (tmp_path / "eval" / name).read_bytes(), name


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "sweep"])
def test_seed_out_of_range_fails_first(workspace, tmp_path, capsys, monkeypatch, command, seed):
    """Every command's --seed must be in [0, 2**64): one that is not exits 2, naming the flag, before any work."""
    _, data, model = workspace
    for name in ("generate_dataset", "read_dataset", "load_model"):
        monkeypatch.setattr(f"gridscreen.cli.{name}", _no_work)
    argv = {"gen-data": ["--samples", "5", "--out", str(tmp_path / "d.jsonl")],
            "train": ["--data", str(data), "--threshold", "0.95", "--out", str(tmp_path / "m.json")],
            "eval": ["--data", str(data), "--model", str(model), "--out-dir", str(tmp_path / "e")],
            "sweep": ["--data", str(data), "--thresholds", "95", "--out-dir", str(tmp_path / "s")]}[command]
    assert main([command, "--case", TRI3, *argv, "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be an integer in [0, 2**64), got '{seed}'" in err
    assert list(tmp_path.iterdir()) == []


# per flag value that breaks its flag's rule: the subcommand, the flag and the
# value, as a JSON value for a --config entry and as its text for the flag
_BROKEN_FLAGS = {
    "samples-0": ("gen-data", "--samples", 0),
    "threads-0": ("gen-data", "--threads", 0),
    "magnitude-1.5": ("gen-data", "--magnitude", 1.5),
    "train-threshold-0": ("train", "--threshold", 0),
    "eval-threshold-0": ("eval", "--threshold", 0),
    "thresholds-150": ("sweep", "--thresholds", 150),
    "thresholds-sharing-a-tag": ("sweep", "--thresholds", "90,90.4"),
    "baseline-forest": ("train", "--baseline", "forest"),
    "seed--1": ("gen-data", "--seed", -1),
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name", list(_BROKEN_FLAGS))
def test_flag_value_outside_its_rule_fails_when_parsed(workspace, tmp_path, capsys, monkeypatch, name, source):
    """A value outside its flag's rule exits 2 before any work or output, naming the flag, or its config key."""
    _, data, model = workspace
    for work in ("generate_dataset", "read_dataset", "load_model", "train", "evaluate"):
        monkeypatch.setattr(f"gridscreen.cli.{work}", _no_work)
    command, flag, value = _BROKEN_FLAGS[name]
    required = {"gen-data": {"--samples": "5", "--out": str(tmp_path / "d.jsonl")},
                "train": {"--data": str(data), "--threshold": "0.95", "--out": str(tmp_path / "m.json")},
                "eval": {"--data": str(data), "--model": str(model), "--out-dir": str(tmp_path / "e")},
                "sweep": {"--data": str(data), "--thresholds": "95", "--out-dir": str(tmp_path / "s")}}[command]
    argv = [command, "--case", TRI3, *(token for other, text in required.items() if other != flag
                                       for token in (other, text))]
    if source == "flag":
        argv += [flag, str(value)]
        named = f"argument {flag}: "
    else:
        key = flag.removeprefix("--")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        argv = ["--config", str(config), *argv]
        named = f"config key {key!r}: {json.dumps(value)} is not a valid {flag} value"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Error" not in err and "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ([] if source == "flag" else ["cfg.json"])


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_dataset_too_small_to_split_fails_first(workspace, tmp_path, capsys, monkeypatch, command):
    """A dataset too small for non-empty train, validation and test splits exits 2, naming the file, before any work."""
    _, _, model = workspace
    data = tmp_path / "small.jsonl"
    assert main(["gen-data", "--case", TRI3, "--samples", "5", "--seed", "7", "--out", str(data)]) == 0
    capsys.readouterr()
    for name in ("train", "evaluate"):
        monkeypatch.setattr(f"gridscreen.cli.{name}", _no_work)
    out = tmp_path / "out"
    out.mkdir()
    argv = {"train": ["--threshold", "0.95", "--out", str(out / "m.json")],
            "eval": ["--model", str(model), "--out-dir", str(out / "e")],
            "sweep": ["--thresholds", "95", "--out-dir", str(out / "s")]}[command]
    assert main([command, "--case", TRI3, "--data", str(data), *argv]) == 2
    err = capsys.readouterr().err
    assert f"{data}: 5 samples too few" in err
    assert "Error" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, output", [("eval", "report_095.json"), ("sweep", "model_090.json")])
def test_out_dir_file_that_is_a_directory_fails_first(workspace, tmp_path, capsys, monkeypatch, command, output):
    """A file eval or sweep would write into --out-dir that is an existing directory exits 2 before any work."""
    _, data, model = workspace
    for name in ("train", "evaluate", "read_dataset"):
        monkeypatch.setattr(f"gridscreen.cli.{name}", _no_work)
    taken = tmp_path / "out" / output
    taken.mkdir(parents=True)
    extra = (["--model", str(model)] if command == "eval" else ["--thresholds", "90,95"])
    assert main([command, "--case", TRI3, "--data", str(data), *extra, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"--out-dir {taken} is a directory" in err
    assert "Error" not in err
    assert [p.name for p in (tmp_path / "out").iterdir()] == [output]


def test_case_with_a_nan_value_fails_first(tmp_path, tri3_text, capsys):
    """A non-finite case value exits 2, naming the file, line and column, before anything is solved."""
    bad = tmp_path / "nan.case"
    bad.write_text(tri3_text.replace("1 10.0 0.0 200.0", "1 10.0 nan 200.0"))
    assert main(["solve", "--case", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: line 10: column 3: not a finite number: 'nan'" in err
    assert "Error" not in err


def test_history_csv_is_written_atomically(tmp_path, monkeypatch):
    """The history CSV keeps its bytes (CRLF row ends); a write that fails at the rename keeps the old file."""
    path = tmp_path / "h.csv"
    _write_history_csv(TrainHistory([1.0], [2.0], [0.5], [0.25]), path)
    old = path.read_bytes()
    assert old == b"epoch,train_loss,val_loss,train_acc,val_acc\r\n1,1.0,2.0,0.5,0.25\r\n"

    def failing_replace(src, dst):
        raise OSError("no space left")

    monkeypatch.setattr("gridscreen.samplegen.os.replace", failing_replace)
    with pytest.raises(OSError, match="no space left"):
        _write_history_csv(TrainHistory([3.0, 4.0], [5.0, 6.0], [0.0, 1.0], [1.0, 0.0]), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["h.csv"]


def _file(path, text) -> str:
    path.write_text(text)
    return str(path)


def _edited_dataset(data, path, edit) -> str:
    """A copy of the dataset file at path with each of its lines passed through edit(index, line)."""
    return _file(path, "".join(edit(i, line) + "\n" for i, line in enumerate(data.read_text().splitlines())))


def _edited_model(model, path, edit) -> str:
    doc = json.loads(model.read_text())
    edit(doc)
    return _file(path, json.dumps(doc))


def _train_on(data: str, tmp):
    return ["train", "--case", TRI3, "--data", data, "--threshold", "0.95", "--out", str(tmp / "trained.json")]


def _eval_with(model: str, data, tmp):
    return ["eval", "--case", TRI3, "--data", str(data), "--model", model, "--out-dir", str(tmp / "e")]


def _solve_with(flag: str, path):
    return ["solve", "--case", TRI3, flag, str(path)]


def _case_renamed(i, line):
    """A dataset line whose embedded case, in the header, names an unknown section."""
    if i:
        return line
    return json.dumps({**json.loads(line), "case": json.loads(line)["case"].replace("#BASE", "#BASES")})


# per input: the argv, from a scratch directory and the workspace's dataset and
# model, and the message that names the fault
_REJECTIONS = {
    "seed-not-an-integer": lambda tmp, data, model: (
        ["gen-data", "--case", TRI3, "--samples", "5", "--seed", "abc", "--out", str(tmp / "generated.jsonl")],
        "argument --seed: must be an integer in [0, 2**64), got 'abc'"),
    "eval-threshold-unknown": lambda tmp, data, model: (
        _eval_with(_edited_model(model, tmp / "m.json", lambda doc: doc.update(trained_threshold=None)), data, tmp),
        "--threshold required: model file records no training threshold"),
    "load-missing": lambda tmp, data, model: (
        _solve_with("--load", tmp / "none.txt"), f"load file not found: {tmp / 'none.txt'}"),
    "monitor-missing": lambda tmp, data, model: (
        _solve_with("--monitor", tmp / "none.txt"), f"no such file: {tmp / 'none.txt'}"),
    "monitor-not-an-integer": lambda tmp, data, model: (
        _solve_with("--monitor", _file(tmp / "mon.txt", "0 one")), "bad branch index 'one'"),
    "monitor-out-of-range": lambda tmp, data, model: (
        _solve_with("--monitor", _file(tmp / "mon.txt", "0 3")), "branch indices out of range: [3]"),
    "config-missing": lambda tmp, data, model: (
        ["--config", str(tmp / "none.json"), "gen-data", "--case", TRI3, "--out", str(tmp / "generated.jsonl")],
        f"config file not found: {tmp / 'none.json'}"),
    "dataset-empty": lambda tmp, data, model: (
        _train_on(_file(tmp / "d.jsonl", ""), tmp), f"{tmp / 'd.jsonl'}: empty dataset file"),
    "dataset-row-not-an-object": lambda tmp, data, model: (
        _train_on(_edited_dataset(data, tmp / "d.jsonl", lambda i, line: "[1, 2]" if i == 2 else line), tmp),
        f"{tmp / 'd.jsonl'}: line 3: expected a JSON object"),
    "dataset-case-unparsable": lambda tmp, data, model: (
        _train_on(_edited_dataset(data, tmp / "d.jsonl", _case_renamed), tmp),
        f"{tmp / 'd.jsonl'}: line 1: embedded case: line 1: unknown section header '#BASES'"),
    "model-list": lambda tmp, data, model: (
        _eval_with(_file(tmp / "m.json", "[]"), data, tmp), "corrupt model file: not a JSON object"),
}


@pytest.mark.parametrize("name", list(_REJECTIONS))
def test_bad_input_exits_2_without_a_traceback(workspace, tmp_path, capsys, name):
    """Each malformed flag, config, load, monitor, dataset or model file exits 2 with a message naming the fault."""
    _, data, model = workspace
    argv, named = _REJECTIONS[name](tmp_path, data, model)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Error" not in err and "Traceback" not in err
    assert not any((tmp_path / output).exists() for output in ("generated.jsonl", "trained.json", "e"))


def test_blank_line_between_dataset_rows_is_accepted(workspace, tmp_path):
    _, data, _ = workspace
    spaced = _edited_dataset(data, tmp_path / "spaced.jsonl", lambda i, line: line + ("\n" if i == 2 else ""))
    flags = ["--case", TRI3, "--threshold", "0.95", "--epochs", "1", "--layers", "1", "--channels", "4"]
    assert main(["train", *flags, "--data", spaced, "--out", str(tmp_path / "spaced.json")]) == 0
    assert main(["train", *flags, "--data", str(data), "--out", str(tmp_path / "plain.json")]) == 0
    assert (tmp_path / "spaced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_eval_on_a_dataset_whose_dispatch_was_edited_exits_1(workspace, tmp_path, capsys):
    """A stored dispatch that the re-solve contradicts is a runtime failure, named as a dataset/network mismatch."""
    _, data, model = workspace

    def shifted(i, line):
        if i == 0:
            return line
        row = json.loads(line)
        return json.dumps({**row, "p_g": _blob(_unblob(row["p_g"]) + [1.0, 0.0])})

    edited = _edited_dataset(data, tmp_path / "d.jsonl", shifted)
    assert main(_eval_with(str(model), edited, tmp_path)) == 1
    err = capsys.readouterr().err
    assert "RuntimeError" in err and "dataset/network mismatch" in err
    assert not (tmp_path / "e").exists()
