"""End-to-end CLI tests: each subcommand run in-process via main(argv)."""

import csv
import errno
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulenet import cli
from rulenet.cli import _write_json, main, resolve_run_config
from rulenet.checkpoint import load_checkpoint
from rulenet.data import encode, load_csv, read_table
from rulenet.datasets import separable_classification, step_regression, write_csv
from rulenet.errors import (
    ArtifactWriteError,
    ConfigError,
    ContractError,
    DivergenceError,
    TruncationError,
)
from rulenet.hpo import SearchSpace, sample_config
from rulenet.model import RuleNetConfig, encoder_only_flops, estimate_flops
from rulenet.training import evaluate

# deterministic model on purpose: several contracts below compare the
# ensemble path against the point path
TINY = {
    "n_quantiles": 4,
    "epochs": 2,
    "n_rules": 3,
    "embed_dim": 8,
    "n_heads": 2,
    "hidden_dim": 16,
    "encoder_layers": 1,
    "decoder_layers": 1,
    "batch_size": 16,
    "mask_rate": 0.0,
    "rule_mask_rate": 0.0,
    "transformer_dropout": 0.0,
    "head_dropout": 0.0,
}
# a study samples every other model field from its space
STUDY = {key: TINY[key] for key in ("epochs", "batch_size")}


def _write_config(path, base=TINY, **extra):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**base, **extra}, fh)
    return str(path)


def _read_json(path):
    return json.loads(Path(path).read_text())


def _lines(path):
    return Path(path).read_text().splitlines()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def reg_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_reg")
    data = root / "steps.csv"
    header, rows = step_regression(rows=80, seed=3)
    write_csv(data, header, rows)
    cfg = _write_config(root / "run.json")
    out = root / "run"
    rc = main(["train", "--data", str(data), "--config", cfg, "--out", str(out), "--seed", "7"])
    assert rc == 0
    return SimpleNamespace(
        root=root, data=str(data), cfg=cfg, out=out, ckpt=str(out / "checkpoint.rnc"),
        study_cfg=_write_config(root / "study.json", STUDY),
    )


@pytest.fixture(scope="module")
def cls_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_cls")
    data = root / "classes.csv"
    header, rows = separable_classification(rows=60, n_features=3, seed=5)
    write_csv(data, header, rows)
    cfg = _write_config(root / "run.json")
    out = root / "run"
    rc = main(["train", "--data", str(data), "--config", cfg, "--out", str(out), "--seed", "1"])
    assert rc == 0
    return SimpleNamespace(
        root=root, data=str(data), cfg=cfg, out=out, ckpt=str(out / "checkpoint.rnc")
    )


# ---------------------------------------------------------------------------
# train


def test_train_writes_all_four_artifacts(reg_run):
    names = sorted(os.listdir(reg_run.out))
    assert names == ["checkpoint.rnc", "config.json", "history.jsonl", "metrics.json"]
    metrics = _read_json(reg_run.out / "metrics.json")
    assert metrics["metric"] == "rmse"
    assert np.isfinite(metrics["val_score"]) and np.isfinite(metrics["test_score"])
    lines = _lines(reg_run.out / "history.jsonl")
    assert len(lines) == TINY["epochs"]


def test_train_echoes_a_replayable_config(reg_run):
    echoed = _read_json(reg_run.out / "config.json")
    # run-level keys plus every model field, including the data-derived ones
    for key in ("data", "fractions", "seed", "dtype", "n_features", "task", "epochs"):
        assert key in echoed
    assert echoed["seed"] == 7  # the flag override, not the default
    assert echoed["task"] == "regression"
    # the echoed model fields validate as-is
    model_fields = {f: echoed[f] for f in RuleNetConfig.__dataclass_fields__}
    RuleNetConfig.from_json(model_fields).validate()


def test_train_same_seed_twice_is_identical(reg_run, tmp_path):
    out2 = tmp_path / "again"
    rc = main(
        ["train", "--data", reg_run.data, "--config", reg_run.cfg, "--out", str(out2), "--seed", "7"]
    )
    assert rc == 0
    for name in ("metrics.json", "history.jsonl", "checkpoint.rnc"):
        a = (reg_run.out / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name


def test_train_missing_target_column_names_it(reg_run, tmp_path, capsys):
    cfg = _write_config(tmp_path / "bad.json", target="price")
    rc = main(["train", "--data", reg_run.data, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 5
    assert "price" in capsys.readouterr().err


def test_train_unknown_config_key_is_rejected(reg_run, tmp_path, capsys):
    cfg = _write_config(tmp_path / "bad.json", learning_rate=0.1)
    rc = main(["train", "--data", reg_run.data, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "learning_rate" in capsys.readouterr().err


def test_train_without_data_is_a_config_error(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "--data" in capsys.readouterr().err


def test_train_ragged_csv_is_an_ingestion_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,y\n1,2,3\n4,5\n")
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 4


def test_oversized_csv_field_is_an_ingestion_error(reg_run, tmp_path, capsys):
    bad = tmp_path / "big.csv"
    bad.write_text("x,y\n1,2\n" + "9" * (csv.field_size_limit() + 1) + ",3\n")
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 4
    rc = main(["predict", "--checkpoint", reg_run.ckpt, "--data", str(bad),
               "--out", str(tmp_path / "preds.csv")])
    assert rc == 4
    assert "line 3" in capsys.readouterr().err


def test_train_replays_its_echoed_config(reg_run, tmp_path):
    out = tmp_path / "replay"
    assert main(["train", "--config", str(reg_run.out / "config.json"), "--out", str(out)]) == 0
    for name in ("checkpoint.rnc", "history.jsonl", "metrics.json", "config.json"):
        assert (reg_run.out / name).read_bytes() == (out / name).read_bytes(), name


def test_train_echoed_config_must_match_the_data(reg_run, tmp_path, capsys):
    echoed = _read_json(reg_run.out / "config.json")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**echoed, "n_features": echoed["n_features"] + 1}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert f"config says n_features = {echoed['n_features'] + 1}" in capsys.readouterr().err


def test_train_unusable_out_names_the_path(reg_run, tmp_path, capsys):
    out = os.path.join(reg_run.data, "run")  # under a file
    rc = main(["train", "--data", reg_run.data, "--config", reg_run.cfg, "--out", out])
    assert rc == 3
    assert f"cannot write {out}: Not a directory" in capsys.readouterr().err


def test_train_unwritable_history_names_the_path(reg_run, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    history.mkdir()
    rc = main(["train", "--data", reg_run.data, "--config", reg_run.cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert f"cannot write {history}: Is a directory" in capsys.readouterr().err


def test_train_rerun_rewrites_the_history(reg_run, tmp_path):
    argv = ["train", "--data", reg_run.data, "--config", reg_run.cfg, "--out", str(tmp_path)]
    assert main(argv + ["--seed", "7"]) == 0
    assert main(argv + ["--seed", "7"]) == 0
    lines = (tmp_path / "history.jsonl").read_text().splitlines()
    assert len(lines) == TINY["epochs"]
    assert (tmp_path / "history.jsonl").read_bytes() == (reg_run.out / "history.jsonl").read_bytes()


@pytest.mark.parametrize(
    "key,value",
    [
        ("fractions", ["a", 0.2, 0.2]),
        ("fractions", [None, 0.2, 0.2]),
        ("fractions", [float("nan"), 0.2, 0.2]),
        ("seed", "x"),
        ("seed", None),
        ("seed", True),
        ("seed", -1),
        ("dtype", [1]),
    ],
)
def test_train_bad_run_value_names_the_key(reg_run, tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path / "bad.json", **{key: value})
    out = tmp_path / "o"
    assert main(["train", "--data", reg_run.data, "--config", cfg, "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("metric", ["bogus", "accuracy"])  # accuracy on a regression table
def test_train_checks_the_metric_before_training(reg_run, tmp_path, capsys, metric):
    cfg = _write_config(tmp_path / "bad.json", metric=metric)
    out = tmp_path / "o"
    assert main(["train", "--data", reg_run.data, "--config", cfg, "--out", str(out)]) == 3
    assert repr(metric) in capsys.readouterr().err
    assert not out.exists()


def test_config_file_not_utf8_is_a_config_error(reg_run, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"seed": 1}')
    assert main(["flops", "--config", str(bad)]) == 3
    assert main(["train", "--data", reg_run.data, "--config", str(bad), "--out", str(tmp_path)]) == 3
    assert main(["hpo", "--data", reg_run.data, "--space", str(bad), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.count("is not valid JSON") == 3


def test_train_on_a_bom_file_predicts_on_the_plain_one(reg_run, tmp_path):
    # a byte-order mark, as spreadsheet "CSV UTF-8" exports write, leaves
    # the first column's name alone
    plain = Path(reg_run.data)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    cfg = _write_config(tmp_path / "run.json", target=_lines(plain)[0].split(",")[0])
    assert main(["train", "--data", str(bom), "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    ckpt = str(tmp_path / "run" / "checkpoint.rnc")
    for data in (plain, bom):
        out = str(tmp_path / f"pred-{data.name}")
        assert main(["predict", "--checkpoint", ckpt, "--data", str(data), "--out", out]) == 0
    assert (tmp_path / "pred-bom.csv").read_bytes() == (tmp_path / f"pred-{plain.name}").read_bytes()


# ---------------------------------------------------------------------------
# predict


def test_predict_point_has_two_columns_and_all_rows(reg_run, tmp_path):
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--checkpoint", reg_run.ckpt, "--data", reg_run.data, "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["row_id", "prediction"]
    assert len(rows) == 80
    assert [r[0] for r in rows] == [str(i) for i in range(80)]


def test_predict_k1_uncertainty_is_all_zeros(reg_run, tmp_path):
    out = tmp_path / "preds.csv"
    rc = main(
        ["predict", "--checkpoint", reg_run.ckpt, "--data", reg_run.data,
         "--ensemble", "1", "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["row_id", "prediction", "uncertainty"]
    assert all(float(r[2]) == 0.0 for r in rows)


def test_predict_ensemble_of_deterministic_model_matches_point(reg_run, tmp_path):
    point, ens = tmp_path / "point.csv", tmp_path / "ens.csv"
    assert main(["predict", "--checkpoint", reg_run.ckpt, "--data", reg_run.data,
                 "--out", str(point)]) == 0
    assert main(["predict", "--checkpoint", reg_run.ckpt, "--data", reg_run.data,
                 "--ensemble", "4", "--out", str(ens)]) == 0
    _, p_rows = _read_csv(point)
    _, e_rows = _read_csv(ens)
    # all stochastic elements are zeroed in TINY: identical prediction strings
    assert [r[1] for r in p_rows] == [r[1] for r in e_rows]
    assert all(float(r[2]) == 0.0 for r in e_rows)


def test_predict_works_without_the_target_column(reg_run, tmp_path):
    header, rows = _read_csv(reg_run.data)
    stripped = tmp_path / "unlabelled.csv"
    write_csv(stripped, header[:-1], [r[:-1] for r in rows])
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--checkpoint", reg_run.ckpt, "--data", str(stripped), "--out", str(out)])
    assert rc == 0
    _, preds = _read_csv(out)
    assert len(preds) == 80


def test_predict_schema_mismatch_is_a_schema_error(reg_run, tmp_path, capsys):
    header, rows = _read_csv(reg_run.data)
    renamed = tmp_path / "renamed.csv"
    write_csv(renamed, ["not_x"] + header[1:], rows)
    rc = main(["predict", "--checkpoint", reg_run.ckpt, "--data", str(renamed),
               "--out", str(tmp_path / "preds.csv")])
    assert rc == 5
    assert "'x'" in capsys.readouterr().err


def test_predict_corrupt_checkpoint_is_a_checkpoint_error(reg_run, tmp_path):
    bad = tmp_path / "bad.rnc"
    bad.write_bytes(b"\x00\x01")
    rc = main(["predict", "--checkpoint", str(bad), "--data", reg_run.data,
               "--out", str(tmp_path / "preds.csv")])
    assert rc == 8


def test_predict_classification_emits_labels(cls_run, tmp_path):
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--checkpoint", cls_run.ckpt, "--data", cls_run.data,
               "--ensemble", "2", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert {r[1] for r in rows} <= {"pos", "neg"}
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)


def test_predict_failed_write_leaves_the_previous_file(reg_run, tmp_path, monkeypatch, capsys):
    out = tmp_path / "preds.csv"
    argv = ["predict", "--checkpoint", reg_run.ckpt, "--data", reg_run.data, "--out", str(out)]
    assert main(argv) == 0
    before = out.read_bytes()
    cells = []

    def disk_full_partway(value):
        cells.append(value)
        if len(cells) > 5:
            raise OSError(errno.ENOSPC, "No space left on device")
        return str(value)

    monkeypatch.setattr(cli, "_format_cell", disk_full_partway)
    assert main(argv + ["--ensemble", "1"]) == 3
    assert f"cannot write {out}: No space" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["preds.csv"]


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_prints_json_record_last(reg_run, capsys):
    rc = main(["evaluate", "--checkpoint", reg_run.ckpt, "--data", reg_run.data])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["metric"] == "rmse"

    model = load_checkpoint(reg_run.ckpt)
    enc = encode(model.prep, read_table(reg_run.data))
    assert record["score"] == evaluate(model, enc)  # bitwise


def test_evaluate_can_write_the_record(reg_run, tmp_path, capsys):
    out = tmp_path / "eval.json"
    rc = main(["evaluate", "--checkpoint", reg_run.ckpt, "--data", reg_run.data,
               "--out", str(out)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert _read_json(out) == printed


def test_failed_json_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "metrics.json"
    _write_json(path, {"score": 1.0})
    before = path.read_bytes()
    with pytest.raises(TypeError):  # json.dump fails on "z" after writing "a"
        _write_json(path, {"a": 2.0, "z": object()})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["metrics.json"]


def test_evaluate_unwritable_out_names_the_given_path(reg_run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["evaluate", "--checkpoint", reg_run.ckpt, "--data", reg_run.data,
               "--out", "missing/dir/eval.json"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "cannot write missing/dir/eval.json: No such file or directory" in err
    assert ".tmp" not in err
    assert os.listdir(tmp_path) == []


def test_evaluate_wrong_metric_for_task(reg_run, capsys):
    rc = main(["evaluate", "--checkpoint", reg_run.ckpt, "--data", reg_run.data,
               "--metric", "accuracy"])
    assert rc == 3
    assert "accuracy" in capsys.readouterr().err


def test_metric_must_be_the_task_metric(cls_run, capsys):
    rc = main(["evaluate", "--checkpoint", cls_run.ckpt, "--data", cls_run.data,
               "--metric", "rmse"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "metric 'rmse' needs a regression model, task is 'classification'" in err
    cli._check_metric("rmse", "regression")
    cli._check_metric("accuracy", "classification")
    with pytest.raises(ConfigError, match="'accuracy' needs a classification model"):
        cli._check_metric("accuracy", "regression")
    with pytest.raises(ConfigError, match="unknown metric 'r2'"):
        cli._check_metric("r2", "classification")


def test_evaluate_missing_target_names_the_column(reg_run, tmp_path, capsys):
    header, rows = _read_csv(reg_run.data)
    stripped = tmp_path / "unlabelled.csv"
    write_csv(stripped, header[:-1], [r[:-1] for r in rows])
    rc = main(["evaluate", "--checkpoint", reg_run.ckpt, "--data", str(stripped)])
    assert rc == 5
    assert "'y'" in capsys.readouterr().err


def test_evaluate_classification_accuracy(cls_run, capsys):
    rc = main(["evaluate", "--checkpoint", cls_run.ckpt, "--data", cls_run.data])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["metric"] == "accuracy"
    assert 0.0 <= record["score"] <= 1.0


# ---------------------------------------------------------------------------
# hpo

SPACE = {
    "embed_dim": {"kind": "fixed", "values": [8]},
    "n_heads": {"kind": "fixed", "values": [2]},
    "n_rules": {"kind": "fixed", "values": [3]},
    "hidden_dim": {"kind": "fixed", "values": [16]},
    "encoder_layers": {"kind": "fixed", "values": [1]},
    "decoder_layers": {"kind": "fixed", "values": [1]},
    "n_quantiles": {"kind": "choice", "values": [3, 5]},
    "batch_size": {"kind": "fixed", "values": [16]},
    "lr_dense": {"kind": "loguniform", "lo": 1e-4, "hi": 1e-2},
    "lr_sparse": {"kind": "loguniform", "lo": 1e-3, "hi": 1e-1},
    "mask_rate": {"kind": "uniform", "lo": 0.0, "hi": 0.2},
    "rule_mask_rate": {"kind": "fixed", "values": [0.0]},
    "transformer_dropout": {"kind": "fixed", "values": [0.0]},
    "head_dropout": {"kind": "fixed", "values": [0.0]},
    "label_smoothing": {"kind": "fixed", "values": [0.0]},
}


def _run_hpo(reg_run, out, *extra):
    space = reg_run.root / "space.json"
    if not space.exists():
        space.write_text(json.dumps(SPACE))
    return main(
        ["hpo", "--data", reg_run.data, "--config", reg_run.study_cfg, "--space", str(space),
         "--trials", "4", "--rungs", "1,2", "--out", str(out), "--seed", "11", *extra]
    )


def test_hpo_writes_study_artifacts(reg_run, tmp_path):
    out = tmp_path / "study"
    assert _run_hpo(reg_run, out) == 0
    names = sorted(os.listdir(out))
    assert names == ["best.json", "config.json", "sensitivity.json", "trials.jsonl"]

    trials = [json.loads(line) for line in _lines(out / "trials.jsonl")]
    assert len(trials) == 4
    assert {t["status"] for t in trials} <= {"completed", "pruned", "failed"}

    best = _read_json(out / "best.json")
    completed = [t for t in trials if t["status"] == "completed"]
    assert best["best_score"] == max(t["score"] for t in completed)

    # a sensitivity table for every searched hyperparameter, and only those
    sens = _read_json(out / "sensitivity.json")
    searched = {n for n, d in SPACE.items() if d["kind"] != "fixed"}
    assert set(sens) == searched
    for table in sens.values():
        assert table and all({"bucket", "mean_score", "count"} <= set(row) for row in table)

    echoed = _read_json(out / "config.json")
    assert echoed["trials"] == 4 and echoed["rungs"] == [1, 2]
    assert set(echoed) == set(cli.STUDY_SETTINGS)


def test_hpo_is_deterministic(reg_run, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert _run_hpo(reg_run, out1) == 0
    assert _run_hpo(reg_run, out2) == 0

    def stripped(path):
        trials = [json.loads(line) for line in _lines(path / "trials.jsonl")]
        for t in trials:
            t.pop("wall_time")
        return trials

    assert stripped(out1) == stripped(out2)
    assert _read_json(out1 / "sensitivity.json") == _read_json(out2 / "sensitivity.json")


@pytest.mark.parametrize(
    "flag,pinned",
    [
        ("no-mask", {"mask_rate": 0.0, "rule_mask_rate": 0.0,
                     "transformer_dropout": 0.0, "head_dropout": 0.0}),
        ("no-dec", {"decoder_layers": 0}),
        ("no-quant", {"n_quantiles": 2}),
    ],
)
def test_hpo_ablation_pins_every_sampled_config(reg_run, tmp_path, flag, pinned):
    out = tmp_path / flag
    assert _run_hpo(reg_run, out, "--ablation", flag) == 0
    for line in _lines(out / "trials.jsonl"):
        config = json.loads(line)["config"]
        for key, value in pinned.items():
            assert config[key] == value


def test_hpo_unusable_out_fails_before_the_study(reg_run, monkeypatch, capsys):
    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_study", no_study)
    out = os.path.join(reg_run.data, "study")  # under a file
    rc = main(["hpo", "--data", reg_run.data, "--trials", "1", "--out", out])
    assert rc == 3
    assert f"cannot write {out}: Not a directory" in capsys.readouterr().err


def test_out_of_memory_is_one_line_and_an_internal_error(reg_run, tmp_path, monkeypatch, capsys):
    def hungry_study(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_study", hungry_study)
    out = tmp_path / "study"
    rc = main(["hpo", "--data", reg_run.data, "--trials", "1", "--out", str(out)])
    assert rc == 10
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()
    assert cli.exit_code_for(MemoryError("Unable to allocate 1 GiB")) == 10


def test_hpo_replays_its_echoed_config(reg_run, tmp_path, capsys):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert _run_hpo(reg_run, out1, "--ablation", "no-quant", "--ablation", "no-dec") == 0
    echoed = _read_json(out1 / "config.json")
    assert echoed["ablation"] == ["no-dec", "no-quant"]
    run_echo = _read_json(reg_run.out / "config.json")
    for key in ("n_features", "n_classes", "task"):
        assert echoed[key] == run_echo[key]

    space = str(reg_run.root / "space.json")
    assert main(["hpo", "--config", str(out1 / "config.json"), "--space", space, "--out", str(out2)]) == 0
    for name in ("best.json", "sensitivity.json", "config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def stripped(path):
        return [{**json.loads(line), "wall_time": None} for line in _lines(path / "trials.jsonl")]

    assert stripped(out1) == stripped(out2)

    # the study keys belong to hpo alone
    capsys.readouterr()
    assert main(["train", "--config", str(out1 / "config.json"), "--out", str(tmp_path / "r")]) == 3
    assert main(["flops", "--config", str(out1 / "config.json")]) == 3
    assert capsys.readouterr().err.count("['ablation', 'rungs', 'trials', 'workers']") == 2


@pytest.mark.parametrize(
    "overlay,echo",
    [
        ({"batch_size": {"kind": "fixed", "values": [8]}, "epochs": {"kind": "fixed", "values": [1]}},
         {"batch_size": 8, "epochs": 1}),
        ({"batch_size": {"kind": "choice", "values": [8, 12]}}, {"epochs": 2}),
    ],
    ids=["pinned", "searched"],
)
def test_hpo_echo_holds_what_the_space_gave_batch_size_and_epochs(reg_run, tmp_path, overlay, echo):
    """The study config sets batch_size 16 and epochs 2, which a space
    that sets either key replaces: config.json echoes the value a fixed
    domain gives every trial and leaves out a searched key, and replays."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({**SPACE, **overlay}))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    argv = ["--space", str(space), "--trials", "2", "--rungs", "1", "--seed", "11"]
    assert main(["hpo", "--data", reg_run.data, "--config", reg_run.study_cfg, *argv, "--out", str(out1)]) == 0
    echoed = _read_json(out1 / "config.json")
    assert {key: echoed[key] for key in ("batch_size", "epochs") if key in echoed} == echo
    used = [json.loads(line)["config"] for line in _lines(out1 / "trials.jsonl")]
    for key, value in echo.items():
        assert {config[key] for config in used} == {value}

    assert main(["hpo", "--config", str(out1 / "config.json"), *argv, "--out", str(out2)]) == 0
    for name in ("best.json", "sensitivity.json", "config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def stripped(path):
        return [{**json.loads(line), "wall_time": None} for line in _lines(path / "trials.jsonl")]

    assert stripped(out1) == stripped(out2)


@pytest.mark.parametrize("value", ["x", True])
def test_hpo_bad_model_value_names_the_key(reg_run, tmp_path, capsys, value):
    cfg = _write_config(tmp_path / "bad.json", STUDY, batch_size=value)
    rc = main(["hpo", "--data", reg_run.data, "--config", cfg, "--trials", "1",
               "--rungs", "1", "--out", str(tmp_path / "s")])
    assert rc == 3
    assert "batch_size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,domain",
    [
        ("n_rules", 5),
        ("n_rules", {"kind": "choice", "values": 5}),
        ("n_rules", {"kind": "int", "lo": "a", "hi": 5}),
        ("n_rules", {"kind": "int", "lo": 1.5, "hi": 2.5}),
        ("lr_dense", {"kind": "loguniform", "lo": None, "hi": 0.1}),
        ("n_heads", {"kind": "choice", "values": ["x"]}),
    ],
)
def test_hpo_malformed_space_names_the_hyperparameter(reg_run, tmp_path, capsys, name, domain):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({**SPACE, name: domain}))
    rc = main(["hpo", "--data", reg_run.data, "--config", reg_run.study_cfg, "--space", str(space),
               "--trials", "1", "--rungs", "1", "--out", str(tmp_path / "s")])
    assert rc == 3
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("rungs", ["0,1", "-1,2"])
def test_hpo_rung_below_one_is_a_config_error(reg_run, tmp_path, capsys, rungs):
    rc = main(["hpo", "--data", reg_run.data, "--config", reg_run.study_cfg, "--trials", "1",
               f"--rungs={rungs}", "--out", str(tmp_path / "s")])
    assert rc == 3
    assert "rungs" in capsys.readouterr().err


def test_hpo_bad_rungs_flag(reg_run, tmp_path, capsys):
    rc = main(["hpo", "--data", reg_run.data, "--out", str(tmp_path / "s"),
               "--trials", "1", "--rungs", "one,two"])
    assert rc == 3
    assert "rungs" in capsys.readouterr().err


def test_study_settings_are_the_keys_a_study_reads():
    assert sorted(cli.STUDY_SETTINGS) == sorted(
        ["data", "target", "fractions", "seed", "task", "n_features", "n_classes",
         "batch_size", "epochs", "trials", "workers", "rungs", "ablation"]
    )


def test_hpo_config_may_not_set_metric_or_dtype(reg_run, tmp_path, capsys):
    # a study scores by the task's default metric and trains in float32
    for key, value in (("metric", "rmse"), ("dtype", "float64")):
        cfg = _write_config(tmp_path / f"{key}.json", STUDY, **{key: value})
        out = tmp_path / key
        rc = main(["hpo", "--data", reg_run.data, "--config", cfg, "--trials", "1",
                   "--rungs", "1", "--out", str(out)])
        assert rc == 3
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()
    resolved = resolve_run_config(reg_run.study_cfg, cli.STUDY_SETTINGS)
    assert not {"metric", "dtype"} & set(resolved)


# a study samples every other model field from its space, so its config may not set them
_UNREAD_BY_A_STUDY = {key: getattr(RuleNetConfig, key) for key in (
    "n_rules", "embed_dim", "encoder_layers", "decoder_layers", "n_heads", "hidden_dim",
    "n_quantiles", "mask_rate", "rule_mask_rate", "transformer_dropout", "head_dropout",
    "label_smoothing", "lr_dense", "lr_sparse",
)}


@pytest.mark.parametrize("key", sorted(_UNREAD_BY_A_STUDY))
def test_hpo_config_may_not_set_a_key_a_study_does_not_read(reg_run, tmp_path, capsys, key):
    cfg = _write_config(tmp_path / "study.json", STUDY, **{key: _UNREAD_BY_A_STUDY[key]})
    out = tmp_path / "study"
    rc = main(["hpo", "--data", reg_run.data, "--config", cfg, "--trials", "1",
               "--rungs", "1", "--out", str(out)])
    assert rc == 3
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()
    assert key in cli.RUN_SETTINGS  # train takes it


_FAILING_STUDIES = {
    "rungs-0,1": ("0,1", {}),
    "rungs--1,2": ("-1,2", {}),
    "n_heads-x": ("1", {"n_heads": {"kind": "choice", "values": ["x"]}}),
}


def _run_failing_study(reg_run, tmp_path, case, out):
    rungs, overlay = _FAILING_STUDIES[case]
    space = tmp_path / "space.json"
    space.write_text(json.dumps({**SPACE, **overlay}))
    return main(["hpo", "--data", reg_run.data, "--config", reg_run.study_cfg, "--space", str(space),
                 "--trials", "1", f"--rungs={rungs}", "--out", str(out)])


@pytest.mark.parametrize("case", sorted(_FAILING_STUDIES))
def test_hpo_study_that_fails_removes_the_out_it_made(reg_run, tmp_path, capsys, case):
    out = tmp_path / "study"
    assert _run_failing_study(reg_run, tmp_path, case, out) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    # every parent the command made goes too
    assert _run_failing_study(reg_run, tmp_path, case, tmp_path / "new" / "deeper" / "study") == 3
    assert not (tmp_path / "new").exists()


def test_hpo_study_that_fails_keeps_an_existing_out(reg_run, tmp_path):
    out = tmp_path / "study"
    out.mkdir()
    assert _run_failing_study(reg_run, tmp_path, "rungs-0,1", out) == 3
    assert out.is_dir() and not os.listdir(out)
    # only the parts below an existing directory were made, and only they go
    assert _run_failing_study(reg_run, tmp_path, "rungs-0,1", out / "a" / "b") == 3
    assert out.is_dir() and not os.listdir(out)


# ---------------------------------------------------------------------------
# flops


def _flops_config(tmp_path, **overrides):
    path = tmp_path / "flops.json"
    obj = {"n_features": 8, "n_rules": 64, "embed_dim": 64,
           "encoder_layers": 2, "decoder_layers": 2, **overrides}
    path.write_text(json.dumps(obj))
    return str(path), obj


def test_flops_matches_the_estimator(tmp_path, capsys):
    path, obj = _flops_config(tmp_path)
    assert main(["flops", "--config", path]) == 0
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    config = RuleNetConfig.from_json(obj)
    est = estimate_flops(config)
    assert printed == {
        "encoder": est.encoder_flops,
        "decoder": est.decoder_flops,
        "total": est.total,
        "encoder_only_equivalent": encoder_only_flops(config),
    }
    assert printed["decoder"] == 37748736


def test_flops_zero_decoder(tmp_path, capsys):
    path, _ = _flops_config(tmp_path, decoder_layers=0)
    assert main(["flops", "--config", path]) == 0
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert printed["decoder"] == 0


def test_flops_requires_n_features(tmp_path, capsys):
    path = tmp_path / "flops.json"
    path.write_text(json.dumps({"embed_dim": 64}))
    assert main(["flops", "--config", str(path)]) == 3
    assert "n_features" in capsys.readouterr().err


def test_flops_accepts_a_train_runs_config_echo(reg_run, capsys):
    # the config.json train writes carries run-level keys; flops must not balk
    assert main(["flops", "--config", str(reg_run.out / "config.json")]) == 0
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert printed["total"] == printed["encoder"] + printed["decoder"]


def test_flops_still_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "flops.json"
    path.write_text(json.dumps({"n_features": 4, "embod_dim": 64}))
    assert main(["flops", "--config", str(path)]) == 3
    assert "embod_dim" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# shared plumbing


def test_help_documents_the_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "exit codes" in text
    for fragment in ("checkpoint error", "study error", "schema error"):
        assert fragment in text


def test_exit_code_table_feeds_help_and_the_mapping(capsys):
    expected = {
        0: "all outputs written",
        2: "bad command line",
        3: "configuration error",
        4: "CSV ingestion error",
        5: "schema error",
        6: "preprocessing fit error",
        7: "training diverged",
        8: "checkpoint error",
        9: "study error (all trials failed)",
        10: "internal error",
    }
    assert {code: text for _, code, text in cli.EXIT_CODES} == expected
    with pytest.raises(SystemExit):
        main(["--help"])
    lines = capsys.readouterr().out.splitlines()
    for code, text in expected.items():
        assert f"  {code:<3} {text}" in lines
    errors = {
        ConfigError("x"): 3,
        ArtifactWriteError("x"): 3,
        DivergenceError(1, 2): 7,
        TruncationError("x"): 8,
        ContractError("x"): 10,
    }
    for err, code in errors.items():
        assert cli.exit_code_for(err) == code


def test_resolve_run_config_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5, "epochs": 9}))
    resolved = resolve_run_config(str(cfg), seed=12)
    assert resolved["seed"] == 12  # flag beats file
    assert resolved["epochs"] == 9  # file beats default
    assert resolved["batch_size"] == 256  # untouched default

    with pytest.raises(ConfigError):
        resolve_run_config(str(cfg), dtype="float16")
    cfg.write_text("not json")
    with pytest.raises(ConfigError):
        resolve_run_config(str(cfg))


# ---------------------------------------------------------------------------
# fuzzing the config and space readers: a few well-typed entries and one
# arbitrary JSON entry, so the arbitrary value is what decides the outcome

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

# the Python types a resolved value of each settings type may have (never a bool)
_BASE_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _has_type(value, kind):
    if kind.startswith("list["):
        return type(value) is tuple and all(_has_type(v, kind[len("list["):-1]) for v in value)
    if kind.startswith("Optional["):
        return value is None or _has_type(value, kind[len("Optional["):-1])
    return type(value) in _BASE_TYPES[kind]


def _of_type(kind):
    if kind.startswith("list["):
        return st.lists(_of_type(kind[len("list["):-1]), max_size=3)
    if kind.startswith("Optional["):
        return st.none() | _of_type(kind[len("Optional["):-1])
    return {"int": st.integers(), "float": st.integers() | st.floats(), "str": st.text(max_size=6)}[kind]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_resolved_config_has_table_types_or_is_a_config_error(fuzz_dir, data):
    table = data.draw(st.sampled_from([cli.RUN_SETTINGS, cli.STUDY_SETTINGS]))
    typed = {key: st.just(default) | _of_type(kind) for key, (default, kind) in table.items()}
    obj = data.draw(st.fixed_dictionaries({}, optional=typed))
    key = data.draw(st.sampled_from(sorted(table) + ["learning_rate", "space"]))
    obj[key] = data.draw(_JSON)
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(obj))
    try:
        resolved = resolve_run_config(str(path), table)
    except ConfigError:
        return
    assert set(resolved) == set(table)
    for key, (_, kind) in table.items():
        assert _has_type(resolved[key], kind), (key, resolved[key])
    for key, value in obj.items():  # the file beats the defaults
        assert json.dumps(resolved[key]) == json.dumps(value)


_KINDS = st.sampled_from(["fixed", "choice", "int", "uniform", "loguniform"])
_EDGES = st.sampled_from([0, 1, 1.5, -1, 2**63, -(2**63), 1e308, -1e308, float("inf"), float("nan")])
_NUMBER = _EDGES | st.integers(-2, 300) | st.floats()
_DOMAIN = st.fixed_dictionaries(
    {"kind": _KINDS, "values": st.lists(_NUMBER, max_size=3), "lo": _NUMBER, "hi": _NUMBER}
)
_LOOSE_DOMAIN = st.fixed_dictionaries(
    {"kind": _KINDS | _JSON}, optional={"values": _JSON, "lo": _JSON, "hi": _JSON}
)


@pytest.fixture(scope="module")
def schema(reg_run):
    return load_csv(reg_run.data)[0]


@settings(max_examples=500, deadline=None)
@given(
    name=st.sampled_from(sorted(SearchSpace.table_default().domains) + ["bogus"]),
    domain=_DOMAIN | _LOOSE_DOMAIN | _JSON,
    seed=st.integers(0, 3),
)
def test_space_file_gives_a_space_that_samples_or_a_config_error(schema, name, domain, seed):
    try:
        space = SearchSpace.from_json({name: domain})
        config = sample_config(space, np.random.default_rng(seed), schema)
    except ConfigError:
        return
    assert isinstance(config, RuleNetConfig)
