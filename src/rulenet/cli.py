"""Command line interface: train, predict, evaluate, hpo, flops.

train and hpo resolve their settings (defaults < --config file < flags) into
one dict and write it to the run directory as config.json, which --config
reads back: a run can be replayed exactly from its artifacts. All commands
are deterministic for a fixed --seed, BLAS kernel and BLAS thread count.
EXIT_CODES lists the exit codes, and --help prints them.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .checkpoint import atomic_open, load_checkpoint, make_dirs, save_checkpoint
from .data import TASK_CLASSIFICATION, TASK_REGRESSION, encode, prepare, read_table
from .ensemble import predict_ensemble, predict_point
from .errors import (
    FAILURES,
    CheckpointError,
    ConfigError,
    DivergenceError,
    FitError,
    IngestionError,
    SchemaError,
    StudyError,
    describe,
)
from .hpo import (
    ABLATIONS,
    DEFAULT_RUNGS,
    SearchSpace,
    run_study,
    sensitivity,
    write_study_files,
)
from .model import RuleNetConfig, encoder_only_flops, estimate_flops, fits
from .training import METRIC_ACCURACY, METRIC_RMSE, default_metric, evaluate, train

EXIT_OK = 0
# (error family, exit code, description); the first family that matches wins
EXIT_CODES = (
    (None, EXIT_OK, "all outputs written"),
    (None, 2, "bad command line"),
    (ConfigError, 3, "configuration error"),
    (IngestionError, 4, "CSV ingestion error"),
    (SchemaError, 5, "schema error"),
    (FitError, 6, "preprocessing fit error"),
    (DivergenceError, 7, "training diverged"),
    (CheckpointError, 8, "checkpoint error"),
    (StudyError, 9, "study error (all trials failed)"),
    (FAILURES, 10, "internal error"),
)


def exit_code_for(err: Exception) -> int:
    return next(code for cls, code, _ in EXIT_CODES if cls and isinstance(err, cls))


# ---------------------------------------------------------------------------
# settings: the keys a config file may set, each with its default and type

# the RuleNetConfig fields the data fixes: None until the data is read, and a
# config file that sets one (the config.json a run writes does) must agree
DATA_KEYS = ("n_features", "n_classes", "task")
MODEL_KEYS = tuple(f.name for f in dataclasses.fields(RuleNetConfig) if f.name not in DATA_KEYS)

# key: (default, type); a type is a RuleNetConfig annotation or a list of one
RUN_SETTINGS = {
    "data": (None, "Optional[str]"),  # CSV path; --data overrides
    "target": (None, "Optional[str]"),  # target column name; default: last column
    "fractions": ((0.6, 0.2, 0.2), "list[float]"),  # train/val/test
    "seed": (0, "int"),
    "metric": (None, "Optional[str]"),  # "rmse" / "accuracy"; default: by task
    "dtype": ("float32", "str"),
    "n_features": (None, "Optional[int]"),
    "n_classes": (None, "Optional[int]"),
    "task": (None, "Optional[str]"),  # "regression" / "classification"; default: inferred
    **{f.name: (f.default, f.type) for f in dataclasses.fields(RuleNetConfig) if f.name in MODEL_KEYS},
}

# a study scores by the task's default metric, trains in float32 and samples
# every model field from its space, whose default brackets batch_size
STUDY_SETTINGS = {
    **{key: RUN_SETTINGS[key] for key in ("data", "target", "fractions", "seed", *DATA_KEYS)},
    "batch_size": RUN_SETTINGS["batch_size"],
    "epochs": RUN_SETTINGS["epochs"],
    "trials": (20, "int"),
    "workers": (1, "int"),
    "rungs": (DEFAULT_RUNGS, "list[int]"),  # pruning epochs
    "ablation": ((), "list[str]"),  # names from hpo.ABLATIONS
}

_DTYPES = {"float32": np.float32, "float64": np.float64}


def _read_json_object(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {what} file {path}: {e}") from e
    except ValueError as e:  # invalid JSON or invalid UTF-8
        raise ConfigError(f"{what} file {path} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return obj


def _typed(key: str, value, kind: str):
    """value if it has the type `kind`, with a list as a tuple; else a ConfigError."""
    item = kind[len("list["):-1] if kind.startswith("list[") else None
    if item is None and fits(value, kind):
        return value
    if item is not None and isinstance(value, (list, tuple)) and all(fits(v, item) for v in value):
        return tuple(value)
    raise ConfigError(f"{key} must be {kind}, got {value!r}")


def resolve_run_config(config_path=None, settings=RUN_SETTINGS, **flag_overrides) -> dict:
    """Defaults < config file < command-line flags (None = not given).

    Only the keys of `settings` are accepted, and every value must have its
    settings type: anything else is a ConfigError naming the key.
    """
    resolved = {key: default for key, (default, _) in settings.items()}
    if config_path is not None:
        obj = _read_json_object(config_path, "config")
        unknown = set(obj) - set(settings)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(obj)
    resolved.update((key, value) for key, value in flag_overrides.items() if value is not None)

    for key, (_, kind) in settings.items():
        resolved[key] = _typed(key, resolved[key], kind)
    if "dtype" in resolved and resolved["dtype"] not in _DTYPES:
        raise ConfigError(f"dtype must be one of {sorted(_DTYPES)}, got {resolved['dtype']!r}")
    if resolved["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']}")
    return resolved


def _check_metric(metric, task: str) -> None:
    """A ConfigError unless metric names the one this task is scored by."""
    if metric not in (METRIC_RMSE, METRIC_ACCURACY):
        raise ConfigError(f"unknown metric {metric!r}")
    if metric != default_metric(task):
        needs = TASK_REGRESSION if metric == METRIC_RMSE else TASK_CLASSIFICATION
        raise ConfigError(f"metric {metric!r} needs a {needs} model, task is {task!r}")


def _prepare_from(cfg: dict, n_quantiles: int):
    """The run's data, binned at n_quantiles. Writes the data-derived keys
    into cfg, after checking any that the config file set."""
    if not cfg["data"]:
        raise ConfigError('no dataset: pass --data or set "data" in the config file')
    hint = {cfg["target"]: "target"} if cfg["target"] else None
    prepared = prepare(
        cfg["data"],
        n_quantiles=n_quantiles,
        fractions=cfg["fractions"],
        seed=cfg["seed"],
        schema_hint=hint,
        task=cfg["task"],
    )
    for key in DATA_KEYS:
        found = getattr(prepared.prep.schema, key)
        if cfg[key] is not None and cfg[key] != found:
            raise ConfigError(f"config says {key} = {cfg[key]}, the data gives {found}")
        cfg[key] = found
    return prepared


def _write_json(path, obj) -> None:
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    cfg = resolve_run_config(args.config, data=args.data, seed=args.seed)
    prepared = _prepare_from(cfg, cfg["n_quantiles"])
    prep, splits = prepared.prep, prepared.splits
    config = RuleNetConfig.for_schema(prep.schema, **{k: cfg[k] for k in MODEL_KEYS})
    metric = cfg["metric"] or default_metric(config.task)
    _check_metric(metric, config.task)

    make_dirs(args.out)
    history_path = os.path.join(args.out, "history.jsonl")
    model, history = train(
        prep,
        splits["train"],
        splits["val"],
        config,
        seed=cfg["seed"],
        dtype=_DTYPES[cfg["dtype"]],
        metrics_path=history_path,
    )

    ckpt_path = os.path.join(args.out, "checkpoint.rnc")
    save_checkpoint(model, ckpt_path)
    config_path = os.path.join(args.out, "config.json")
    _write_json(config_path, cfg)

    final = {
        "metric": metric,
        "best_epoch": history.best_epoch,
        "epochs_run": history.epochs_run,
        "val_score": evaluate(model, splits["val"]),
        "test_score": evaluate(model, splits["test"]),
    }
    metrics_path = os.path.join(args.out, "metrics.json")
    _write_json(metrics_path, final)

    for path in (ckpt_path, history_path, config_path, metrics_path):
        print(f"wrote {path}")
    print(f"{metric}: val {final['val_score']:.6g}, test {final['test_score']:.6g}")
    return EXIT_OK


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    table = read_table(args.data)
    split_ = encode(model.prep, table)

    if args.ensemble is not None:
        ens = predict_ensemble(model, split_, k=args.ensemble, seed=args.seed)
        probs_or_values, std = ens.mean, ens.std
        header = ["row_id", "prediction", "uncertainty"]
    else:
        probs_or_values, std = predict_point(model, split_), None
        header = ["row_id", "prediction"]

    if model.config.task == TASK_CLASSIFICATION:
        vocab = model.prep.schema.target.vocab
        winners = np.argmax(probs_or_values, axis=1)
        predictions = [vocab[int(i)] for i in winners]
    else:
        predictions = list(probs_or_values)

    with atomic_open(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, pred in enumerate(predictions):
            row = [str(i), _format_cell(pred)]
            if std is not None:
                row.append(_format_cell(std[i]))
            writer.writerow(row)

    print(f"wrote {args.out} ({split_.n_rows} rows)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    table = read_table(args.data)
    target_name = model.prep.schema.target.name
    if target_name not in table.columns:
        raise SchemaError(f"column {target_name!r} is required for evaluation")
    split_ = encode(model.prep, table)

    metric = args.metric or default_metric(model.config.task)
    _check_metric(metric, model.config.task)
    record = {"metric": metric, "score": evaluate(model, split_)}
    if args.out:
        _write_json(args.out, record)
    print(json.dumps(record))  # contract: the last line is the JSON record
    return EXIT_OK


def _parse_rungs(text):
    if not text:
        return None
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"rungs must be comma-separated integers, got {text!r}") from None


def _missing_dirs(path) -> list:
    """The components of path that do not exist yet, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def cmd_hpo(args) -> int:
    cfg = resolve_run_config(
        args.config,
        STUDY_SETTINGS,
        data=args.data,
        seed=args.seed,
        trials=args.trials,
        workers=args.workers,
        rungs=_parse_rungs(args.rungs),
        ablation=args.ablation,
    )
    if not set(cfg["ablation"]) <= set(ABLATIONS):
        raise ConfigError(f"ablation names must be among {list(ABLATIONS)}, got {cfg['ablation']}")
    cfg["ablation"] = tuple(sorted(cfg["ablation"]))
    # each trial re-bins at its own n_quantiles (hpo.rebinned)
    prepared = _prepare_from(cfg, RuleNetConfig.n_quantiles)
    prep, splits = prepared.prep, prepared.splits

    if args.space:
        space_obj = _read_json_object(args.space, "space")
        space = SearchSpace.from_json(space_obj, batch_size=cfg["batch_size"])
        if "epochs" not in space_obj:
            space = space.pin("epochs", cfg["epochs"])
        # the space's domain replaces the config's value: echo the value a
        # fixed domain gives every trial, and none for a searched one
        for key in set(space_obj) & {"batch_size", "epochs"}:
            domain = space.domains[key]
            if domain.kind == "fixed":
                cfg[key] = domain.values[0]
            else:
                del cfg[key]
    else:
        space = SearchSpace.table_default(batch_size=cfg["batch_size"], epochs=cfg["epochs"])

    space = space.constrained(cfg["ablation"])

    created = _missing_dirs(args.out)
    try:
        make_dirs(args.out)
        best, records = run_study(
            space,
            prep,
            splits["train"],
            splits["val"],
            n_trials=cfg["trials"],
            seed=cfg["seed"],
            rungs=cfg["rungs"],
            workers=cfg["workers"],
        )
    except BaseException:
        # rmdir removes a directory only while it is empty, so the first
        # one that is not ends the walk up
        with contextlib.suppress(OSError):
            for path in created:
                os.rmdir(path)
        raise

    write_study_files(args.out, best, records, space)
    _write_json(os.path.join(args.out, "config.json"), cfg)

    searched = sorted(n for n, d in space.domains.items() if d.kind != "fixed")
    tables = {
        name: [
            {"bucket": bucket, "mean_score": mean, "count": count}
            for bucket, mean, count in sensitivity(records, name)
        ]
        for name in searched
    }
    sens_path = os.path.join(args.out, "sensitivity.json")
    _write_json(sens_path, tables)

    statuses = collections.Counter(r.status for r in records)
    print(f"wrote {os.path.join(args.out, 'trials.jsonl')}")
    print(f"wrote {os.path.join(args.out, 'best.json')}")
    print(f"wrote {sens_path}")
    print(
        f"best trial {best.trial_id}: {best.metric} score {best.score:.6g} "
        f"({', '.join(f'{k}={v}' for k, v in sorted(statuses.items()))})"
    )
    return EXIT_OK


def cmd_flops(args) -> int:
    cfg = resolve_run_config(args.config)
    if cfg["n_features"] is None:
        raise ConfigError('flops config needs "n_features"')
    cfg["task"] = cfg["task"] or TASK_REGRESSION
    config = RuleNetConfig(**{k: cfg[k] for k in MODEL_KEYS + DATA_KEYS})
    config.validate()

    est = estimate_flops(config)
    eq = encoder_only_flops(config)
    print(f"encoder        : {est.encoder_flops}")
    print(f"decoder        : {est.decoder_flops}")
    print(f"total          : {est.total}")
    print(f"encoder-only equivalent ({config.encoder_layers}+{config.decoder_layers} layers): {eq}")
    print(
        json.dumps(
            {
                "encoder": est.encoder_flops,
                "decoder": est.decoder_flops,
                "total": est.total,
                "encoder_only_equivalent": eq,
            }
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulenet",
        description="Tabular transformer toolkit: train, predict, evaluate, search.",
        epilog="exit codes:\n" + "".join(f"  {code:<3} {text}\n" for _, code, text in EXIT_CODES),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write a run directory")
    p.add_argument("--data", help="training CSV (last column is the target unless configured)")
    p.add_argument("--config", help="JSON run config; flags override it")
    p.add_argument("--out", required=True, help="run directory for the four artifacts")
    p.add_argument("--seed", type=int, help="seed for split/init/masking (default 0)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write a predictions CSV from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="CSV; the target column may be absent")
    p.add_argument(
        "--ensemble",
        type=int,
        metavar="K",
        help="K stochastic rollouts -> adds an uncertainty column; omit for a point prediction",
    )
    p.add_argument("--seed", type=int, default=0, help="ensemble seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labelled CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="CSV with the target column present")
    p.add_argument("--metric", choices=(METRIC_RMSE, METRIC_ACCURACY), help="default: by task")
    p.add_argument("--out", help="also write the JSON record here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hpo", help="random search with successive-halving pruning")
    p.add_argument("--data", help="training CSV")
    p.add_argument("--config", help="JSON study config (see STUDY_SETTINGS); flags override it")
    p.add_argument("--space", help="JSON search-space overlay on the default box")
    p.add_argument("--trials", type=int, help="number of sampled configs (default 20)")
    p.add_argument("--workers", type=int, help="trials trained at once (default 1)")
    p.add_argument("--rungs", help="comma-separated pruning epochs (default 11,33,100)")
    p.add_argument(
        "--ablation", action="append", choices=ABLATIONS, help="constrain the space; repeatable"
    )
    p.add_argument("--seed", type=int, help="study seed (default 0)")
    p.add_argument("--out", required=True, help="study directory")
    p.set_defaults(func=cmd_hpo)

    p = sub.add_parser("flops", help="print the attention cost breakdown for a config")
    p.add_argument("--config", required=True, help="JSON with RuleNetConfig fields incl. n_features")
    p.set_defaults(func=cmd_flops)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FAILURES as e:
        print(f"error: {describe(e)}", file=sys.stderr)
        return exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
