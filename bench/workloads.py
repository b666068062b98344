"""The benchmark's workloads: input generation, timed units, output checks.

Every workload writes its own CSVs from the seed and hands the library only
those files. It then runs four kinds of unit through rulenet's public API:

- epoch: one epoch of a training run, `Trainer.run_until(e)` with its
  validation pass; a run starts with a fresh `Trainer` and ends after the
  workload's epoch count;
- serve: load the checkpoint, then the `rulenet predict` flow,
  `read_table` -> `encode` -> `predict_point` -> `predict_ensemble(k=8)`;
- study: `run_study` with successive halving over small models, always on
  the M=8 regression table;
- block: short timed calls of set-up, ingest, checkpoint save and load.

A run is a sequence of rounds, each the workload's list of units. Every
run reports every end-to-end metric, so each workload runs every kind of
unit; those of its main activity are spanned as its main path. The units
are interleaved so that each metric's samples spread over the whole run:
on a shared host the speed drifts in phases of a few seconds, and samples
taken back to back would all land in one phase. The peak resident set is
read after the first unit, which is always of the main activity. Every
unit must produce bitwise the same outputs each time.
"""

from __future__ import annotations

import gc
import resource
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import rulenet as rn
from rulenet.errors import RuleNetError
from rulenet.hpo import STATUS_FAILED
from specs import RUNGS, SMALL_MODEL, STUDY_TABLE, STUDY_TRIALS, STUDY_WORKERS, Workload

clock = time.perf_counter

N_QUANTILES = 48  # the prepare() resolution; the study re-bins to its own
ENSEMBLE_K = 8
FRACTIONS = (0.4, 0.4, 0.2)  # train/val/test: a val split as large as the train split
BLOCK_SECONDS = 0.025  # short calls repeat for at least this long per sample
SETUP_SECONDS = 0.1  # set-up repeats for at least this long per sample
BLOCK_SAMPLES = 4  # samples of each short call per block
PREDICT_SAMPLES = 4  # predict_point samples per serve unit
ENSEMBLE_SAMPLES = 2  # predict_ensemble samples per serve unit
MIN_ROUNDS = 2  # a cold round and a warm one, whose outputs must match
LIB_SEED = 0  # seed passed to the library; --seed varies only the data


def search_space() -> rn.SearchSpace:
    """Learning rates over SMALL_MODEL; its n_quantiles differs from
    N_QUANTILES, so `rebinned` runs."""
    D = rn.Domain
    fixed = {**SMALL_MODEL, "epochs": RUNGS[-1]}
    return rn.SearchSpace(
        {
            **{name: D("fixed", values=(value,)) for name, value in fixed.items()},
            "lr_dense": D("loguniform", lo=1e-3, hi=1e-2),
            "lr_sparse": D("loguniform", lo=1e-2, hi=1e-1),
            "mask_rate": D("uniform", lo=0.0, hi=0.3),
        }
    )


# ---------------------------------------------------------------------------
# inputs


CLASSES = ("low", "mid", "high")
LEVELS = 5  # categorical levels seen in train.csv
SCORE_MISSING = 0.05  # share of numeric cells left empty in score.csv
SCORE_UNSEEN = 0.05  # share of categorical cells with a level train never saw


def _table_rows(n_num: int, n_cat: int, task: str, rng: np.random.Generator, rows: int,
                missing: float, unseen: float):
    x = rng.normal(size=(rows, n_num))
    x[:, 1::3] = rng.uniform(-2.0, 2.0, size=x[:, 1::3].shape)
    cat = rng.integers(0, LEVELS, size=(rows, n_cat))
    if task == "regression":
        y = (np.sin(2.0 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.5 * np.abs(x[:, 3])
             + 0.3 * rng.normal(size=rows))
        labels = [f"{v:.6g}" for v in y]
    else:
        s = x[:, 0] - x[:, 1] + 0.5 * x[:, 2] + 0.3 * (cat[:, 0] - 2.0)
        s = s + 0.3 * rng.normal(size=rows)
        cut = np.quantile(s, [1 / 3, 2 / 3])
        labels = [CLASSES[i] for i in np.searchsorted(cut, s)]
    drop = rng.random(size=x.shape) < missing
    new = rng.random(size=cat.shape) < unseen
    out = []
    for r in range(rows):
        cells = ["" if drop[r, j] else f"{x[r, j]:.6g}" for j in range(n_num)]
        cells += ["new" if new[r, j] else f"k{cat[r, j]}" for j in range(n_cat)]
        cells.append(labels[r])
        out.append(",".join(cells))
    return out


def _write_table(path: Path, n_num: int, n_cat: int, task: str, rng, rows: int,
                 missing: float = 0.0, unseen: float = 0.0) -> None:
    header = ",".join([f"x{j}" for j in range(n_num)] + [f"c{j}" for j in range(n_cat)] + ["y"])
    lines = _table_rows(n_num, n_cat, task, rng, rows, missing, unseen)
    path.write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(w: Workload, seed: int, out_dir: Path) -> dict:
    """train.csv (clean, labelled), score.csv (missing cells, unseen levels)
    and study.csv (the study's M=8 regression table, clean).

    The same (workload, seed) always gives byte-identical files.
    """
    files = {key: out_dir / f"{key}.csv" for key in ("train", "score", "study")}
    rng = np.random.default_rng([seed, w.n_num, w.n_cat])
    _write_table(files["train"], w.n_num, w.n_cat, w.task, rng, w.rows)
    _write_table(files["score"], w.n_num, w.n_cat, w.task, rng, w.score_rows,
                 SCORE_MISSING, SCORE_UNSEEN)
    study_rng = np.random.default_rng([seed, STUDY_TABLE["n_num"], STUDY_TABLE["n_cat"]])
    _write_table(files["study"], rng=study_rng, **STUDY_TABLE)
    files["checkpoint"] = out_dir / "model.rnc"  # the served model
    files["scratch"] = out_dir / "saved.rnc"  # what the blocks save and load
    return files


# ---------------------------------------------------------------------------
# bookkeeping


class Ledger:
    """Counts attempted and failed operations and records failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except RuleNetError:
            self.failed += 1
            raise

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Budget:
    """Run until `seconds` have passed, and at least MIN_ROUNDS whole rounds."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = None

    def more(self, done: int) -> bool:
        if self.start is None:
            self.start = clock()
        return done < MIN_ROUNDS or clock() - self.start < self.seconds


def finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=np.float64))))


def same(a, b) -> bool:
    """Same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class Session:
    """What one pass of a workload measured and produced."""

    samples: dict = field(default_factory=lambda: defaultdict(list))  # end-to-end metric -> samples
    outputs: dict = field(default_factory=dict)  # name -> array, the same in every unit
    studies: list = field(default_factory=list)  # (records, study wall seconds)
    rounds: int = 0
    round_seconds: list = field(default_factory=list)  # wall time of each round
    config: Optional[rn.RuleNetConfig] = None  # the workload's model config
    model: Optional[rn.RuleNetModel] = None  # a model of that config, which the blocks save
    served: Optional[rn.RuleNetModel] = None  # the model saved in files["checkpoint"]
    trainer: Optional[rn.Trainer] = None  # the training run in progress
    score_labels: Optional[np.ndarray] = None  # class ids of the scoring rows
    peak_rss_mb: float = 0.0  # ru_maxrss after the first unit

    def output(self, ledger: Ledger, name: str, value) -> None:
        """Keep the first value; every later one must match it bitwise."""
        value = np.asarray(value)
        if name in self.outputs:
            ledger.check(same(self.outputs[name], value), f"{name} differs across rounds")
        else:
            self.outputs[name] = value


# ---------------------------------------------------------------------------
# the units


def clocked(call, *args, min_seconds: float = 0.0, **kwargs) -> tuple:
    """(result of the last call, seconds per call), calling until min_seconds have passed.

    The cyclic garbage collector runs first and is paused during the calls,
    as timeit does: otherwise a collection over the benchmark's own heap
    lands in one sample and not another.
    """
    gc.collect()
    gc.disable()
    try:
        calls = 0
        t0 = clock()
        while True:
            out = call(*args, **kwargs)
            calls += 1
            elapsed = clock() - t0
            if elapsed >= min_seconds:
                return out, elapsed / calls
    finally:
        gc.enable()


def set_up(s: Session, ledger, w: Workload, files) -> tuple:
    """prepare + the build the main activity needs: one `setup_s` sample.

    Returns (prep, splits, config, model), the model being the new
    Trainer's on narrow-train and the saved, served one on wide-serve.
    """

    def once():
        prepared = ledger.call(rn.prepare, files["train"], n_quantiles=N_QUANTILES,
                               fractions=FRACTIONS, seed=LIB_SEED)
        prep, splits = prepared.prep, prepared.splits
        config = rn.RuleNetConfig.for_schema(prep.schema, epochs=w.train_epochs, **w.config)
        if w.main == "epoch":
            trainer = ledger.call(rn.Trainer, prep, splits["train"], splits["val"], config, seed=LIB_SEED)
            model = trainer.model
        else:
            model = ledger.call(rn.RuleNetModel.build, prep, config, seed=LIB_SEED)
            ledger.call(rn.save_checkpoint, model, files["checkpoint"])
        return prep, splits, config, model

    out, dt = clocked(once, min_seconds=SETUP_SECONDS)
    s.samples["setup_s"].append(dt)
    return out


def block(s: Session, ledger, w: Workload, files, prep, span) -> None:
    """One set-up sample, then BLOCK_SAMPLES samples each of ingest,
    checkpoint save and load.

    Each save writes a new file: the previous copy is removed untimed, so a
    sample does not wait for the kernel to drop that copy's pages.
    """
    with span("bench.setup"):
        set_up(s, ledger, w, files)
    for _ in range(BLOCK_SAMPLES):
        with span("bench.ingest"):
            split_, dt = clocked(lambda: ledger.call(rn.encode, prep, ledger.call(rn.read_table, files["train"])),
                                 min_seconds=BLOCK_SECONDS)
            s.samples["ingest_rows_per_s"].append(split_.n_rows / dt)
        with span("bench.checkpoint"):
            files["scratch"].unlink(missing_ok=True)
            _, dt = clocked(ledger.call, rn.save_checkpoint, s.model, files["scratch"])
            s.samples["checkpoint_save_ms"].append(1e3 * dt)
            _, dt = clocked(ledger.call, rn.load_checkpoint, files["scratch"], min_seconds=BLOCK_SECONDS)
            s.samples["checkpoint_load_ms"].append(1e3 * dt)


def epoch(s: Session, ledger, w: Workload, files, prep, splits) -> None:
    """The next epoch of the training run in progress, or the first of a new one.

    Each epoch (its validation pass included) is one `train_rows_per_s`
    sample. On narrow-train a finished run's model becomes the served one.
    """
    if s.trainer is None:
        s.trainer = ledger.call(rn.Trainer, prep, splits["train"], splits["val"], s.config, seed=LIB_SEED)
    trainer = s.trainer
    target = trainer.history.epochs_run + 1
    _, dt = clocked(ledger.call, trainer.run_until, target)
    s.samples["train_rows_per_s"].append(splits["train"].n_rows / dt)
    if target < s.config.epochs:
        return
    s.trainer = None
    ledger.check(finite(trainer.history.val_metric), "non-finite validation metric")
    s.output(ledger, "val_metric", trainer.history.val_metric)
    if w.main == "epoch":
        s.model = s.served = trainer.model
        ledger.call(rn.save_checkpoint, s.served, files["checkpoint"])


def serve(s: Session, ledger, files, task) -> None:
    """The `rulenet predict` flow on the checkpoint file holding s.served."""
    loaded = ledger.call(rn.load_checkpoint, files["checkpoint"])
    split_ = ledger.call(rn.encode, loaded.prep, ledger.call(rn.read_table, files["score"]))
    for _ in range(PREDICT_SAMPLES):
        point, dt = clocked(ledger.call, rn.predict_point, loaded, split_)
        s.samples["predict_rows_per_s"].append(split_.n_rows / dt)
    for _ in range(ENSEMBLE_SAMPLES):
        ens, dt = clocked(ledger.call, rn.predict_ensemble, loaded, split_, ENSEMBLE_K, seed=LIB_SEED)
        s.samples["ensemble_rows_per_s"].append(split_.n_rows / dt)
    if "point" not in s.outputs:
        ledger.check(same(point, rn.predict_point(s.served, split_)),
                     "predict_point after load_checkpoint differs from the saved model")
    ledger.check(finite(ens.mean), "non-finite ensemble mean")
    ledger.check(finite(ens.std) and bool(np.all(ens.std >= 0)), "ensemble std not finite and >= 0")
    if task == "classification":
        ledger.check(bool(np.allclose(ens.mean.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)),
                     "ensemble probabilities do not sum to 1")
    s.output(ledger, "point", point)
    s.output(ledger, "ensemble_mean", ens.mean)
    s.output(ledger, "ensemble_std", ens.std)
    s.score_labels = split_.target


def study(s: Session, ledger, prepared) -> None:
    """One run_study on the study table; trial-epochs/s over its wall time."""
    splits = prepared.splits
    (best, records), dt = clocked(
        rn.run_study, search_space(), prepared.prep, splits["train"], splits["val"], STUDY_TRIALS,
        seed=LIB_SEED, rungs=RUNGS, workers=STUDY_WORKERS,
    )
    ledger.attempted += len(records)
    ledger.failed += sum(r.status == STATUS_FAILED for r in records)
    s.samples["hpo_trial_epochs_per_s"].append(sum(epochs_run(r) for r in records) / dt)
    s.studies.append((records, dt))
    ledger.check(finite(best.score), "non-finite best score")
    s.output(ledger, "best_trial", [best.trial_id, best.score])


def epochs_run(record) -> int:
    """Epochs a trial trained before it completed, was pruned or failed."""
    return record.rung_scores[-1]["epoch"] if record.rung_scores else 0


def root_brier(probs: np.ndarray, labels: np.ndarray) -> float:
    """RMSE of class probabilities against one-hot labels."""
    onehot = np.eye(probs.shape[1])[labels]
    return float(np.sqrt(np.mean(np.square(probs - onehot))))


# ---------------------------------------------------------------------------
# a whole pass


def run_session(w: Workload, files: dict, budget: Budget, ledger: Ledger,
                span=lambda name: nullcontext(), warm: bool = False) -> Session:
    """Set up, then rounds of the workload's units until the budget is spent.

    Unless the process is `warm` from an earlier session, the first sample
    of each metric but `setup_s` is dropped: it pays for caches and lazy
    set-up. `span(name)` marks the units of a round when the run is traced:
    those of the main activity as `bench.main`, blocks as `bench.block` and
    the others as `bench.probe`.
    """
    s = Session()
    study_data = ledger.call(rn.prepare, files["study"], n_quantiles=N_QUANTILES,
                             fractions=FRACTIONS, seed=LIB_SEED)
    with span("bench.setup"):
        prep, splits, s.config, s.model = set_up(s, ledger, w, files)
    if w.main == "serve":
        s.served = s.model
    units = {
        "epoch": lambda: epoch(s, ledger, w, files, prep, splits),
        "serve": lambda: serve(s, ledger, files, w.task),
        "study": lambda: study(s, ledger, study_data),
        "block": lambda: block(s, ledger, w, files, prep, span),
    }
    while budget.more(s.rounds):
        start = clock()
        with span("bench.round"):
            finished = run_round(s, w, units, budget, span)
        if not finished:
            break
        s.round_seconds.append(clock() - start)
        s.rounds += 1
    if not warm:
        for name, values in s.samples.items():
            if name != "setup_s":
                del values[0]
    if w.main == "epoch":
        s.samples["val_rmse"] = [float(s.outputs["val_metric"][-1])]
    else:
        s.samples["val_rmse"] = [root_brier(s.outputs["point"], s.score_labels)]
    return s


def run_round(s: Session, w: Workload, units: dict, budget: Budget, span) -> bool:
    """The workload's units in order; False if the budget ran out part-way.

    The budget is checked before each unit, so a run stops within one unit
    of its time; the rounds before the last are always whole.
    """
    for unit in w.units:
        if not budget.more(s.rounds):
            return False
        kind = "main" if unit == w.main else "block" if unit == "block" else "probe"
        with span(f"bench.{kind}"):
            units[unit]()
        if not s.peak_rss_mb:  # ru_maxrss only grows: set-up plus the first main unit
            s.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return True
