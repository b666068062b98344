"""Losses, AdamW, the one-cycle schedule, and the training loop.

The loop is deliberately plain: shuffle, step, evaluate once per epoch in
deterministic eval mode, and keep a copy of the weights from the best
validation epoch (earliest epoch wins ties). All epochs always run; early
stopping here means returning the best checkpoint, not cutting the schedule
short.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .data import (
    EncodedSplit,
    TASK_REGRESSION,
    TargetNormalizer,
    make_batches,
    take_rows,
)
from .errors import ArtifactWriteError, ConfigError, ContractError, DivergenceError, IndexRangeError
from .model import RuleNetConfig, RuleNetModel

METRIC_RMSE = "rmse"
METRIC_ACCURACY = "accuracy"

EVAL_CHUNK = 1024  # rows per forward pass when predicting without gradients

# AdamW's moment decays, denominator floor, and dense-group weight decay
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
WEIGHT_DECAY = 0.01


# ---------------------------------------------------------------------------
# losses


def loss_regression(pred: T.Tensor, targets: np.ndarray, normalizer: TargetNormalizer) -> T.Tensor:
    """Mean squared error against z-normalized targets."""
    if pred.shape != np.shape(targets):
        raise ContractError(
            f"predictions shaped {pred.shape}, targets shaped {np.shape(targets)}"
        )
    z = T.Tensor(normalizer.normalize(np.asarray(targets, dtype=np.float64)), dtype=pred.dtype)
    diff = T.sub(pred, z)
    return T.mean_all(T.mul(diff, diff))


def loss_classification(logits: T.Tensor, labels: np.ndarray, smoothing: float = 0.0) -> T.Tensor:
    """Cross-entropy against the label-smoothed target distribution."""
    if not 0.0 <= smoothing <= 0.4:
        raise ConfigError(f"label smoothing must lie in [0, 0.4], got {smoothing}")
    rows, n_classes = logits.shape
    labels = np.asarray(labels)
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise IndexRangeError(
            f"label {int(labels[i])} at row {i} outside [0, {n_classes})"
        )
    weights = np.full((rows, n_classes), smoothing / n_classes)
    weights[np.arange(rows), labels] += 1.0 - smoothing
    logp = T.log_softmax(logits, axis=-1)
    weighted = T.mul(logp, T.Tensor(weights, dtype=logits.dtype))
    return T.scale(T.sum_all(weighted), -1.0 / rows)


def batch_loss(model: RuleNetModel, batch: EncodedSplit, pred: T.Tensor) -> T.Tensor:
    """Dispatch on the model's task; batch must carry targets."""
    if batch.target is None:
        raise ContractError("batch has no targets to compute a loss against")
    if model.config.task == TASK_REGRESSION:
        return loss_regression(pred, batch.target, model.prep.normalizer)
    return loss_classification(pred, batch.target, model.config.label_smoothing)


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Adam with decoupled weight decay on the dense group only.

    The sparse group (embedding tables, rule vectors) trains at its own
    learning rate and is exempt from decay: rows touched only by a few
    samples would otherwise shrink at a rate unrelated to their gradients.
    """

    def __init__(self, groups: dict):
        self.groups = {k: list(v) for k, v in groups.items()}
        if set(self.groups) != {"dense", "sparse"}:
            raise ConfigError(f"expected dense+sparse groups, got {sorted(self.groups)}")
        self.step_count = 0
        self._m = {}
        self._v = {}
        for pairs in self.groups.values():
            for name, p in pairs:
                self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)

    def step(self, lr_dense: float, lr_sparse: float) -> None:
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - BETA1**t
        c2 = 1.0 - BETA2**t
        for group, lr, decay in (
            ("dense", lr_dense, WEIGHT_DECAY),
            ("sparse", lr_sparse, 0.0),
        ):
            for name, p in self.groups[group]:
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                if decay:
                    p.data *= 1.0 - lr * decay
                m = self._m[name]
                v = self._v[name]
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * np.square(g)
                p.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)

    def zero_grad(self) -> None:
        for pairs in self.groups.values():
            for _, p in pairs:
                p.grad = None


# ---------------------------------------------------------------------------
# schedule


def onecycle_lr(step: int, total_steps: int, max_lr: float) -> float:
    """Cosine warmup to max_lr at 30% of the run, cosine anneal after.

    Starts at max_lr/25, ends at max_lr/250000; steps past the end clamp
    to the final value.
    """
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if max_lr <= 0:
        raise ConfigError(f"max_lr must be positive, got {max_lr}")
    start = max_lr / 25.0
    final = max_lr / 250000.0
    peak = 0.3 * total_steps
    if step >= total_steps:
        return final
    if step <= peak:
        u = step / peak if peak > 0 else 1.0
        return start + (max_lr - start) * 0.5 * (1.0 - math.cos(math.pi * u))
    v = (step - peak) / (total_steps - peak)
    return final + (max_lr - final) * 0.5 * (1.0 + math.cos(math.pi * v))


# ---------------------------------------------------------------------------
# evaluation


def predict_split(model: RuleNetModel, split_: EncodedSplit, rng=None) -> np.ndarray:
    """Raw predictions in fixed-size chunks: the deterministic eval-mode
    pass, or with an rng a stochastic rollout drawing from it. No rows give
    an empty array of the model's output shape and dtype."""
    if split_.n_rows == 0:
        tail = () if model.config.task == TASK_REGRESSION else (model.config.n_outputs,)
        return np.empty((0,) + tail, dtype=model.dtype)
    mode = "eval" if rng is None else "rollout"
    outs = []
    for lo in range(0, split_.n_rows, EVAL_CHUNK):
        idx = np.arange(lo, min(lo + EVAL_CHUNK, split_.n_rows))
        outs.append(model.forward(take_rows(split_, idx), mode, rng=rng).data)
    return np.concatenate(outs, axis=0)


def evaluate(model: RuleNetModel, split_: EncodedSplit) -> float:
    """Validation score in the task's metric: RMSE in original target
    units, or argmax accuracy."""
    if split_.target is None:
        raise ContractError("split has no target column to evaluate against")
    if split_.n_rows == 0:
        raise ContractError("split has no rows to evaluate")

    pred = predict_split(model, split_)
    if model.config.task == TASK_REGRESSION:
        y_hat = model.prep.normalizer.denormalize(pred.astype(np.float64))
        err = y_hat - split_.target
        return float(np.sqrt(np.mean(np.square(err))))
    return float(np.mean(np.argmax(pred, axis=1) == split_.target))


def default_metric(task: str) -> str:
    return METRIC_RMSE if task == TASK_REGRESSION else METRIC_ACCURACY


def oriented(metric: str, value: float) -> float:
    """Map a validation metric to a higher-is-better scale."""
    return -value if metric == METRIC_RMSE else value


def metric_improved(metric: str, candidate: float, incumbent: Optional[float]) -> bool:
    """Strict improvement, so the earliest epoch keeps ties."""
    return incumbent is None or oriented(metric, candidate) > oriented(metric, incumbent)


# ---------------------------------------------------------------------------
# history + trainer


@dataclass
class TrainHistory:
    metric: str
    train_loss: list = field(default_factory=list)
    val_metric: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_metric: Optional[float] = None

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Owns one model's optimization; epochs can be run in installments.

    Hyperparameter search relies on that: a trial advances to each pruning
    rung with run_until(), and only surviving trials keep going. The lr
    schedule always spans the full config.epochs budget regardless of where
    the run is cut off.
    """

    def __init__(
        self,
        prep,
        train_split: EncodedSplit,
        val_split: EncodedSplit,
        config: RuleNetConfig,
        seed: int = 0,
        dtype=np.float32,
        metrics_path=None,
    ):
        config.validate()
        if train_split.target is None or val_split.target is None:
            raise ContractError("training requires targets in both splits")
        for name, part in (("train", train_split), ("val", val_split)):
            if part.n_rows == 0:
                raise ContractError(f"training requires rows in both splits; {name} has none")
        self.prep = prep
        self.config = config
        self.seed = seed
        self.train_split = train_split
        self.val_split = val_split
        self.metrics_path = metrics_path
        self.model = RuleNetModel.build(prep, config, seed=seed, dtype=dtype)
        self.optimizer = AdamW(self.model.parameter_groups())
        self.metric = default_metric(config.task)
        self.history = TrainHistory(metric=self.metric)
        self.global_step = 0
        n_batches = math.ceil(train_split.n_rows / config.batch_size)
        self.total_steps = config.epochs * n_batches
        self._best_weights: Optional[dict] = None

    def _train_one_epoch(self, epoch: int) -> tuple:
        cfg = self.config
        rng = np.random.default_rng([self.seed, epoch, 1])
        loss_sum = 0.0
        rows_seen = 0
        last_lr = None
        for batch in make_batches(self.train_split, cfg.batch_size, self.seed, epoch):
            with T.Tape() as tape:
                pred = self.model.forward(batch, "train", rng=rng)
                loss = batch_loss(self.model, batch, pred)
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(
                    epoch, self.global_step, f"loss became {value} at epoch {epoch}"
                )
            T.backward(tape, loss)
            lr_dense = onecycle_lr(self.global_step, self.total_steps, cfg.lr_dense)
            lr_sparse = onecycle_lr(self.global_step, self.total_steps, cfg.lr_sparse)
            self.optimizer.step(lr_dense, lr_sparse)
            self.optimizer.zero_grad()
            self.global_step += 1
            last_lr = lr_dense
            loss_sum += value * batch.n_rows
            rows_seen += batch.n_rows
        return loss_sum / rows_seen, last_lr

    def run_until(self, epoch_target: int) -> float:
        """Advance to the given epoch count (clamped to the config budget).

        Returns the best validation metric seen so far.
        """
        target = min(epoch_target, self.config.epochs)
        while self.history.epochs_run < target:
            epoch = self.history.epochs_run
            train_loss, lr = self._train_one_epoch(epoch)
            score = evaluate(self.model, self.val_split)
            # weights can blow up while layer norm keeps the training loss
            # finite; the validation metric is where that surfaces
            if not math.isfinite(score):
                raise DivergenceError(
                    epoch,
                    self.global_step,
                    f"validation {self.metric} became {score} at epoch {epoch}",
                )
            self.history.train_loss.append(train_loss)
            self.history.val_metric.append(score)
            self.history.lr.append(lr)
            if metric_improved(self.metric, score, self.history.best_val_metric):
                self.history.best_epoch = epoch
                self.history.best_val_metric = score
                self._best_weights = {
                    name: t.data.copy() for name, t in self.model.named_parameters().items()
                }
            if self.metrics_path is not None:
                record = {
                    "epoch": epoch,
                    "train_loss": train_loss,
                    "val_metric": score,
                    "lr": lr,
                }
                mode = "w" if epoch == 0 else "a"  # a run starts the file afresh
                try:
                    with open(self.metrics_path, mode, encoding="utf-8") as fh:
                        fh.write(json.dumps(record) + "\n")
                except OSError as e:
                    raise ArtifactWriteError.at(self.metrics_path, e) from e
        return self.history.best_val_metric

    def finalize(self) -> tuple:
        """Load the best epoch's weights into the model and return it."""
        if self._best_weights is None:
            raise ContractError("no epochs have run; nothing to finalize")
        params = self.model.named_parameters()
        for name, data in self._best_weights.items():
            params[name].data = data.copy()
        return self.model, self.history


def train(
    prep,
    train_split: EncodedSplit,
    val_split: EncodedSplit,
    config: RuleNetConfig,
    seed: int = 0,
    dtype=np.float32,
    metrics_path=None,
) -> tuple:
    """Full training run; returns (model with best-epoch weights, history)."""
    trainer = Trainer(prep, train_split, val_split, config, seed, dtype, metrics_path)
    trainer.run_until(config.epochs)
    return trainer.finalize()
