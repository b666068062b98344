"""Masking-ensemble inference.

A trained model is rolled out K times with its stochastic elements left on
(feature masking, rule masking, dropout); the rollouts are averaged into a
mean prediction and their spread becomes a per-row uncertainty. A rollout is
training.predict_split handed an rng, its own stream keyed by (seed, rollout
index), so results do not depend on evaluation order and rollouts could run
concurrently. Class probabilities are a numpy softmax with the bits of
scipy.special.softmax, so inference needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import EncodedSplit, TASK_REGRESSION, check_count, check_seed
from .model import RuleNetModel
from .training import predict_split


@dataclass(frozen=True)
class EnsemblePrediction:
    """Aggregate of K rollouts.

    mean: [rows] denormalized predictions (regression) or [rows, n_classes]
    probabilities (classification). std: [rows] uncertainty; for
    classification it is the spread of the winning class's probability.
    """

    mean: np.ndarray
    std: np.ndarray
    k: int
    rollouts: Optional[np.ndarray] = None


def aggregate_scalar(rollouts: np.ndarray) -> tuple:
    """Population mean/std over the rollout axis (axis 0).

    Moments are taken after shifting by the first rollout: identical
    rollouts then give a std of exactly zero, which a plain axis
    reduction does not guarantee (summing K equal floats rounds at the
    odd multiples).
    """
    base = rollouts[0]
    shifted = rollouts - base
    shifted_mean = shifted.mean(axis=0)
    std = np.sqrt(np.mean(np.square(shifted - shifted_mean), axis=0))
    return base + shifted_mean, std


def _softmax_rows(raw: np.ndarray) -> np.ndarray:
    """Softmax over axis 1, in the op order of scipy.special.softmax (1.10
    to 1.17), so the bits are scipy's with numpy alone."""
    shifted = np.exp(raw - np.max(raw, axis=1, keepdims=True))
    return shifted / np.sum(shifted, axis=1, keepdims=True)


def _target_units(model: RuleNetModel, raw: np.ndarray) -> np.ndarray:
    """Raw outputs -> denormalized values (regression) or class probabilities."""
    raw = raw.astype(np.float64)
    if model.config.task == TASK_REGRESSION:
        return model.prep.normalizer.denormalize(raw)
    return _softmax_rows(raw)


def predict_ensemble(
    model: RuleNetModel,
    split_: EncodedSplit,
    k: int,
    seed: int = 0,
    keep_rollouts: bool = False,
) -> EnsemblePrediction:
    """K stochastic rollouts aggregated per row."""
    check_count("ensemble size", k, 1)
    check_seed(seed)
    rngs = (np.random.default_rng([seed, i]) for i in range(k))
    rollouts = np.stack([_target_units(model, predict_split(model, split_, r)) for r in rngs])
    mean, std = aggregate_scalar(rollouts)
    if model.config.task != TASK_REGRESSION:
        winner = np.argmax(mean, axis=1)
        _, std = aggregate_scalar(rollouts[:, np.arange(split_.n_rows), winner])
    return EnsemblePrediction(mean, std, k, rollouts if keep_rollouts else None)


def predict_point(model: RuleNetModel, split_: EncodedSplit) -> np.ndarray:
    """Single deterministic eval-mode pass, in the same units as the ensemble."""
    return _target_units(model, predict_split(model, split_))
