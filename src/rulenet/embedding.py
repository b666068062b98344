"""Feature and rule embeddings.

Numerical features use a piecewise linear quantile projection: a value is
located in its fitted quantile segment [q_i, q_{i+1}] and embedded as
(1-f) * e_i + f * e_{i+1}, so the embedding is continuous in the raw value
and each parameter vector receives gradient only when its segment is hit.
Categorical features are plain table lookups with reserved UNK and MASKED
rows. Stochastic masking (the model's regularizer and its missing-value
channel) swaps a feature's embedding for a learnable masked vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .data import Batch, DatasetSchema, Preprocessing, QuantileBins
from .errors import ConfigError, ContractError


@dataclass
class MaskingPolicy:
    mask_rate: float = 0.0
    rule_mask_rate: float = 0.0

    def validate(self) -> None:
        for name, p in (("mask_rate", self.mask_rate), ("rule_mask_rate", self.rule_mask_rate)):
            if not 0.0 <= p <= 0.5:
                raise ConfigError(f"{name} must lie in [0, 0.5], got {p}")


def _mask_draws(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draws: masked iff eps <= rate."""
    if rate <= 0.0:
        return np.zeros(count, dtype=bool)
    return rng.random(count) <= rate


def init_table(rng: np.random.Generator, rows: int, embed_dim: int, dtype) -> T.Tensor:
    """Embedding init: Normal(0, 1/sqrt(embed_dim))."""
    std = 1.0 / math.sqrt(embed_dim)
    return T.Tensor(rng.normal(0.0, std, size=(rows, embed_dim)), requires_grad=True, dtype=dtype)


def init_vector(rng: np.random.Generator, embed_dim: int, dtype) -> T.Tensor:
    std = 1.0 / math.sqrt(embed_dim)
    return T.Tensor(rng.normal(0.0, std, size=embed_dim), requires_grad=True, dtype=dtype)


# ---------------------------------------------------------------------------
# segment location


def locate_segments(values: np.ndarray, bins: QuantileBins) -> tuple[np.ndarray, np.ndarray]:
    """Find each value's quantile segment: (indices i, fractions f in [0, 1]).

    i is the largest index with q_i <= x, clamped to a valid segment;
    out-of-range values clamp to the outermost segment with f 0 or 1;
    zero-width segments give f = 0. NaN raises ValueError.
    """
    if np.isnan(values).any():
        raise ValueError(f"cannot locate NaN in quantile bins for {bins.feature!r}")
    b = bins.boundaries
    idx = np.searchsorted(b, values, side="right") - 1
    idx = np.clip(idx, 0, bins.n_quantiles - 2)
    width = b[idx + 1] - b[idx]
    safe = np.where(width > 0.0, width, 1.0)
    frac = np.where(width > 0.0, (values - b[idx]) / safe, 0.0)
    return idx.astype(np.int64), np.clip(frac, 0.0, 1.0)


# ---------------------------------------------------------------------------
# per-feature embeddings


@dataclass
class NumericalFeatureEmbedding:
    name: str
    bins: QuantileBins
    table: T.Tensor  # [n_quantiles, embed_dim], one vector per boundary
    masked_vector: T.Tensor  # [embed_dim], also serves missing values

    @classmethod
    def build(cls, name, bins, embed_dim, rng, dtype) -> "NumericalFeatureEmbedding":
        return cls(
            name,
            bins,
            init_table(rng, bins.n_quantiles, embed_dim, dtype),
            init_vector(rng, embed_dim, dtype),
        )

    def embed_column(
        self,
        values: np.ndarray,
        missing: np.ndarray,
        rate: float,
        stochastic: bool,
        rng: Optional[np.random.Generator],
    ) -> T.Tensor:
        """Embed one column of raw values -> [rows, embed_dim].

        Missing entries always take the masked vector; stochastic mode also
        masks each entry independently with probability `rate`. A NaN that
        is not masked raises ValueError.
        """
        masked = np.asarray(missing, dtype=bool)
        if stochastic:
            masked = masked | _mask_draws(rate, len(values), rng)
        idx, frac = locate_segments(np.where(masked, 0.0, values), self.bins)
        joined = T.concat([self.table, T.reshape(self.masked_vector, (1, -1))], axis=0)
        masked_row = self.bins.n_quantiles
        idx_lo = np.where(masked, masked_row, idx)
        idx_hi = np.where(masked, masked_row, idx + 1)
        w_lo = np.where(masked, 1.0, 1.0 - frac)
        w_hi = np.where(masked, 0.0, frac)
        return T.interp_rows(joined, idx_lo, idx_hi, w_lo, w_hi)


@dataclass
class CategoricalFeatureEmbedding:
    name: str
    table: T.Tensor  # [vocab + UNK + MASKED, embed_dim]
    masked_id: int

    @classmethod
    def build(cls, name, table_size, masked_id, embed_dim, rng, dtype):
        return cls(name, init_table(rng, table_size, embed_dim, dtype), masked_id)

    def embed_column(
        self,
        ids: np.ndarray,
        rate: float,
        stochastic: bool,
        rng: Optional[np.random.Generator],
    ) -> T.Tensor:
        if stochastic:
            swap = _mask_draws(rate, len(ids), rng)
            ids = np.where(swap, self.masked_id, ids)
        return T.gather(self.table, np.asarray(ids), label=self.name)


# ---------------------------------------------------------------------------
# the full feature block and the rule block


class FeatureEmbeddings:
    """All per-feature embeddings, walked in schema feature order."""

    def __init__(self, schema: DatasetSchema, numerical, categorical):
        self.schema = schema
        self.numerical: list[NumericalFeatureEmbedding] = numerical
        self.categorical: list[CategoricalFeatureEmbedding] = categorical

    @classmethod
    def build(cls, prep: Preprocessing, embed_dim: int, rng, dtype) -> "FeatureEmbeddings":
        numerical = [
            NumericalFeatureEmbedding.build(c.name, prep.bins[c.name], embed_dim, rng, dtype)
            for c in prep.schema.numerical_features
        ]
        categorical = [
            CategoricalFeatureEmbedding.build(
                c.name, c.table_size, c.masked_id, embed_dim, rng, dtype
            )
            for c in prep.schema.categorical_features
        ]
        return cls(prep.schema, numerical, categorical)

    def parameters(self):
        for f in self.numerical:
            yield f"embed.num.{f.name}.table", f.table
            yield f"embed.num.{f.name}.masked", f.masked_vector
        for f in self.categorical:
            yield f"embed.cat.{f.name}.table", f.table

    def embed_row(
        self,
        batch: Batch,
        policy: MaskingPolicy,
        train_mode: bool,
        rng: Optional[np.random.Generator] = None,
    ) -> T.Tensor:
        """Embed a batch -> [rows, n_features, embed_dim].

        Tokens follow schema feature order; masking draws are i.i.d. per row
        and feature, consumed in that same order (deterministic per rng).
        No positional information is added.
        """
        rows = batch.n_rows
        if batch.numeric.shape[1] != len(self.numerical):
            raise ContractError(
                f"batch has {batch.numeric.shape[1]} numerical columns, "
                f"embeddings expect {len(self.numerical)}"
            )
        if batch.categorical.shape[1] != len(self.categorical):
            raise ContractError(
                f"batch has {batch.categorical.shape[1]} categorical columns, "
                f"embeddings expect {len(self.categorical)}"
            )
        by_name = {f.name: ("num", i, f) for i, f in enumerate(self.numerical)}
        by_name.update({f.name: ("cat", i, f) for i, f in enumerate(self.categorical)})
        tokens = []
        for col in self.schema.features:
            kind, j, feat = by_name[col.name]
            if kind == "num":
                e = feat.embed_column(
                    batch.numeric[:, j],
                    batch.numeric_missing[:, j],
                    policy.mask_rate,
                    train_mode,
                    rng,
                )
            else:
                e = feat.embed_column(
                    batch.categorical[:, j], policy.mask_rate, train_mode, rng
                )
            tokens.append(T.reshape(e, (rows, 1, -1)))
        return T.concat(tokens, axis=1)


@dataclass
class RuleEmbeddings:
    """N learnable rule vectors, shared by every sample in a batch."""

    rules: T.Tensor  # [n_rules, embed_dim]
    masked_rule_vector: T.Tensor  # [embed_dim]

    @classmethod
    def build(cls, n_rules, embed_dim, rng, dtype) -> "RuleEmbeddings":
        return cls(
            init_table(rng, n_rules, embed_dim, dtype),
            init_vector(rng, embed_dim, dtype),
        )

    @property
    def n_rules(self) -> int:
        return self.rules.shape[0]

    def parameters(self):
        yield "rules.table", self.rules
        yield "rules.masked", self.masked_rule_vector


def rule_tokens(
    rules: RuleEmbeddings,
    policy: MaskingPolicy,
    train_mode: bool,
    rng: Optional[np.random.Generator] = None,
) -> T.Tensor:
    """The batch's rule tokens [n_rules, embed_dim]; masking is per batch."""
    n = rules.n_rules
    if not train_mode or policy.rule_mask_rate <= 0.0:
        return rules.rules
    swap = _mask_draws(policy.rule_mask_rate, n, rng)
    if not swap.any():
        return rules.rules
    sel = np.where(swap, n, np.arange(n))
    joined = T.concat([rules.rules, T.reshape(rules.masked_rule_vector, (1, -1))], axis=0)
    return T.gather(joined, sel, label="rules")
