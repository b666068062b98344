"""Feature and rule embeddings.

Numerical features use a piecewise linear quantile projection: a value is
located in its fitted quantile segment [q_i, q_{i+1}] and embedded as
(1-f) * e_i + f * e_{i+1}, so the embedding is continuous in the raw value
and each parameter vector receives gradient only when its segment is hit.
Categorical features are plain table lookups with reserved UNK and MASKED
rows. Stochastic masking (the model's regularizer and its missing-value
channel) swaps a feature's embedding for a learnable masked vector; it draws
only when the caller passes an rng, and without one a pass is deterministic.
Every feature's vectors live in one parameter, `embed.table`, and the whole
feature block is one lookup into it (the batched piecewise-linear encoding of
Gorishniy et al. 2022, arXiv:2203.05556), so its tape ops do not grow with M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .data import Batch, Preprocessing
from .errors import ContractError, IndexRangeError, UnflaggedNaNError


def _mask_draws(rate: float, shape, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draws: masked iff eps <= rate."""
    if rate <= 0.0:
        return np.zeros(shape, dtype=bool)
    return rng.random(shape) <= rate


def init_normal(rng: np.random.Generator, size, embed_dim: int) -> np.ndarray:
    """Embedding init: float64 draws from Normal(0, 1/sqrt(embed_dim))."""
    return rng.normal(0.0, 1.0 / math.sqrt(embed_dim), size=size)


# ---------------------------------------------------------------------------
# segment location


def locate_segments(values, boundaries, n_quantiles) -> tuple[np.ndarray, np.ndarray]:
    """Find each value's quantile segment: (indices i, fractions f in [0, 1]).

    values [..., k] are located in the rows of boundaries [k, n], +inf past
    row j's n_quantiles[j], or all in one 1-d row of boundaries.
    i is the largest index with q_i <= x, clamped to a valid segment;
    out-of-range values clamp to the outermost segment with f 0 or 1;
    zero-width segments give f = 0. NaN raises UnflaggedNaNError, a ValueError.
    """
    if np.isnan(values).any():
        raise UnflaggedNaNError("cannot locate NaN in quantile bins; a missing value must be flagged")
    # the count of q <= x is searchsorted(side="right") on a sorted row
    idx = (values[..., None] >= boundaries).sum(axis=-1) - 1
    idx = np.clip(idx, 0, n_quantiles - 2)
    b = np.broadcast_to(boundaries, values.shape + boundaries.shape[-1:])
    lo = np.take_along_axis(b, idx[..., None], axis=-1)[..., 0]
    width = np.take_along_axis(b, idx[..., None] + 1, axis=-1)[..., 0] - lo
    safe = np.where(width > 0.0, width, 1.0)
    with np.errstate(over="ignore"):  # an overflowing fraction clips to 1
        frac = np.where(width > 0.0, (values - lo) / safe, 0.0)
    return idx.astype(np.int64), np.clip(frac, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the full feature block and the rule block


class FeatureEmbeddings:
    """All feature embeddings: one parameter, looked up as one block in schema order.

    `table` [rows, embed_dim] holds its rows in init-draw order: each
    numerical feature (schema order) contributes its n_quantiles boundary
    vectors and then its masked vector, which also serves missing values;
    each categorical feature's table (vocab, UNK, MASKED) follows. A located
    numerical value blends its rows (i, i+1) by (1-f, f); a masked cell or a
    categorical id is one row r, blended as (r, r) by (1, 0).
    """

    def __init__(self, prep: Preprocessing, table: T.Tensor):
        schema = prep.schema
        self.schema = schema
        self.bins = prep.bins
        self.table = table
        numerical, categorical = schema.numerical_features, schema.categorical_features
        position = {c.name: i for i, c in enumerate(schema.features)}
        self._position = np.array([position[c.name] for c in numerical + categorical], dtype=np.int64)
        self._column = np.argsort(self._position)
        self._n_quantiles = np.array([prep.bins[c.name].n_quantiles for c in numerical], dtype=np.int64)
        self._boundaries = np.full((len(numerical), self._n_quantiles.max(initial=2)), np.inf)
        for j, c in enumerate(numerical):
            self._boundaries[j, : self._n_quantiles[j]] = prep.bins[c.name].boundaries
        self._sizes = np.array([c.table_size for c in categorical], dtype=np.int64)
        rows = np.concatenate([self._n_quantiles + 1, self._sizes])
        self._offsets = np.cumsum(rows) - rows
        masked = np.concatenate([self._n_quantiles, [c.masked_id for c in categorical]])
        self._masked_rows = (self._offsets + masked).astype(np.int64)

    @classmethod
    def build(cls, prep: Preprocessing, embed_dim: int, rng, dtype) -> "FeatureEmbeddings":
        """Draw the whole table in one call, in row order, into `dtype` storage."""
        schema = prep.schema
        rows = sum(prep.bins[c.name].n_quantiles + 1 for c in schema.numerical_features)
        rows += sum(c.table_size for c in schema.categorical_features)
        table = init_normal(rng, (rows, embed_dim), embed_dim)
        return cls(prep, T.Tensor(table, requires_grad=True, dtype=dtype))

    def parameters(self):
        yield "embed.table", self.table

    def embed_row(
        self, batch: Batch, mask_rate: float, rng: Optional[np.random.Generator] = None
    ) -> T.Tensor:
        """Embed a batch -> [rows, n_features, embed_dim].

        Tokens follow schema feature order. With an rng, each cell is masked
        with probability mask_rate, the draws i.i.d. per row and feature and
        consumed feature by feature in that same order (deterministic per
        rng); without one, nothing is drawn. Missing numerical cells are
        always masked. No positional information is added.
        """
        n_num, n_cat = len(self._n_quantiles), len(self._sizes)
        if batch.numeric.shape[1] != n_num or batch.categorical.shape[1] != n_cat:
            raise ContractError(
                f"batch has {batch.numeric.shape[1]} numerical and {batch.categorical.shape[1]}"
                f" categorical columns, embeddings expect {n_num} and {n_cat}"
            )
        ids = np.asarray(batch.categorical)
        bad = (ids < 0) | (ids >= self._sizes)
        if bad.any():
            j, r = np.argwhere(bad.T)[0]
            raise IndexRangeError(
                f"categorical feature {self.schema.categorical_features[j].name!r}: "
                f"id {int(ids[r, j])} outside [0, {self._sizes[j]})"
            )
        masked = np.hstack([batch.numeric_missing, np.zeros(ids.shape, dtype=bool)])
        if rng is not None:
            drawn = _mask_draws(mask_rate, (n_num + n_cat, batch.n_rows), rng)
            masked |= drawn[self._position].T
        idx, frac = locate_segments(
            np.where(masked[:, :n_num], 0.0, batch.numeric), self._boundaries, self._n_quantiles
        )
        lo = np.where(masked, self._masked_rows, self._offsets + np.hstack([idx, ids]))
        hi = np.where(masked, self._masked_rows, self._offsets + np.hstack([idx + 1, ids]))
        w_hi = np.where(masked, 0.0, np.hstack([frac, np.zeros(ids.shape)]))
        lo, hi, w_hi = (a[:, self._column].ravel() for a in (lo, hi, w_hi))
        out = T.interp_rows(self.table, lo, hi, 1.0 - w_hi, w_hi)
        return T.reshape(out, (batch.n_rows, n_num + n_cat, self.table.shape[1]))


@dataclass
class RuleEmbeddings:
    """N learnable rule vectors, shared by every sample in a batch."""

    rules: T.Tensor  # [n_rules, embed_dim]
    masked_rule_vector: T.Tensor  # [embed_dim]

    @classmethod
    def build(cls, n_rules, embed_dim, rng, dtype) -> "RuleEmbeddings":
        rules = init_normal(rng, (n_rules, embed_dim), embed_dim)
        masked = init_normal(rng, embed_dim, embed_dim)
        return cls(*(T.Tensor(a, requires_grad=True, dtype=dtype) for a in (rules, masked)))

    @property
    def n_rules(self) -> int:
        return self.rules.shape[0]

    def parameters(self):
        yield "rules.table", self.rules
        yield "rules.masked", self.masked_rule_vector


def rule_tokens(
    rules: RuleEmbeddings, rate: float, rng: Optional[np.random.Generator] = None
) -> T.Tensor:
    """The batch's rule tokens [n_rules, embed_dim]; with an rng, each rule
    is masked with probability rate, drawn once per batch."""
    n = rules.n_rules
    if rng is None or rate <= 0.0:
        return rules.rules
    swap = _mask_draws(rate, n, rng)
    if not swap.any():
        return rules.rules
    # a masked rule reads row n, the masked vector: one row r is blended
    # as (r, r) by (1, 0), as FeatureEmbeddings does for a masked cell
    sel = np.where(swap, n, np.arange(n))
    joined = T.concat([rules.rules, T.reshape(rules.masked_rule_vector, (1, -1))], axis=0)
    return T.interp_rows(joined, sel, sel, np.ones(n), np.zeros(n))
