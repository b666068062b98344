"""The rule-token transformer.

Feature tokens pass through a pre-layer-norm encoder (bidirectional
self-attention, no positional encoding). A stack of N learnable rule tokens
then queries the encoded features in the decoder: each decoder layer is a
single joint attention where the queries are the N rule states and the
keys/values are those rule states concatenated with the M encoded features,
so every rule sees all features and all other rules, with no causal mask.
The rule tokens are shared by every row until they first attend, so decoder
layer 0 normalizes and projects them once per batch, not once per row.
Max-pool over the rule axis and a linear head produce the prediction.

With decoder_layers = 0 the rule stack is skipped entirely and the head
pools the encoder output (the no-decoder variant).

RuleNetModel.forward turns its mode into randomness: "train" and "rollout"
pass their rng down, "eval" passes none. Feature masking, rule masking and
dropout draw only when they are handed an rng.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import tensor as T
from .data import Batch, DatasetSchema, Preprocessing, TASK_CLASSIFICATION, TASK_REGRESSION, check_seed
from .embedding import FeatureEmbeddings, RuleEmbeddings, rule_tokens
from .errors import ConfigError, ContractError

MODES = ("train", "eval", "rollout")

# the values each RuleNetConfig field annotation admits; the CLI types its
# run settings with the same rule
_FIELD_TYPES = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "str": str,
    "Optional[int]": (numbers.Integral, type(None)),
    "Optional[str]": (str, type(None)),
}


def fits(value, annotation: str) -> bool:
    """Whether value has the type an annotation names; a bool is never a number."""
    return not isinstance(value, bool) and isinstance(value, _FIELD_TYPES[annotation])


@dataclass
class RuleNetConfig:
    """Complete hyperparameter record for one model."""

    n_features: int  # M, fixed by the schema
    n_rules: int = 64
    embed_dim: int = 64
    encoder_layers: int = 2
    decoder_layers: int = 2
    n_heads: int = 4
    hidden_dim: int = 256
    n_quantiles: int = 48
    mask_rate: float = 0.1
    rule_mask_rate: float = 0.1
    transformer_dropout: float = 0.1
    head_dropout: float = 0.1
    label_smoothing: float = 0.0
    batch_size: int = 256
    lr_dense: float = 1e-3
    lr_sparse: float = 1e-2
    epochs: int = 100
    task: str = TASK_REGRESSION
    n_classes: Optional[int] = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not fits(value, f.type):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.n_features < 1:
            raise ConfigError(f"n_features must be >= 1, got {self.n_features}")
        for name in ("n_rules", "embed_dim", "n_heads", "hidden_dim", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("encoder_layers", "decoder_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_quantiles < 2:
            raise ConfigError(f"n_quantiles must be >= 2, got {self.n_quantiles}")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}"
            )
        for name in ("mask_rate", "rule_mask_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 0.5:
                raise ConfigError(f"{name} must lie in [0, 0.5], got {p}")
        for name in ("transformer_dropout", "head_dropout"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {p}")
        if not 0.0 <= self.label_smoothing <= 0.4:
            raise ConfigError(f"label_smoothing must lie in [0, 0.4], got {self.label_smoothing}")
        for name in ("lr_dense", "lr_sparse"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.task not in (TASK_REGRESSION, TASK_CLASSIFICATION):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task == TASK_CLASSIFICATION and (self.n_classes is None or self.n_classes < 2):
            raise ConfigError(f"classification needs n_classes >= 2, got {self.n_classes}")

    @property
    def n_outputs(self) -> int:
        return self.n_classes if self.task == TASK_CLASSIFICATION else 1

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "RuleNetConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(obj)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**obj)

    @classmethod
    def for_schema(cls, schema: DatasetSchema, **overrides) -> "RuleNetConfig":
        cfg = cls(
            n_features=schema.n_features,
            task=schema.task,
            n_classes=schema.n_classes,
            **overrides,
        )
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# building blocks


class Linear:
    """Affine map on the last axis; weights U(+-sqrt(1/fan_in))."""

    def __init__(self, n_in: int, n_out: int, rng, dtype):
        bound = math.sqrt(1.0 / n_in)
        self.weight = T.Tensor(
            rng.uniform(-bound, bound, size=(n_in, n_out)), requires_grad=True, dtype=dtype
        )
        self.bias = T.Tensor(
            rng.uniform(-bound, bound, size=n_out), requires_grad=True, dtype=dtype
        )

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.weight, self.bias)

    def parameters(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


class LayerNorm:
    def __init__(self, dim: int, dtype):
        self.gain = T.Tensor(np.ones(dim), requires_grad=True, dtype=dtype)
        self.bias = T.Tensor(np.zeros(dim), requires_grad=True, dtype=dtype)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.gain, self.bias)

    def parameters(self, prefix: str):
        yield f"{prefix}.gain", self.gain
        yield f"{prefix}.bias", self.bias


class TransformerLayer:
    """Pre-LN attention + feed-forward block.

    Self-attention when memory is None. With memory, queries come from x
    and keys/values from [memory; x] jointly (both pre-normalized by the
    same layer norm). Memory and x are projected apart and their keys and
    values concatenated, so x may be [tokens, e] that every row shares: its
    layer norm and projections then run once, not once per row. The heads'
    attention is one tensor.attention, and the feed-forward block (norm_ff,
    ff1, GELU, ff2) one tensor.feed_forward. attention_block and ff_block
    each return the layer's state after one residual.
    """

    def __init__(self, embed_dim: int, n_heads: int, hidden_dim: int, rng, dtype):
        self.embed_dim = embed_dim
        self.n_heads = n_heads
        self.wq = Linear(embed_dim, embed_dim, rng, dtype)
        self.wk = Linear(embed_dim, embed_dim, rng, dtype)
        self.wv = Linear(embed_dim, embed_dim, rng, dtype)
        self.wo = Linear(embed_dim, embed_dim, rng, dtype)
        self.norm_attn = LayerNorm(embed_dim, dtype)
        self.norm_ff = LayerNorm(embed_dim, dtype)
        self.ff1 = Linear(embed_dim, hidden_dim, rng, dtype)
        self.ff2 = Linear(hidden_dim, embed_dim, rng, dtype)

    def __call__(self, x: T.Tensor, memory: Optional[T.Tensor], p_drop: float, rng) -> T.Tensor:
        return self.ff_block(self.attention_block(x, memory, p_drop, rng), p_drop, rng)

    def attention_block(self, x: T.Tensor, memory: Optional[T.Tensor], p_drop: float, rng) -> T.Tensor:
        """x plus the dropped-out attention block: the first residual."""
        # each activation is dropped as soon as the layer is done with it:
        # what the backward needs of it, the tape keeps
        h = self.norm_attn(x)
        q, k, v = self.wq(h), self.wk(h), self.wv(h)
        del h
        if memory is not None:
            if x.data.ndim == 2:  # tokens shared by every row
                q, k, v = (T.broadcast_rows(t, memory.shape[0]) for t in (q, k, v))
            m = self.norm_attn(memory)
            k = T.concat([self.wk(m), k], axis=1)
            v = T.concat([self.wv(m), v], axis=1)
            del m
        return T.add(x, T.dropout(self._attend(q, k, v), p_drop, rng))

    def _attend(self, q: T.Tensor, k: T.Tensor, v: T.Tensor) -> T.Tensor:
        """Multi-head attention of projected queries [rows, n_q, e] over
        projected keys and values [rows, n_kv, e], through the output projection."""
        head_dim = self.embed_dim // self.n_heads
        return self.wo(T.attention(q, k, v, self.n_heads, 1.0 / math.sqrt(head_dim)))

    def ff_block(self, x: T.Tensor, p_drop: float, rng) -> T.Tensor:
        """x plus the dropped-out feed-forward block: the second residual."""
        norm, ff1, ff2 = self.norm_ff, self.ff1, self.ff2
        f = T.feed_forward(x, norm.gain, norm.bias, ff1.weight, ff1.bias, ff2.weight, ff2.bias)
        return T.add(x, T.dropout(f, p_drop, rng))

    def parameters(self, prefix: str):
        for name, lin in (
            ("attn.q", self.wq),
            ("attn.k", self.wk),
            ("attn.v", self.wv),
            ("attn.out", self.wo),
            ("ff.in", self.ff1),
            ("ff.out", self.ff2),
        ):
            yield from lin.parameters(f"{prefix}.{name}")
        yield from self.norm_attn.parameters(f"{prefix}.norm_attn")
        yield from self.norm_ff.parameters(f"{prefix}.norm_ff")


# ---------------------------------------------------------------------------
# the model


def _run_layers(layers, x: T.Tensor, memory: Optional[T.Tensor], p_drop: float, rng) -> T.Tensor:
    """x through each layer in turn, a residual at a time, so that nothing
    here holds a layer's input once its first residual has used it."""
    for layer in layers:
        x = layer.attention_block(x, memory, p_drop, rng)
        x = layer.ff_block(x, p_drop, rng)
    return x


def _graph_dtype(dtype) -> type:
    """The scalar type of dtype; a ConfigError unless it is one of T.DTYPES."""
    try:
        name = np.dtype(dtype).name
    except (TypeError, ValueError):
        name = None
    if name not in T.DTYPES:
        raise ConfigError(f"dtype must be one of {sorted(T.DTYPES)}, got {dtype!r}")
    return T.DTYPES[name]


class RuleNetModel:
    def __init__(self, prep: Preprocessing, config: RuleNetConfig, rng, dtype=np.float32):
        config.validate()
        dtype = _graph_dtype(dtype)
        schema = prep.schema
        if config.n_features != schema.n_features:
            raise ContractError(
                f"config says {config.n_features} features, schema has {schema.n_features}"
            )
        if config.task != schema.task:
            raise ContractError(f"config task {config.task!r} != schema task {schema.task!r}")
        if schema.n_classes is not None and config.n_classes != schema.n_classes:
            raise ContractError(
                f"config n_classes {config.n_classes} != schema {schema.n_classes}"
            )
        for name, bins in prep.bins.items():
            if bins.n_quantiles != config.n_quantiles:
                raise ContractError(
                    f"bins for {name!r} fitted with {bins.n_quantiles} quantiles, "
                    f"config wants {config.n_quantiles}"
                )

        self.prep = prep
        self.config = config
        self.dtype = dtype
        self.features = FeatureEmbeddings.build(prep, config.embed_dim, rng, dtype)
        self.rules: Optional[RuleEmbeddings] = None
        if config.decoder_layers > 0:
            self.rules = RuleEmbeddings.build(config.n_rules, config.embed_dim, rng, dtype)
        self.encoder = [
            TransformerLayer(config.embed_dim, config.n_heads, config.hidden_dim, rng, dtype)
            for _ in range(config.encoder_layers)
        ]
        self.decoder = [
            TransformerLayer(config.embed_dim, config.n_heads, config.hidden_dim, rng, dtype)
            for _ in range(config.decoder_layers)
        ]
        self.final_norm = LayerNorm(config.embed_dim, dtype)
        self.head = Linear(config.embed_dim, config.n_outputs, rng, dtype)

    @classmethod
    def build(cls, prep, config, seed: int = 0, dtype=np.float32) -> "RuleNetModel":
        check_seed(seed)
        return cls(prep, config, np.random.default_rng([seed, 0]), dtype)

    # -- forward -----------------------------------------------------------

    def encoder_forward(self, embedded: T.Tensor, rng=None) -> T.Tensor:
        return _run_layers(self.encoder, embedded, None, self.config.transformer_dropout, rng)

    def decoder_forward(self, encoded: T.Tensor, rules: T.Tensor, rng=None) -> T.Tensor:
        """The rule stack [rows, N, e]. The rule tokens [N, e] are the same for
        every row until they first attend, so layer 0 takes them as they are
        and runs its rule-side layer norm and projections once per batch."""
        return _run_layers(self.decoder, rules, encoded, self.config.transformer_dropout, rng)

    def head_forward(self, decoded: T.Tensor, rng=None) -> T.Tensor:
        pooled = T.maxpool(self.final_norm(decoded), axis=1)
        pooled = T.dropout(pooled, self.config.head_dropout, rng)
        out = self.head(pooled)
        if self.config.task == TASK_REGRESSION:
            return T.reshape(out, (out.shape[0],))
        return out

    def forward(self, batch: Batch, mode: str, rng=None) -> T.Tensor:
        """Predictions: [rows] normalized units (regression) or [rows, n_classes] logits."""
        if mode not in MODES:
            raise ContractError(f"unknown mode {mode!r}, expected one of {MODES}")
        if mode == "eval":
            rng = None
        elif rng is None:
            raise ContractError(f"{mode} mode needs an rng stream")
        cfg = self.config
        embedded = self.features.embed_row(batch, cfg.mask_rate, rng)
        encoded = self.encoder_forward(embedded, rng)
        if self.decoder:
            rules = rule_tokens(self.rules, cfg.rule_mask_rate, rng)
            stack = self.decoder_forward(encoded, rules, rng)
        else:
            stack = encoded
        return self.head_forward(stack, rng)

    # -- parameters ----------------------------------------------------------

    def named_parameters(self) -> dict:
        out = {}
        for name, t in self.features.parameters():
            out[name] = t
        if self.rules is not None:
            for name, t in self.rules.parameters():
                out[name] = t
        for i, layer in enumerate(self.encoder):
            for name, t in layer.parameters(f"enc.{i}"):
                out[name] = t
        for i, layer in enumerate(self.decoder):
            for name, t in layer.parameters(f"dec.{i}"):
                out[name] = t
        for name, t in self.final_norm.parameters("final_norm"):
            out[name] = t
        for name, t in self.head.parameters("head"):
            out[name] = t
        return out

    def parameter_groups(self) -> dict:
        """Sparse group: embedding tables and rules. Dense group: the rest."""
        sparse, dense = [], []
        for name, t in self.named_parameters().items():
            (sparse if name.startswith(("embed.", "rules.")) else dense).append((name, t))
        return {"sparse": sparse, "dense": dense}

    def num_parameters(self) -> int:
        return sum(t.data.size for t in self.named_parameters().values())


def parameter_count(schema: DatasetSchema, config: RuleNetConfig) -> int:
    """Closed-form parameter count for a model built from (schema, config)."""
    e = config.embed_dim
    h = config.hidden_dim
    embeddings = sum(config.n_quantiles * e + e for _ in schema.numerical_features)
    embeddings += sum(c.table_size * e for c in schema.categorical_features)
    rules = (config.n_rules * e + e) if config.decoder_layers > 0 else 0
    per_layer = (
        4 * (e * e + e)  # q, k, v, out projections
        + 2 * (2 * e)  # two layer norms
        + (e * h + h)  # ff in
        + (h * e + e)  # ff out
    )
    layers = (config.encoder_layers + config.decoder_layers) * per_layer
    head = e * config.n_outputs + config.n_outputs
    final_norm = 2 * e
    return embeddings + rules + layers + final_norm + head


def activation_bytes(schema: DatasetSchema, config: RuleNetConfig, rows: int, dtype=np.float32) -> int:
    """Closed-form bytes the tape of one train step on `rows` rows holds,
    parameters aside: the arrays its records keep for the VJPs, each once.

    It counts a rule-mask record whenever rule_mask_rate > 0 (a step that
    draws no masked rule keeps N * (8 + 2 * itemsize) bytes less), and a
    dropout mask wherever the rate is above 0. A dtype that RuleNetModel
    refuses is the same ConfigError here.
    """
    s = np.dtype(_graph_dtype(dtype)).itemsize
    idx = np.dtype(np.int64).itemsize
    m, e, h, n = config.n_features, config.embed_dim, config.hidden_dim, config.n_rules
    drop = 2 * e if config.transformer_dropout > 0 else 0  # two bool masks per token

    def layer(tokens, keys, own_rows):
        """A layer's bytes: `tokens` queries over `keys` keys per row, its
        attention-side norm and query projection on `own_rows` token rows."""
        return (
            own_rows * (e + 1) * s  # norm_attn: y and inv
            + own_rows * e * s  # the queries
            + 2 * rows * keys * e * s  # keys and values
            + rows * tokens * (e * s + drop)  # the merged heads and the dropout masks
            + rows * tokens * ((e + 1) * s + 2 * h * s)  # feed_forward: y, inv, d and a
        )

    total = rows * m * 2 * (idx + s)  # the embedding lookup: two row indices, two weights
    total += config.encoder_layers * layer(m, m, rows * m)
    if config.decoder_layers:
        if config.rule_mask_rate > 0:
            total += n * (idx + 2 * s)
        memory_norm = rows * m * (e + 1) * s  # each decoder layer normalizes the memory
        total += layer(n, m + n, n) + memory_norm  # layer 0 runs its rule side once per batch
        total += (config.decoder_layers - 1) * (layer(n, m + n, rows * n) + memory_norm)
    tokens = n if config.decoder_layers else m
    total += rows * tokens * (e + 1) * s  # final_norm: y and inv
    total += rows * e * (idx + (1 if config.head_dropout > 0 else 0) + s)  # max-pool, dropout, head
    if config.task == TASK_REGRESSION:
        return total + rows * s  # the squared difference
    return total + 3 * rows * config.n_outputs * s  # log-softmax, and the weighted sum


# ---------------------------------------------------------------------------
# cost model


@dataclass(frozen=True)
class FlopsEstimate:
    encoder_flops: int
    decoder_flops: int

    @property
    def total(self) -> int:
        return self.encoder_flops + self.decoder_flops


def estimate_flops(config: RuleNetConfig) -> FlopsEstimate:
    """Attention-interaction cost model: counts scale with (tokens x keys) x layers x e_d^2."""
    m, e = config.n_features, config.embed_dim
    n = config.n_rules if config.decoder_layers > 0 else 0
    encoder = m * m * config.encoder_layers * e * e
    decoder = (m + n) * n * config.decoder_layers * e * e
    return FlopsEstimate(encoder, decoder)


def encoder_only_flops(config: RuleNetConfig) -> int:
    """Cost of an encoder-only model with the same total layer budget."""
    m, e = config.n_features, config.embed_dim
    layers = config.encoder_layers + config.decoder_layers
    return m * m * layers * e * e
