"""Small in-memory datasets and model builders shared across test modules."""

from __future__ import annotations

import numpy as np

from rulenet import data as D
from rulenet import tensor as T
from rulenet.embedding import FeatureEmbeddings
from rulenet.model import RuleNetConfig, RuleNetModel


def make_dataset(
    rows=32,
    n_num=2,
    n_cat=1,
    task="regression",
    n_classes=3,
    seed=0,
    n_quantiles=4,
    missing_rate=0.0,
):
    """Random table -> (Preprocessing, EncodedSplit) fitted on the whole table."""
    rng = np.random.default_rng(seed)
    header = [f"num{i}" for i in range(n_num)] + [f"cat{j}" for j in range(n_cat)] + ["y"]
    cats = ["red", "green", "blue"]
    table_rows = []
    for r in range(rows):
        row = []
        for _ in range(n_num):
            row.append("" if rng.random() < missing_rate else f"{rng.normal():.6f}")
        for _ in range(n_cat):
            row.append(str(rng.choice(cats)))
        if task == "regression":
            row.append(f"{rng.normal():.6f}")
        else:
            # first rows cycle through the classes so every label is in-vocab
            label = r % n_classes if r < n_classes else rng.integers(n_classes)
            row.append(f"c{label}")
        table_rows.append(row)
    table = D.Table.from_rows(header, table_rows)
    schema = D.infer_schema(table, task=task)
    prep = D.fit_preprocessing(schema, table, n_quantiles)
    return prep, D.encode(prep, table)


def tiny_config(prep, **overrides) -> RuleNetConfig:
    defaults = dict(
        n_rules=3,
        embed_dim=8,
        encoder_layers=1,
        decoder_layers=1,
        n_heads=2,
        hidden_dim=16,
        n_quantiles=4,
        mask_rate=0.0,
        rule_mask_rate=0.0,
        transformer_dropout=0.0,
        head_dropout=0.0,
        batch_size=8,
        epochs=3,
    )
    defaults.update(overrides)
    return RuleNetConfig.for_schema(prep.schema, **defaults)


def tiny_model(seed=0, dtype=np.float64, task="regression", rows=8, missing_rate=0.0, **config_overrides):
    prep, enc = make_dataset(rows=rows, task=task, seed=seed, missing_rate=missing_rate)
    cfg = tiny_config(prep, **config_overrides)
    model = RuleNetModel.build(prep, cfg, seed=seed, dtype=dtype)
    batch = D.take_rows(enc, np.arange(min(rows, enc.n_rows)))
    return model, batch


# ---------------------------------------------------------------------------
# the feature table's layout, and one feature's column through embed_row


def feature_rows(schema: D.DatasetSchema, bins: dict) -> dict:
    """name -> (slice of the feature's rows, index of its masked row) in
    FeatureEmbeddings.table, derived from the documented layout alone:
    each numerical feature in schema order holds its n_quantiles boundary
    rows and then its masked row; each categorical table follows (vocab,
    UNK, MASKED)."""
    out, start = {}, 0
    for c in schema.numerical_features:
        n_q = bins[c.name].n_quantiles
        out[c.name] = (slice(start, start + n_q), start + n_q)
        start += n_q + 1
    for c in schema.categorical_features:
        out[c.name] = (slice(start, start + c.table_size), start + c.masked_id)
        start += c.table_size
    return out


def feature_view(feats, name, array=None):
    """(the feature's rows, its masked row) as views into `array` (default
    feats.table.data; pass feats.table.grad for the gradient)."""
    rows, masked = feature_rows(feats.schema, feats.bins)[name]
    array = feats.table.data if array is None else array
    return array[rows], array[masked]


def one_feature_block(column: D.ColumnSpec, bins, embed_dim, rng, dtype) -> FeatureEmbeddings:
    """FeatureEmbeddings of a schema holding only `column` (bins: a
    QuantileBins for a numerical column, None for a categorical one)."""
    schema = D.DatasetSchema([column, D.ColumnSpec("y", D.KIND_TARGET)], task="regression")
    prep = D.Preprocessing(schema, {} if bins is None else {column.name: bins}, None)
    return FeatureEmbeddings.build(prep, embed_dim, rng, dtype)


def _embed_one(feats, numeric, missing, ids, rate, rng) -> T.Tensor:
    rows = len(numeric)
    out = feats.embed_row(D.Batch(numeric, missing, ids, None, rows), rate, rng)
    return T.reshape(out, (rows, -1))


def embed_numerical(feats, values, missing, rate, rng) -> T.Tensor:
    """Embed the one numerical column of a one-feature block -> [rows, embed_dim]."""
    values = np.asarray(values, dtype=np.float64)
    return _embed_one(
        feats,
        values[:, None],
        np.asarray(missing, dtype=bool)[:, None],
        np.zeros((len(values), 0), dtype=np.int64),
        rate,
        rng,
    )


def embed_categorical(feats, ids, rate, rng) -> T.Tensor:
    """Embed the one categorical column of a one-feature block -> [rows, embed_dim]."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = len(ids)
    return _embed_one(
        feats,
        np.zeros((rows, 0)),
        np.zeros((rows, 0), dtype=bool),
        ids[:, None],
        rate,
        rng,
    )
