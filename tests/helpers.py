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
# one feature's column through FeatureEmbeddings.embed_row


def _embed_one(feat, kind, numeric, missing, ids, rate, rng) -> T.Tensor:
    schema = D.DatasetSchema(
        [D.ColumnSpec(feat.name, kind), D.ColumnSpec("y", D.KIND_TARGET)], task="regression"
    )
    numerical, categorical = ([feat], []) if kind == D.KIND_NUMERICAL else ([], [feat])
    rows = len(numeric)
    batch = D.Batch(numeric, missing, ids, None, rows)
    out = FeatureEmbeddings(schema, numerical, categorical).embed_row(
        batch, rate, rng
    )
    return T.reshape(out, (rows, -1))


def embed_numerical(feat, values, missing, rate, rng) -> T.Tensor:
    """Embed one numerical column of raw values -> [rows, embed_dim]."""
    values = np.asarray(values, dtype=np.float64)
    return _embed_one(
        feat,
        D.KIND_NUMERICAL,
        values[:, None],
        np.asarray(missing, dtype=bool)[:, None],
        np.zeros((len(values), 0), dtype=np.int64),
        rate,
        rng,
    )


def embed_categorical(feat, ids, rate, rng) -> T.Tensor:
    """Embed one categorical column of ids -> [rows, embed_dim]."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = len(ids)
    return _embed_one(
        feat,
        D.KIND_CATEGORICAL,
        np.zeros((rows, 0)),
        np.zeros((rows, 0), dtype=bool),
        ids[:, None],
        rate,
        rng,
    )
