"""Independent oracles shared by the test suite.

Central finite differences here are written directly against numpy so they
share no code with the library's backward pass. The ingest references parse
cell by cell, the way rulenet.data did before it parsed a column at a time,
and the embedding reference maps one cell at a time, the way
FeatureEmbeddings.embed_row did before it became one block lookup. The
float32 Gaussian CDF reference evaluates the same rational erf as
rulenet.tensor, from its own copy of the coefficients, over the whole array
at once. The gelu and layer-norm references compute each kernel and its VJP
over the whole array too, with the formulas rulenet.tensor used before it
ran them a cache-sized block at a time; the layer-norm one takes its row
sums from einsum. The numpy row statistics (add.reduce sums and a max per
query) are what rulenet.tensor used before its einsum row sums and its
shift per score matrix. The per-row decoder runs layer 0 on rule tokens broadcast to every
row, the way RuleNetModel.decoder_forward did before that layer took the
shared [N, e] tokens. `softmax` is a taped softmax op for the unfused
chain that attention_probs is checked against: it runs rulenet.tensor's own
softmax kernels and registers its VJP with the library's, as "softmax".
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from scipy.special import ndtr

from rulenet import tensor as T
from rulenet.data import (
    KIND_CATEGORICAL,
    KIND_NUMERICAL,
    KIND_TARGET,
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    ColumnSpec,
    DatasetSchema,
    EncodedSplit,
    Preprocessing,
    fit_quantiles,
    fit_target_normalizer,
)
from rulenet.errors import SchemaError

from helpers import feature_rows


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. x.

    f must re-read x on every call; entries are perturbed in place and
    restored. Step size scales with the entry magnitude.
    """
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gfl = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        step = h * max(1.0, abs(float(orig)))
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gfl[i] = (fp - fm) / (2.0 * step)
    return g


def max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute deviation, scaled by the largest reference entry."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.abs(want).max()), 1e-12)
    return float(np.abs(got - want).max() / denom)


def two_pass_rmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Brute-force RMSE: explicit residuals, then sqrt of their mean square."""
    residuals = [float(p) - float(t) for p, t in zip(pred, target)]
    return float(np.sqrt(sum(r * r for r in residuals) / len(residuals)))


# ---------------------------------------------------------------------------
# ingest: per-cell references for infer_schema, fit_preprocessing and encode
#
# They take valid schema hints only. Where a cell that float() rejects used to
# escape as float()'s bare ValueError (a hinted numerical column in fitting, a
# regression target), they raise the SchemaError that encode raises for a
# numerical feature column, naming the column and the row.


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _numeric_cell(label: str, row: int, cell) -> tuple[float, bool]:
    """Parse one numerical cell -> (value, missing)."""
    if cell is None:
        return 0.0, True
    if not _parses_as_float(cell):
        raise SchemaError(f"{label}, row {row}: {cell!r} is not numeric")
    v = float(cell)
    if not math.isfinite(v):
        return 0.0, True
    return v, False


def ref_infer_schema(table, schema_hint=None, task=None) -> DatasetSchema:
    hint = dict(schema_hint or {})
    target_name = next((n for n, k in hint.items() if k == KIND_TARGET), table.order[-1])
    columns = []
    for name in table.order:
        cells = [c for c in table.column(name) if c is not None]
        numeric_like = bool(cells) and all(_parses_as_float(c) for c in cells)
        if name == target_name:
            kind = KIND_TARGET
        elif name in hint:
            kind = hint[name]
        else:
            kind = KIND_NUMERICAL if numeric_like else KIND_CATEGORICAL
        columns.append(ColumnSpec(name, kind, numeric_like=numeric_like))
    target = next(c for c in columns if c.kind == KIND_TARGET)
    if task is None:
        task = TASK_REGRESSION if target.numeric_like else TASK_CLASSIFICATION
    if task == TASK_REGRESSION and not target.numeric_like:
        raise SchemaError(
            f"target column {target.name!r} does not parse as numbers; regression impossible"
        )
    schema = DatasetSchema(columns, task=task)
    schema.validate()
    return schema


def _first_appearance(cells) -> list:
    vocab, seen = [], set()
    for c in cells:
        if c is not None and c not in seen:
            seen.add(c)
            vocab.append(c)
    return vocab


def ref_fit_preprocessing(schema: DatasetSchema, train, n_quantiles: int) -> Preprocessing:
    fitted_cols, bins, n_classes = [], {}, schema.n_classes
    for col in schema.columns:
        cells = train.column(col.name)
        vocab = None
        if col.kind == KIND_NUMERICAL:
            parsed = [_numeric_cell(f"column {col.name!r}", i, c) for i, c in enumerate(cells)]
            vals = np.array([v for v, miss in parsed if not miss], dtype=np.float64)
            bins[col.name] = fit_quantiles(vals, n_quantiles, feature=col.name)
        elif col.kind == KIND_CATEGORICAL:
            vocab = _first_appearance(cells)
        elif schema.task == TASK_CLASSIFICATION:
            if None in cells:
                raise SchemaError(f"target column {col.name!r} has missing values")
            vocab = _first_appearance(cells)
            n_classes = len(vocab)
            if n_classes < 2:
                raise SchemaError(
                    f"classification target {col.name!r} has {n_classes} class(es) in train"
                )
        fitted_cols.append(ColumnSpec(col.name, col.kind, col.numeric_like, vocab))

    normalizer = None
    if schema.task == TASK_REGRESSION:
        tcol = schema.target.name
        raw = []
        for i, c in enumerate(train.column(tcol)):
            v, missing = _numeric_cell(f"target column {tcol!r}", i, c)
            if missing:
                raise SchemaError(f"target column {tcol!r} has missing values")
            raw.append(v)
        normalizer = fit_target_normalizer(np.asarray(raw))

    fitted = DatasetSchema(fitted_cols, task=schema.task, n_classes=n_classes)
    fitted.validate()
    return Preprocessing(schema=fitted, bins=bins, normalizer=normalizer)


def ref_encode(prep: Preprocessing, table) -> EncodedSplit:
    schema = prep.schema
    n = table.n_rows
    num_cols = schema.numerical_features
    cat_cols = schema.categorical_features

    numeric = np.zeros((n, len(num_cols)), dtype=np.float64)
    missing = np.zeros((n, len(num_cols)), dtype=bool)
    for j, col in enumerate(num_cols):
        if col.name not in table.columns:
            raise SchemaError(f"table lacks expected column {col.name!r}")
        for i, cell in enumerate(table.column(col.name)):
            numeric[i, j], missing[i, j] = _numeric_cell(f"column {col.name!r}", i, cell)

    categorical = np.zeros((n, len(cat_cols)), dtype=np.int64)
    for j, col in enumerate(cat_cols):
        if col.name not in table.columns:
            raise SchemaError(f"table lacks expected column {col.name!r}")
        lookup = {cat: i for i, cat in enumerate(col.vocab)}
        for i, cell in enumerate(table.column(col.name)):
            categorical[i, j] = col.masked_id if cell is None else lookup.get(cell, col.unk_id)

    target = None
    tname = schema.target.name
    if tname in table.columns:
        cells = table.column(tname)
        if schema.task == TASK_REGRESSION:
            target = np.empty(n, dtype=np.float64)
            for i, cell in enumerate(cells):
                v, miss = _numeric_cell(f"target column {tname!r}", i, cell)
                if miss:
                    raise SchemaError(f"target column {tname!r}, row {i}: missing value")
                target[i] = v
        else:
            lookup = {lab: i for i, lab in enumerate(schema.target.vocab)}
            target = np.empty(n, dtype=np.int64)
            for i, cell in enumerate(cells):
                if cell is None:
                    raise SchemaError(f"target column {tname!r}, row {i}: missing value")
                if cell not in lookup:
                    raise SchemaError(
                        f"target column {tname!r}, row {i}: label {cell!r} unseen in train"
                    )
                target[i] = lookup[cell]

    return EncodedSplit(numeric, missing, categorical, target, n)


# ---------------------------------------------------------------------------
# embedding: a per-cell reference for FeatureEmbeddings.embed_row


def ref_embed_row(feats, batch, rate, train_mode: bool, rng) -> np.ndarray:
    """[rows, n_features, embed_dim], one cell at a time in schema order.

    Each feature in schema order draws rng.random(rows) when masking is on.
    A masked cell (drawn, or a missing numerical value) is the feature's
    masked vector or MASKED row; a numerical value is (1-f)*e_i + f*e_{i+1}
    in the segment that bisect finds; a categorical id is its table row.
    The two weights are cast to the table dtype first, as the library does.
    """
    schema = feats.schema
    numerical = {c.name: j for j, c in enumerate(schema.numerical_features)}
    categorical = {c.name: j for j, c in enumerate(schema.categorical_features)}
    layout = feature_rows(schema, feats.bins)
    table = feats.table.data
    rows = batch.n_rows
    out = np.empty((rows, schema.n_features, table.shape[1]), dtype=table.dtype)
    for m, col in enumerate(schema.features):
        span, masked_row = layout[col.name]
        feat_rows = table[span]
        drawn = [False] * rows
        if train_mode and rate > 0.0:
            drawn = list(rng.random(rows) <= rate)
        for r in range(rows):
            if col.name in categorical:
                j = categorical[col.name]
                cell = col.masked_id if drawn[r] else int(batch.categorical[r, j])
                out[r, m] = feat_rows[cell]
                continue
            j = numerical[col.name]
            if drawn[r] or batch.numeric_missing[r, j]:
                out[r, m] = table[masked_row]
                continue
            b = [float(q) for q in feats.bins[col.name].boundaries]
            x = float(batch.numeric[r, j])
            i = min(max(bisect.bisect_right(b, x) - 1, 0), len(b) - 2)
            width = b[i + 1] - b[i]
            f = min(max((x - b[i]) / width if width > 0.0 else 0.0, 0.0), 1.0)
            w_lo, w_hi = np.array([1.0 - f, f], dtype=out.dtype)
            out[r, m] = w_lo * feat_rows[i] + w_hi * feat_rows[i + 1]
    return out


# ---------------------------------------------------------------------------
# gelu: an unchunked reference for the float32 Gaussian CDF


def ref_phi_float32(x: np.ndarray) -> np.ndarray:
    """1/2 + erf(x / sqrt 2) / 2 with Eigen's float32 rational erf, clipped to [0, 1]."""
    f32 = np.float32
    z = np.clip(x * f32(1.0 / math.sqrt(2.0)), f32(-4.0), f32(4.0))
    z2 = z * z
    num = z2 * f32(-2.72614225801306e-10) + f32(2.77068142495902e-08)
    for a in (-2.10102402082508e-06, -5.69250639462346e-05, -7.34990630326855e-04,
              -2.95459980854025e-03, -1.60960333262415e-02):
        num = num * z2 + f32(a)
    den = z2 * f32(-1.45660718464996e-05) + f32(-2.13374055278905e-04)
    for b in (-1.68282697438203e-03, -7.37332916720468e-03, -1.42647390514189e-02):
        den = den * z2 + f32(b)
    return np.clip(f32(0.5) + f32(0.5) * (z * num / den), f32(0.0), f32(1.0))


# ---------------------------------------------------------------------------
# gelu and layer_norm: unblocked references, forward and VJP


def ref_gelu(x: np.ndarray, g: np.ndarray) -> tuple:
    """gelu(x) and its VJP for the output gradient g: x * Phi and g * (Phi + x * pdf)."""
    phi = ref_phi_float32(x) if x.dtype == np.float32 else ndtr(x)
    pdf = np.exp(-0.5 * x * x) * np.asarray(1.0 / math.sqrt(2.0 * math.pi), dtype=x.dtype)
    return x * phi, g * (phi + x * pdf)


def einsum_row_sum(a, b=None):
    """Each row's sum over the last axis (of a * b), as an axis of length 1."""
    sums = np.einsum("...j->...", a) if b is None else np.einsum("...j,...j->...", a, b)
    return sums[..., None]


def numpy_row_sum(a, b=None):
    """einsum_row_sum with numpy's add.reduce: rulenet.tensor._row_sum before einsum."""
    return (a if b is None else a * b).sum(axis=-1, keepdims=True)


def ref_layer_norm(x, gain, bias, g, eps=1e-5, row_sum=einsum_row_sum) -> tuple:
    """layer_norm over the last axis and its VJP for the output gradient g:
    (out, d_x, d_gain, d_bias). Each mean is a row sum over the width;
    numpy_row_sum gives numpy's mean, the formula used before einsum's."""
    width = x.shape[-1]

    def mean(a, b=None):
        return row_sum(a, b) / width

    xc = x - mean(x)
    inv = 1.0 / np.sqrt(mean(xc, xc) + np.asarray(eps, dtype=x.dtype))
    y = xc * inv
    out = y * gain + bias
    dy = g * gain
    gx = inv * (dy - mean(dy) - y * mean(dy, y))
    ggain = (g * y).reshape(-1, y.shape[-1]).sum(axis=0)
    gbias = g.reshape(-1, g.shape[-1]).sum(axis=0)
    return out, gx, ggain, gbias


# ---------------------------------------------------------------------------
# softmax as a taped op: the chain attention_probs fuses ends in it


def softmax(x: T.Tensor, axis: int = -1) -> T.Tensor:
    """Softmax of x over axis, with rulenet.tensor's own kernels.

    With axis moved to the end, the shift is taken per matrix over the last
    two axes (see T._softmax_shift): a vector's bits are independent of
    other batch rows only if no axis of rows is among those two.
    """
    s = np.moveaxis(T._softmax_fwd(np.moveaxis(x.data, axis, -1)), -1, axis)
    return T._emit("softmax", (x,), s, (s, axis))


@T._vjp("softmax")
def _softmax_bwd(rec: T.OpRecord, g: np.ndarray):
    s, axis = rec.ctx
    gx = T._softmax_vjp(np.moveaxis(g, axis, -1), np.moveaxis(s, axis, -1))
    return (np.moveaxis(gx, -1, axis),)


# ---------------------------------------------------------------------------
# softmax: each query shifted by its own max


def ref_softmax_per_query(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: exp(x - the query's max), over its einsum row sum."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / einsum_row_sum(e)


def numpy_softmax_shift(x):
    """The max per query: rulenet.tensor._softmax_shift before one shift per score matrix."""
    return x.max(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# the decoder with layer 0's rule side computed once per row


def decoder_forward_per_row(model, encoded, rules, rng=None):
    """RuleNetModel.decoder_forward with the rule tokens broadcast to [rows, N, e] first."""
    x = T.broadcast_rows(rules, encoded.shape[0])
    for layer in model.decoder:
        x = layer(x, encoded, model.config.transformer_dropout, rng)
    return x
