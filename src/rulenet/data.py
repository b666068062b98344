"""CSV ingestion, schema inference, splitting, preprocessing and batching.

The pipeline is deliberately staged so nothing fitted can leak across
splits:

    load_csv -> (DatasetSchema, Table)        types inferred, nothing fitted
    split    -> {"train","val","test"}        deterministic, stratified
    fit_preprocessing(train only)             vocabularies, bins, normalizer
    encode   -> EncodedSplit                  numpy matrices per split
    make_batches                              per-epoch deterministic shuffle

Conventions: UTF-8, comma delimiter, first row is the header, empty string
means missing. A column is numerical iff every non-empty cell parses as a
float; otherwise categorical. Cells that parse to NaN or infinity are kept
numerical but flagged missing (the model's masking channel handles them).

Cells are parsed a column at a time, with Python `float()` semantics
(surrounding whitespace, `1_000`, `nan`, `inf` and `1e400` all parse), and
each cell once per stage: schema inference, fitting, encoding. A cell that
does not parse is located only on the error path, so errors still name the
first offending column and row.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, FitError, IngestionError, SchemaError

KIND_NUMERICAL = "numerical"
KIND_CATEGORICAL = "categorical"
KIND_TARGET = "target"

TASK_REGRESSION = "regression"
TASK_CLASSIFICATION = "classification"

NORMALIZER_EPS = 1e-8


@dataclass
class ColumnSpec:
    """One column: its name, inferred kind, and (once fitted) its vocabulary.

    For categorical feature columns `vocab` lists the categories seen in the
    train split, in first-appearance order; ids beyond it are reserved:
    UNK = len(vocab), MASKED = len(vocab) + 1. For a classification target
    `vocab` holds the class labels (contiguous ids by first appearance).
    """

    name: str
    kind: str
    numeric_like: bool = False  # raw cells parse as floats (task inference)
    vocab: Optional[list[str]] = None

    @property
    def unk_id(self) -> int:
        return len(self.vocab)

    @property
    def masked_id(self) -> int:
        return len(self.vocab) + 1

    @property
    def table_size(self) -> int:
        """Rows the embedding table must cover: vocab + UNK + MASKED."""
        return len(self.vocab) + 2


@dataclass
class DatasetSchema:
    columns: list[ColumnSpec]
    task: Optional[str] = None
    n_classes: Optional[int] = None

    @property
    def target(self) -> ColumnSpec:
        for c in self.columns:
            if c.kind == KIND_TARGET:
                return c
        raise SchemaError("schema has no target column")

    @property
    def features(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.kind != KIND_TARGET]

    @property
    def numerical_features(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.kind == KIND_NUMERICAL]

    @property
    def categorical_features(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.kind == KIND_CATEGORICAL]

    @property
    def n_features(self) -> int:
        return len(self.features)

    def validate(self) -> None:
        targets = [c for c in self.columns if c.kind == KIND_TARGET]
        if len(targets) != 1:
            raise SchemaError(f"expected exactly one target column, found {len(targets)}")
        if self.n_features < 1:
            raise SchemaError("schema needs at least one feature column")
        if self.task == TASK_CLASSIFICATION and self.n_classes is not None and self.n_classes < 2:
            raise SchemaError(f"classification needs >= 2 classes, got {self.n_classes}")

    def to_json(self) -> dict:
        return {
            "columns": [
                {"name": c.name, "kind": c.kind, "numeric_like": c.numeric_like, "vocab": c.vocab}
                for c in self.columns
            ],
            "task": self.task,
            "n_classes": self.n_classes,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DatasetSchema":
        cols = [
            ColumnSpec(d["name"], d["kind"], d.get("numeric_like", False), d.get("vocab"))
            for d in obj["columns"]
        ]
        return cls(cols, obj.get("task"), obj.get("n_classes"))

    def fingerprint(self) -> str:
        """Stable digest of everything the model's shapes depend on."""
        canon = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class QuantileBins:
    feature: str
    boundaries: np.ndarray  # float64, finite, non-decreasing, len == n_quantiles
    n_quantiles: int

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64)
        object.__setattr__(self, "boundaries", b)
        _check_bins([self.feature], [self.n_quantiles], b)

    @classmethod
    def split(cls, features: Sequence[str], n_quantiles: Sequence[int], boundaries: np.ndarray) -> dict:
        """feature -> QuantileBins for features whose boundaries lie end to
        end, in order, in one float64 array; each gets a view of it. All are
        checked in one vectorized pass, not one numpy call per feature."""
        boundaries = np.asarray(boundaries, dtype=np.float64)
        _check_bins(features, n_quantiles, boundaries)
        out, lo = {}, 0
        for name, n_q in zip(features, n_quantiles):
            bins = out[name] = object.__new__(cls)
            vars(bins).update(feature=name, boundaries=boundaries[lo : lo + n_q], n_quantiles=n_q)
            lo += n_q
        return out


def _check_bins(features: Sequence[str], n_quantiles: Sequence[int], b: np.ndarray) -> None:
    """Raise ConfigError unless `b` holds, end to end, n_quantiles[i] >= 2
    finite, non-decreasing boundaries for each features[i]."""
    for n_q in n_quantiles:
        if n_q < 2:
            raise ConfigError(f"need n_quantiles >= 2, got {n_q}")
    ends = list(itertools.accumulate(n_quantiles))
    total = ends[-1] if ends else 0
    if len(b) != total:
        who = features[0] if len(features) == 1 else f"{len(features)} features"
        raise ConfigError(f"{who}: {len(b)} boundaries for n_quantiles={total}")
    bad = ~np.isfinite(b)
    if bad.any():
        raise ConfigError(f"{features[bisect.bisect(ends, bad.argmax())]}: boundaries must be finite")
    drop = b[1:] < b[:-1]
    drop[np.array(ends[:-1], dtype=np.intp) - 1] = False  # a feature's first boundary vs the one before
    if drop.any():
        raise ConfigError(f"{features[bisect.bisect(ends, drop.argmax())]}: boundaries must be non-decreasing")


@dataclass(frozen=True)
class TargetNormalizer:
    mean: float
    std: float  # population std of the train targets
    eps: float = NORMALIZER_EPS

    def normalize(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=np.float64) - self.mean) / (self.std + self.eps)

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=np.float64) * (self.std + self.eps) + self.mean


class Table:
    """Column-major raw table; cells are strings, missing cells are None."""

    def __init__(self, order: list[str], columns: dict[str, list]):
        self.order = list(order)
        self.columns = columns
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise IngestionError(f"column lengths differ: {sorted(lengths)}")
        self.n_rows = lengths.pop() if lengths else 0

    @classmethod
    def from_rows(cls, header: Sequence[str], rows: Sequence[Sequence]) -> "Table":
        cols = {name: [] for name in header}
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise IngestionError(f"row {i} has {len(row)} cells, header has {len(header)}")
            for name, cell in zip(header, row):
                cell = None if cell is None or cell == "" else str(cell)
                cols[name].append(cell)
        return cls(list(header), cols)

    def select(self, indices: np.ndarray) -> "Table":
        idx = np.asarray(indices).tolist()
        return Table(self.order, {name: [col[i] for i in idx] for name, col in self.columns.items()})

    def column(self, name: str) -> list:
        return self.columns[name]


def _parse_numeric(cells: list) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Parse one column -> (float64 values, 0 where missing; missing mask).

    An empty cell, NaN and infinity count as missing. None if float()
    rejects a cell; `_first_fault` then finds which.
    """
    try:
        values = np.array([math.nan if c is None else float(c) for c in cells], dtype=np.float64)
    except ValueError:
        return None
    missing = ~np.isfinite(values)
    values[missing] = 0.0
    return values, missing


def _first_fault(cells: list, allow_missing: bool) -> tuple[int, bool]:
    """Error path of `_parse_numeric`: (row, is_missing) of the first cell
    that float() rejects or, unless allow_missing, that counts as missing."""
    for i, c in enumerate(cells):
        try:
            finite = c is not None and math.isfinite(float(c))
        except ValueError:
            return i, False
        if not (finite or allow_missing):
            return i, True
    raise ContractError("column has no faulty cell")


def _not_numeric(label: str, cells: list, row: int) -> SchemaError:
    return SchemaError(f"{label}, row {row}: {cells[row]!r} is not numeric")


def read_table(path) -> Table:
    """Read a CSV into a raw Table; no schema inference.

    Used directly when the schema is already known (prediction against a
    fitted model, where the target column may legitimately be absent).
    """
    try:
        # utf-8-sig drops the byte-order mark spreadsheet "CSV UTF-8" exports start with
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header is None:
                    raise IngestionError(f"{path}: empty file")
                rows = []
                for lineno, row in enumerate(reader, start=2):
                    if len(row) != len(header):
                        raise IngestionError(
                            f"{path}: line {lineno} has {len(row)} fields, header has {len(header)}"
                        )
                    rows.append(row)
            except csv.Error as e:
                raise IngestionError(f"{path}: line {reader.line_num}: {e}") from e
    except OSError as e:
        raise IngestionError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise IngestionError(f"{path} is not valid UTF-8: {e}") from e

    if not rows:
        raise IngestionError(f"{path}: no data rows")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise IngestionError(f"{path}: duplicate column names {dupes}")

    # csv yields str cells: transpose once, "" -> None
    return Table(header, {name: [c or None for c in col] for name, col in zip(header, zip(*rows))})


def load_csv(
    path,
    schema_hint: Optional[dict] = None,
    task: Optional[str] = None,
) -> tuple[DatasetSchema, Table]:
    """Read a CSV into a raw Table and infer its schema.

    schema_hint maps column names to "numerical" / "categorical" / "target",
    overriding inference for those columns. Without a "target" hint the last
    column is the target. `task` forces regression/classification; left out,
    it is inferred from whether the target values parse as floats.
    """
    table = read_table(path)
    schema = infer_schema(table, schema_hint=schema_hint, task=task)
    return schema, table


def infer_schema(
    table: Table,
    schema_hint: Optional[dict] = None,
    task: Optional[str] = None,
) -> DatasetSchema:
    hint = dict(schema_hint or {})
    for name, kind in hint.items():
        if name not in table.columns:
            raise SchemaError(f"schema hint names unknown column {name!r}")
        if kind not in (KIND_NUMERICAL, KIND_CATEGORICAL, KIND_TARGET):
            raise SchemaError(f"schema hint for {name!r}: unknown kind {kind!r}")

    hinted_targets = [n for n, k in hint.items() if k == KIND_TARGET]
    if len(hinted_targets) > 1:
        raise SchemaError(f"schema hint names multiple targets: {hinted_targets}")
    if not table.order:
        raise SchemaError("table has no columns")
    target_name = hinted_targets[0] if hinted_targets else table.order[-1]

    columns = []
    for name in table.order:
        cells = table.column(name)
        numeric_like = cells.count(None) < len(cells) and _parse_numeric(cells) is not None
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
    elif task not in (TASK_REGRESSION, TASK_CLASSIFICATION):
        raise ConfigError(f"unknown task {task!r}")
    if task == TASK_REGRESSION and not target.numeric_like:
        raise SchemaError(
            f"target column {target.name!r} does not parse as numbers; regression impossible"
        )

    schema = DatasetSchema(columns, task=task)
    schema.validate()
    return schema


# ---------------------------------------------------------------------------
# splitting


def check_count(name: str, value, least: int) -> None:
    """A ConfigError unless value is an integer >= least (a numpy one too),
    not a bool: every public function that takes a seed or a count checks
    it, so numpy's or Python's ValueError or TypeError for a bad one never
    reaches the caller, and a fractional count never passes silently."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def check_seed(seed) -> None:
    check_count("seed", seed, 0)


def split(
    table: Table,
    schema: DatasetSchema,
    fractions: Sequence[float],
    seed: int,
) -> dict[str, Table]:
    """Deterministic shuffled partition into train/val/test.

    Classification tables are stratified: each class is shuffled and cut
    separately, so split class ratios track the global ratio. Sizes follow
    cumulative floor cuts: 10 rows at (0.6, 0.2, 0.2) -> 6/2/2.
    """
    given = fractions
    try:
        fractions = tuple(given)
    except TypeError:
        fractions = ()
    if len(fractions) != 3 or any(isinstance(f, bool) or not isinstance(f, numbers.Real) for f in fractions):
        raise ConfigError(f"fractions must be 3 numbers (train, val, test), got {given!r}")
    if not all(f > 0 for f in fractions):  # NaN included
        raise ConfigError(f"fractions must be positive, got {tuple(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got sum {sum(fractions)}")
    check_seed(seed)

    rng = np.random.default_rng(seed)
    n = table.n_rows

    def cut(indices: np.ndarray) -> tuple[list, list, list]:
        k = len(indices)
        c1 = math.floor(k * fractions[0])
        c2 = math.floor(k * (fractions[0] + fractions[1]))
        return list(indices[:c1]), list(indices[c1:c2]), list(indices[c2:])

    if schema.task == TASK_CLASSIFICATION:
        labels = table.column(schema.target.name)
        groups: dict = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
        parts: tuple[list, list, list] = ([], [], [])
        for lab in groups:  # first-appearance order (dict is ordered)
            idx = np.asarray(groups[lab])
            idx = idx[rng.permutation(len(idx))]
            for bucket, piece in zip(parts, cut(idx)):
                bucket.extend(piece)
    else:
        parts = cut(rng.permutation(n))

    names = ("train", "val", "test")
    for name, part in zip(names, parts):
        if not part:
            raise ConfigError(f"split produced an empty {name} set ({n} rows, {tuple(fractions)})")
    return {name: table.select(np.asarray(part)) for name, part in zip(names, parts)}


# ---------------------------------------------------------------------------
# fitting (train split only)


def fit_quantiles(values: np.ndarray, n_quantiles: int, feature: str = "") -> QuantileBins:
    """Empirical quantiles at levels i/(n_quantiles-1), linear interpolation."""
    check_count("n_quantiles", n_quantiles, 2)
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise FitError(f"column {feature!r}: no non-missing values to fit quantiles on")
    levels = np.linspace(0.0, 1.0, n_quantiles)
    with np.errstate(over="ignore", invalid="ignore"):
        boundaries = np.quantile(vals, levels)
    if not np.all(np.isfinite(boundaries)):
        raise FitError(f"column {feature!r}: its value range overflows float64 quantiles")
    return QuantileBins(feature, boundaries, n_quantiles)


def fit_target_normalizer(targets: np.ndarray) -> TargetNormalizer:
    y = np.asarray(targets, dtype=np.float64)
    return TargetNormalizer(mean=float(y.mean()), std=float(y.std()))


@dataclass(frozen=True)
class Preprocessing:
    """Everything fitted on the train split; immutable afterwards."""

    schema: DatasetSchema
    bins: dict[str, QuantileBins]
    normalizer: Optional[TargetNormalizer]


def _column(table: Table, name: str) -> list:
    if name not in table.columns:
        raise SchemaError(f"table lacks expected column {name!r}")
    return table.column(name)


def _numeric_feature(name: str, cells: list) -> tuple[np.ndarray, np.ndarray]:
    parsed = _parse_numeric(cells)
    if parsed is None:
        raise _not_numeric(f"column {name!r}", cells, _first_fault(cells, True)[0])
    return parsed


def _regression_target(name: str, cells: list, missing_value: Callable[[int], str]) -> np.ndarray:
    """A regression target column as float64; the first missing cell raises
    SchemaError(missing_value(row)), unless a cell float() rejects comes first."""
    parsed = _parse_numeric(cells)
    if parsed is not None and not parsed[1].any():
        return parsed[0]
    row, is_missing = _first_fault(cells, False)
    if is_missing:
        raise SchemaError(missing_value(row))
    raise _not_numeric(f"target column {name!r}", cells, row)


def fit_preprocessing(schema: DatasetSchema, train: Table, n_quantiles: int) -> Preprocessing:
    """Fit vocabularies, quantile bins and the target normalizer on train."""
    fitted_cols = []
    bins: dict[str, QuantileBins] = {}
    n_classes = schema.n_classes
    for col in schema.columns:
        cells = train.column(col.name)
        if col.kind == KIND_NUMERICAL:
            vals, missing = _numeric_feature(col.name, cells)
            bins[col.name] = fit_quantiles(vals[~missing], n_quantiles, feature=col.name)
            fitted_cols.append(ColumnSpec(col.name, col.kind, col.numeric_like, None))
        elif col.kind == KIND_CATEGORICAL:
            vocab = [c for c in dict.fromkeys(cells) if c is not None]  # first-appearance order
            fitted_cols.append(ColumnSpec(col.name, col.kind, col.numeric_like, vocab))
        else:  # target
            if schema.task == TASK_CLASSIFICATION:
                vocab = list(dict.fromkeys(cells))
                if None in vocab:
                    raise SchemaError(f"target column {col.name!r} has missing values")
                n_classes = len(vocab)
                if n_classes < 2:
                    raise SchemaError(
                        f"classification target {col.name!r} has {n_classes} class(es) in train"
                    )
                fitted_cols.append(ColumnSpec(col.name, col.kind, col.numeric_like, vocab))
            else:
                fitted_cols.append(ColumnSpec(col.name, col.kind, col.numeric_like, None))

    normalizer = None
    if schema.task == TASK_REGRESSION:
        tcol = schema.target.name
        y = _regression_target(
            tcol, train.column(tcol), lambda row: f"target column {tcol!r} has missing values"
        )
        normalizer = fit_target_normalizer(y)

    fitted = DatasetSchema(fitted_cols, task=schema.task, n_classes=n_classes)
    fitted.validate()
    return Preprocessing(schema=fitted, bins=bins, normalizer=normalizer)


# ---------------------------------------------------------------------------
# encoding


@dataclass
class EncodedSplit:
    """One split as dense matrices, feature-aligned with the schema."""

    numeric: np.ndarray  # [rows, n_numerical] float64, 0 where missing
    numeric_missing: np.ndarray  # [rows, n_numerical] bool
    categorical: np.ndarray  # [rows, n_categorical] int64
    target: Optional[np.ndarray]  # float64 (regression) / int64 class ids
    n_rows: int


def encode(prep: Preprocessing, table: Table) -> EncodedSplit:
    """Map raw cells to matrices using the fitted preprocessing."""
    schema = prep.schema
    n = table.n_rows
    num_cols = schema.numerical_features
    cat_cols = schema.categorical_features

    numeric = np.zeros((n, len(num_cols)), dtype=np.float64)
    missing = np.zeros((n, len(num_cols)), dtype=bool)
    for j, col in enumerate(num_cols):
        numeric[:, j], missing[:, j] = _numeric_feature(col.name, _column(table, col.name))

    categorical = np.zeros((n, len(cat_cols)), dtype=np.int64)
    for j, col in enumerate(cat_cols):
        lookup = {cat: i for i, cat in enumerate(col.vocab)}
        lookup[None] = col.masked_id
        unk = col.unk_id
        categorical[:, j] = [lookup.get(c, unk) for c in _column(table, col.name)]

    target = None
    tname = schema.target.name
    if tname in table.columns:
        cells = table.column(tname)
        if schema.task == TASK_REGRESSION:
            target = _regression_target(
                tname, cells, lambda row: f"target column {tname!r}, row {row}: missing value"
            )
        else:
            lookup = {lab: i for i, lab in enumerate(schema.target.vocab)}
            ids = [lookup.get(c, -1) for c in cells]
            if -1 in ids:
                i = ids.index(-1)
                if cells[i] is None:
                    raise SchemaError(f"target column {tname!r}, row {i}: missing value")
                raise SchemaError(
                    f"target column {tname!r}, row {i}: label {cells[i]!r} unseen in train"
                )
            target = np.array(ids, dtype=np.int64)

    return EncodedSplit(numeric, missing, categorical, target, n)


def take_rows(split_: EncodedSplit, idx: np.ndarray) -> EncodedSplit:
    return EncodedSplit(
        split_.numeric[idx],
        split_.numeric_missing[idx],
        split_.categorical[idx],
        None if split_.target is None else split_.target[idx],
        len(idx),
    )


Batch = EncodedSplit  # a batch is just a small split


def make_batches(
    split_: EncodedSplit,
    batch_size: int,
    seed: int,
    epoch: int,
) -> Iterator[Batch]:
    """Deterministic per-(seed, epoch) shuffle; last partial batch kept."""
    check_count("batch_size", batch_size, 1)
    check_seed(seed)
    check_count("epoch", epoch, 0)
    order = np.random.default_rng([seed, epoch]).permutation(split_.n_rows)
    for start in range(0, split_.n_rows, batch_size):
        yield take_rows(split_, order[start : start + batch_size])


# ---------------------------------------------------------------------------
# one-call convenience used by training, the CLI and the demos


@dataclass
class PreparedData:
    prep: Preprocessing
    splits: dict[str, EncodedSplit]


def prepare(
    path,
    n_quantiles: int,
    fractions: Sequence[float] = (0.6, 0.2, 0.2),
    seed: int = 0,
    schema_hint: Optional[dict] = None,
    task: Optional[str] = None,
) -> PreparedData:
    schema, table = load_csv(path, schema_hint=schema_hint, task=task)
    parts = split(table, schema, fractions, seed)
    prep = fit_preprocessing(schema, parts["train"], n_quantiles)
    return PreparedData(
        prep=prep,
        splits={name: encode(prep, part) for name, part in parts.items()},
    )
