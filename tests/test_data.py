import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulenet import data as D
from rulenet.errors import ConfigError, FitError, IngestionError, RuleNetError, SchemaError

from oracles import ref_encode, ref_fit_preprocessing, ref_infer_schema


def _write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# load_csv


def test_load_csv_mixed_types(tmp_path):
    p = _write_csv(
        tmp_path / "t.csv",
        "age,city,y\n30,a,1.0\n41,b,2.0\n,a,3.0\n",
    )
    schema, table = D.load_csv(p)
    kinds = {c.name: c.kind for c in schema.columns}
    assert kinds == {"age": "numerical", "city": "categorical", "y": "target"}
    assert schema.task == "regression"
    assert table.column("age") == ["30", "41", None]
    assert table.column("city") == ["a", "b", "a"]


def test_load_csv_all_numeric(tmp_path):
    p = _write_csv(tmp_path / "t.csv", "a,b,y\n1,2,3\n4,5,6\n")
    schema, _ = D.load_csv(p)
    assert schema.categorical_features == []
    assert len(schema.numerical_features) == 2


def test_load_csv_failed_parse_is_categorical(tmp_path):
    p = _write_csv(tmp_path / "t.csv", "c,y\n1,0\n2,0\nx,1\n")
    schema, _ = D.load_csv(p)
    assert schema.columns[0].kind == "categorical"


def test_load_csv_ragged_row(tmp_path):
    p = _write_csv(tmp_path / "t.csv", "a,b,y\n1,2,3\n4,5\n")
    with pytest.raises(IngestionError) as exc:
        D.load_csv(p)
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize(
    "rows,message",
    [([["1", "1", "9"], ["2", "2"]], "row 0 has 3 cells"), ([["1", "1"], ["2"]], "row 1 has 1 cells")],
    ids=["long", "short"],
)
def test_from_rows_ragged_row_names_the_row(rows, message):
    with pytest.raises(IngestionError, match=f"{message}, header has 2"):
        D.Table.from_rows(["a", "y"], rows)


def test_load_csv_oversized_field_names_path_and_line(tmp_path):
    big = "x" * (csv.field_size_limit() + 1)
    p = _write_csv(tmp_path / "t.csv", f"a,y\n1,2\n{big},3\n")
    with pytest.raises(IngestionError) as exc:
        D.read_table(p)
    assert str(p) in str(exc.value) and "line 3" in str(exc.value)


def test_load_csv_blank_header_line_is_a_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        D.load_csv(_write_csv(tmp_path / "t.csv", "\n\n"))


def test_load_csv_empty_and_headerless(tmp_path):
    with pytest.raises(IngestionError):
        D.load_csv(_write_csv(tmp_path / "e.csv", ""))
    with pytest.raises(IngestionError):
        D.load_csv(_write_csv(tmp_path / "h.csv", "a,b,y\n"))


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(IngestionError):
        D.load_csv(tmp_path / "nope.csv")


def test_load_csv_duplicate_columns(tmp_path):
    with pytest.raises(IngestionError):
        D.load_csv(_write_csv(tmp_path / "d.csv", "a,a,y\n1,2,3\n"))


def test_read_table_drops_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    text = "x,city,y\n1,a,2\n,b,4\n"
    plain = D.read_table(_write_csv(tmp_path / "plain.csv", text))
    bom = D.read_table(_write_csv(tmp_path / "bom.csv", "\ufeff" + text))
    assert bom.order == plain.order == ["x", "city", "y"]
    assert bom.columns == plain.columns
    schema, _ = D.load_csv(tmp_path / "bom.csv", schema_hint={"x": "target"})
    assert schema.target.name == "x"


def test_schema_hint_overrides(tmp_path):
    p = _write_csv(tmp_path / "t.csv", "code,y\n1,0.5\n2,0.25\n", )
    schema, _ = D.load_csv(p, schema_hint={"code": "categorical"})
    assert schema.columns[0].kind == "categorical"


def test_forced_classification_on_integer_labels(tmp_path):
    p = _write_csv(tmp_path / "t.csv", "a,y\n1.0,0\n2.0,1\n3.0,0\n")
    schema, _ = D.load_csv(p, task="classification")
    assert schema.task == "classification"


def test_nan_cells_stay_numerical_but_missing(tmp_path):
    p = _write_csv(tmp_path / "t.csv", "a,y\nnan,1\n2.5,2\ninf,3\n")
    schema, table = D.load_csv(p)
    assert schema.columns[0].kind == "numerical"
    prep = D.fit_preprocessing(schema, table, n_quantiles=2)
    enc = D.encode(prep, table)
    assert enc.numeric_missing[:, 0].tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# split


def _toy_table(n, seed=0, classes=None):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = classes[i] if classes else f"{rng.random():.6f}"
        rows.append([f"{rng.random():.6f}", label])
    return D.Table.from_rows(["x", "y"], rows)


def test_split_sizes_and_reproducibility():
    table = _toy_table(10)
    schema = D.infer_schema(table)
    parts1 = D.split(table, schema, (0.6, 0.2, 0.2), seed=7)
    parts2 = D.split(table, schema, (0.6, 0.2, 0.2), seed=7)
    assert [parts1[k].n_rows for k in ("train", "val", "test")] == [6, 2, 2]
    for k in parts1:
        assert parts1[k].column("x") == parts2[k].column("x")


def test_split_bad_fractions():
    table = _toy_table(10)
    schema = D.infer_schema(table)
    with pytest.raises(ConfigError):
        D.split(table, schema, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ConfigError):
        D.split(table, schema, (0.8, 0.2, -0.0), seed=0)


def test_split_empty_part_rejected():
    table = _toy_table(3)
    schema = D.infer_schema(table)
    with pytest.raises(ConfigError):
        D.split(table, schema, (0.9, 0.05, 0.05), seed=0)


def test_split_stratified_ratios():
    classes = ["a"] * 70 + ["b"] * 30
    table = _toy_table(100, classes=classes)
    schema = D.infer_schema(table, task="classification")
    parts = D.split(table, schema, (0.6, 0.2, 0.2), seed=3)
    for name, part in parts.items():
        labels = part.column("y")
        n_a = labels.count("a")
        # class ratio within one sample of the global 70%
        assert abs(n_a - 0.7 * part.n_rows) <= 1, (name, n_a, part.n_rows)


def test_split_is_a_partition():
    table = _toy_table(37)
    schema = D.infer_schema(table)
    parts = D.split(table, schema, (0.5, 0.25, 0.25), seed=11)
    seen = sorted(x for p in parts.values() for x in p.column("x"))
    assert seen == sorted(table.column("x"))


# ---------------------------------------------------------------------------
# quantiles


def test_fit_quantiles_frozen_example():
    bins = D.fit_quantiles(np.arange(100, dtype=float), 5)
    np.testing.assert_allclose(bins.boundaries, [0.0, 24.75, 49.5, 74.25, 99.0])


def test_fit_quantiles_two_is_min_max():
    vals = np.array([3.0, -1.0, 10.0, 4.0])
    bins = D.fit_quantiles(vals, 2)
    np.testing.assert_array_equal(bins.boundaries, [-1.0, 10.0])


def test_fit_quantiles_constant_column():
    bins = D.fit_quantiles(np.full(20, 5.5), 4)
    np.testing.assert_array_equal(bins.boundaries, [5.5] * 4)


def test_fit_quantiles_rejects_empty_and_small_nq():
    with pytest.raises(FitError):
        D.fit_quantiles(np.array([]), 3)
    with pytest.raises(ConfigError):
        D.fit_quantiles(np.array([1.0, 2.0]), 1)


def test_fit_quantiles_overflowing_range_is_a_fit_error():
    with pytest.raises(FitError, match="'wide'"):
        D.fit_quantiles(np.array([-1.7e308, 1.7e308]), 3, feature="wide")
    table = D.Table.from_rows(["a", "y"], [["-1.7e308", "1"], ["1.7e308", "2"]])
    with pytest.raises(FitError, match="'a'"):
        D.fit_preprocessing(D.infer_schema(table), table, 3)


@pytest.mark.parametrize("bad", [[0.0, np.nan, 1.0], [-np.inf, 0.0, 1.0], [0.0, 1.0, np.inf]])
def test_quantile_bins_reject_non_finite_boundaries(bad):
    with pytest.raises(ConfigError, match="finite"):
        D.QuantileBins("f", np.array(bad), 3)


_FEATURE_BINS = st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6).map(sorted),
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(per_feature=_FEATURE_BINS, data=st.data())
def test_quantile_bins_split_matches_one_construction_per_feature(per_feature, data):
    """Mixed counts, features whose ranges overlap, and at times one spoiled
    boundary: split's one vectorized check accepts what building each
    feature's QuantileBins accepts, gives the same bins, and refuses the
    rest with the same message."""
    names = [f"f{i}" for i in range(len(per_feature))]
    counts = [len(b) for b in per_feature]
    flat = np.array([v for b in per_feature for v in b], dtype=np.float64)
    if per_feature and data.draw(st.booleans(), label="spoil"):
        at = data.draw(st.integers(0, len(flat) - 1), label="at")
        flat[at] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, -1.7e308]), label="value")
    try:
        want, lo = {}, 0
        for name, n in zip(names, counts):
            want[name] = D.QuantileBins(name, flat[lo : lo + n].copy(), n)
            lo += n
    except ConfigError as e:
        with pytest.raises(ConfigError) as refused:
            D.QuantileBins.split(names, counts, flat)
        assert str(refused.value) == str(e)
        return
    got = D.QuantileBins.split(names, counts, flat)
    assert list(got) == names
    for name, b in want.items():
        assert (got[name].feature, got[name].n_quantiles) == (b.feature, b.n_quantiles)
        assert got[name].boundaries.tobytes() == b.boundaries.tobytes()


@pytest.mark.parametrize(
    "counts,match", [([3, 1], "n_quantiles >= 2"), ([3, 4], "2 features: 6 boundaries for n_quantiles=7")]
)
def test_quantile_bins_split_refuses_counts_that_do_not_fit(counts, match):
    with pytest.raises(ConfigError, match=match):
        D.QuantileBins.split(["a", "b"], counts, np.arange(6.0))


def _segment_of(x, boundaries):
    """Independent oracle: largest i with q_i <= x, clamped to a valid segment."""
    n_q = len(boundaries)
    i = 0
    for k in range(n_q):
        if boundaries[k] <= x:
            i = k
    return min(max(i, 0), n_q - 2)


@pytest.mark.parametrize("n,n_q", [(1000, 2), (1000, 3), (1000, 5), (997, 5), (640, 11)])
def test_quantiles_equal_population(n, n_q):
    rng = np.random.default_rng(n * 31 + n_q)
    vals = rng.standard_normal(n)
    assert len(np.unique(vals)) == n  # distinct by construction
    bins = D.fit_quantiles(vals, n_q)
    counts = np.zeros(n_q - 1, dtype=int)
    for x in vals:
        counts[_segment_of(x, bins.boundaries)] += 1
    expected = n / (n_q - 1)
    assert np.abs(counts - expected).max() <= 1, counts


# ---------------------------------------------------------------------------
# target normalizer


def test_normalizer_frozen_example():
    nz = D.fit_target_normalizer(np.array([0.0, 2.0]))
    assert nz.mean == 1.0
    assert nz.std == 1.0  # population std


def test_normalizer_constant_targets_guarded():
    nz = D.fit_target_normalizer(np.full(5, 3.0))
    assert nz.std == 0.0
    out = nz.normalize(np.array([3.0, 4.0]))
    assert np.isfinite(out).all()


def test_normalizer_roundtrip():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(50) * 13.0 + 4.0
    nz = D.fit_target_normalizer(y)
    back = nz.denormalize(nz.normalize(y))
    assert np.abs((back - y) / y).max() < 1e-6


# ---------------------------------------------------------------------------
# preprocessing + encoding


def _prepped(tmp_path, text, **kw):
    p = _write_csv(tmp_path / "d.csv", text)
    schema, table = D.load_csv(p, **kw)
    prep = D.fit_preprocessing(schema, table, n_quantiles=3)
    return prep, table


def test_categorical_missing_and_unseen_ids(tmp_path):
    prep, _ = _prepped(tmp_path, "c,y\nred,1\nblue,2\nred,3\n")
    col = prep.schema.categorical_features[0]
    assert col.vocab == ["red", "blue"]
    assert col.unk_id == 2 and col.masked_id == 3

    fresh = D.Table.from_rows(["c", "y"], [["green", "1"], ["", "2"], ["blue", "3"]])
    enc = D.encode(prep, fresh)
    assert enc.categorical[:, 0].tolist() == [col.unk_id, col.masked_id, 1]


def test_classification_labels_by_first_appearance(tmp_path):
    prep, table = _prepped(
        tmp_path, "x,y\n1,cat\n2,dog\n3,cat\n4,bird\n", task="classification"
    )
    assert prep.schema.target.vocab == ["cat", "dog", "bird"]
    assert prep.schema.n_classes == 3
    enc = D.encode(prep, table)
    assert enc.target.tolist() == [0, 1, 0, 2]


def test_unseen_target_label_rejected(tmp_path):
    prep, _ = _prepped(tmp_path, "x,y\n1,a\n2,b\n", task="classification")
    fresh = D.Table.from_rows(["x", "y"], [["1", "c"]])
    with pytest.raises(SchemaError):
        D.encode(prep, fresh)


def test_no_leakage_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    rows = [[f"{rng.random():.8f}", rng.choice(["u", "v", "w"]), f"{rng.random():.8f}"] for _ in range(60)]
    p = _write_csv(
        tmp_path / "d.csv",
        "a,b,y\n" + "\n".join(",".join(r) for r in rows) + "\n",
    )
    schema, table = D.load_csv(p)
    parts = D.split(table, schema, (0.5, 0.25, 0.25), seed=2)
    prep = D.fit_preprocessing(schema, parts["train"], n_quantiles=4)
    again = D.fit_preprocessing(schema, parts["train"], n_quantiles=4)
    assert np.array_equal(prep.bins["a"].boundaries, again.bins["a"].boundaries)
    assert prep.schema.to_json() == again.schema.to_json()
    assert prep.normalizer == again.normalizer
    # and the fingerprint is stable
    assert prep.schema.fingerprint() == again.schema.fingerprint()


def test_all_missing_numeric_column_fit_error(tmp_path):
    p = _write_csv(tmp_path / "d.csv", "a,y\n,1\n,2\n")
    schema, table = D.load_csv(p, schema_hint={"a": "numerical"})
    with pytest.raises(FitError):
        D.fit_preprocessing(schema, table, n_quantiles=2)


def test_encode_non_numeric_cell_names_column_and_row(tmp_path):
    prep, _ = _prepped(tmp_path, "a,c,y\n1,u,1\n2,v,2\n3,u,3\n")
    fresh = D.Table.from_rows(["a", "c", "y"], [["4", "u", "1"], ["", "v", "2"], [" x", "u", "3"]])
    with pytest.raises(SchemaError) as exc:
        D.encode(prep, fresh)
    assert str(exc.value) == "column 'a', row 2: ' x' is not numeric"


def test_non_numeric_regression_target_is_a_schema_error(tmp_path):
    prep, _ = _prepped(tmp_path, "a,y\n1,1\n2,2\n3,3\n")
    fresh = D.Table.from_rows(["a", "y"], [["1", "2"], ["2", "two"], ["3", ""]])
    with pytest.raises(SchemaError) as exc:
        D.encode(prep, fresh)
    assert str(exc.value) == "target column 'y', row 1: 'two' is not numeric"


def test_hinted_numerical_text_column_fit_is_a_schema_error():
    table = D.Table.from_rows(["a", "y"], [["1", "1"], ["b", "2"]])
    schema = D.infer_schema(table, schema_hint={"a": "numerical"})
    with pytest.raises(SchemaError) as exc:
        D.fit_preprocessing(schema, table, n_quantiles=2)
    assert str(exc.value) == "column 'a', row 1: 'b' is not numeric"


# ---------------------------------------------------------------------------
# column-at-a-time parsing against the per-cell reference (tests/oracles.py)

FINITE = st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-1000, 1000).map(str))
SPECIAL = st.sampled_from(
    ["", "nan", "NaN", "inf", "-Infinity", "-0", "1e400", "-1e400", "1_000", " 2.5 ", "\t-3\n"]
)
NUMBERS = st.one_of(FINITE, SPECIAL)
TEXT = st.sampled_from(["abc", "1,5", "0x10", "1__0", "--1", " ", "\u00e9"])
CELLS = {
    "numerical": NUMBERS,
    "dirty": st.one_of([NUMBERS] * 7 + [TEXT]),
    "categorical": st.sampled_from(["", "red", "blue", " red", "1", "green"]),
}
TARGETS = {
    "regression": st.one_of([FINITE] * 8 + [st.just("-0"), SPECIAL, TEXT]),
    "classification": st.one_of([st.sampled_from(["a", "b", "c"])] * 8 + [st.just(""), st.just("d")]),
}


def _rows(kinds, task, min_size):
    row = st.tuples(*[CELLS[k] for k in kinds], TARGETS[task]).map(list)
    return st.lists(row, min_size=min_size, max_size=8)


def _outcome(fn, *args):
    """(result, None) or (None, (error type, message))."""
    try:
        return fn(*args), None
    except RuleNetError as e:
        return None, (type(e), str(e))


def _same_array(a, b):
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_encoding(a, b):
    return a.n_rows == b.n_rows and all(
        _same_array(getattr(a, f), getattr(b, f))
        for f in ("numeric", "numeric_missing", "categorical", "target")
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ingest_matches_per_cell_reference(data, tmp_path_factory):
    kinds = data.draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4))
    task = data.draw(st.sampled_from(sorted(TARGETS)))
    header = [f"f{j}" for j in range(len(kinds))] + ["y"]
    hint = data.draw(st.one_of(st.none(), st.sampled_from(["numerical", "categorical"]).map(lambda k: {"f0": k})))
    rows = data.draw(_rows(kinds, task, min_size=1))
    fresh_rows = data.draw(_rows(kinds, task, min_size=0))
    table = D.Table.from_rows(header, rows)

    # read_table's transpose agrees with from_rows on the same cells
    path = tmp_path_factory.mktemp("ingest") / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    read = D.read_table(path)
    assert read.order == table.order and read.columns == table.columns

    schema, err = _outcome(D.infer_schema, table, hint)
    ref_schema, ref_err = _outcome(ref_infer_schema, table, hint)
    assert err == ref_err
    if err:
        return
    assert schema.to_json() == ref_schema.to_json()

    prep, err = _outcome(D.fit_preprocessing, schema, table, 3)
    ref_prep, ref_err = _outcome(ref_fit_preprocessing, schema, table, 3)
    assert err == ref_err
    if err:
        return
    assert prep.schema.to_json() == ref_prep.schema.to_json()
    assert prep.bins.keys() == ref_prep.bins.keys()
    assert all(_same_array(prep.bins[k].boundaries, ref_prep.bins[k].boundaries) for k in prep.bins)
    assert repr(prep.normalizer) == repr(ref_prep.normalizer)

    # encode the fitted table and a fresh one (unseen categories, bad cells,
    # sometimes no target column) with the same preprocessing
    fresh = D.Table.from_rows(header, fresh_rows)
    if data.draw(st.booleans()):
        fresh = D.Table(header[:-1], {h: fresh.column(h) for h in header[:-1]})
    for t in (table, fresh):
        enc, err = _outcome(D.encode, prep, t)
        ref_enc, ref_err = _outcome(ref_encode, prep, t)
        assert err == ref_err
        assert err or _same_encoding(enc, ref_enc)


# ---------------------------------------------------------------------------
# error contract: any text in, a result or a RuleNetError out

_TOKENS = ["a", "b", "y", "1", "2.5", "-", "e", " ", '"', "\x00", "\ufeff", "\r", "nan", "inf", "1_0", ""]
_CELL = st.lists(st.sampled_from(_TOKENS), max_size=3).map("".join)
_TEXT = st.tuples(
    st.sampled_from(["", "\ufeff", "a,b,y\n", '"a",b,"y"\r\n']),
    st.lists(st.lists(_CELL, max_size=4).map(",".join), max_size=10).map("\n".join),
).map("".join)
_FIT_TABLE = D.Table.from_rows(["a", "b", "y"], [["1", "u", "0.5"], ["2", "v", "1.5"]])
_FITTED = D.fit_preprocessing(D.infer_schema(_FIT_TABLE), _FIT_TABLE, n_quantiles=2)


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(_TEXT.map(lambda t: t.encode("utf-8")), st.binary(max_size=60)))
def test_any_csv_ingests_or_raises_a_rulenet_error(raw, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    path.write_bytes(raw)
    for step in (
        lambda: D.prepare(path, n_quantiles=3, fractions=(0.4, 0.4, 0.2)),
        lambda: D.encode(_FITTED, D.read_table(path)),
    ):
        try:
            step()
        except RuleNetError:
            pass


# ---------------------------------------------------------------------------
# batching


def _encoded_range(n):
    """Tiny encoded split whose target is the row id."""
    return D.EncodedSplit(
        numeric=np.arange(n, dtype=np.float64)[:, None],
        numeric_missing=np.zeros((n, 1), dtype=bool),
        categorical=np.zeros((n, 0), dtype=np.int64),
        target=np.arange(n, dtype=np.float64),
        n_rows=n,
    )


def test_batches_sizes():
    sizes = [b.n_rows for b in D.make_batches(_encoded_range(10), 4, seed=0, epoch=0)]
    assert sizes == [4, 4, 2]


def test_batches_deterministic_and_epoch_dependent():
    a = [b.target.tolist() for b in D.make_batches(_encoded_range(10), 4, seed=1, epoch=0)]
    b = [b.target.tolist() for b in D.make_batches(_encoded_range(10), 4, seed=1, epoch=0)]
    c = [b.target.tolist() for b in D.make_batches(_encoded_range(10), 4, seed=1, epoch=1)]
    assert a == b
    assert a != c


def test_batches_partition_exactly():
    seen = np.concatenate(
        [b.target for b in D.make_batches(_encoded_range(23), 5, seed=3, epoch=2)]
    )
    assert sorted(seen.tolist()) == list(range(23))


def test_batches_bad_batch_size():
    with pytest.raises(ConfigError):
        list(D.make_batches(_encoded_range(4), 0, seed=0, epoch=0))
