import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulenet.tensor as T
from rulenet import data as D
from rulenet import embedding as E
from rulenet.data import Batch, ColumnSpec, DatasetSchema, Preprocessing, QuantileBins
from rulenet.ensemble import predict_point
from rulenet.errors import ConfigError, IndexRangeError, RuleNetError
from rulenet.model import RuleNetConfig, RuleNetModel
from rulenet.training import Trainer

from helpers import (
    embed_categorical,
    embed_numerical,
    feature_rows,
    feature_view,
    make_dataset,
    one_feature_block,
    tiny_config,
)
from oracles import ref_embed_row


def _bins(vals, name="x"):
    return QuantileBins(name, np.asarray(vals, dtype=np.float64), len(vals))


def _num_feat(bound_vals, embed_dim=4, seed=0, dtype=np.float64):
    """The one-feature block of the numerical feature "x"."""
    rng = np.random.default_rng(seed)
    column = ColumnSpec("x", "numerical", True, None)
    return one_feature_block(column, _bins(bound_vals), embed_dim, rng, dtype)


# ---------------------------------------------------------------------------
# locate_segments


def _locate(xs, bins):
    xs = np.asarray(xs, dtype=np.float64)
    idx, frac = E.locate_segments(xs, bins.boundaries, bins.n_quantiles)
    return idx.tolist(), frac.tolist()


def test_locate_midpoint():
    assert _locate([15.0], _bins([0, 10, 20])) == ([1], [0.5])


def test_locate_exact_boundaries():
    assert _locate([0.0, 10.0], _bins([0, 10, 20])) == ([0, 1], [0.0, 0.0])


def test_locate_clamps_out_of_range():
    assert _locate([-5.0, 25.0], _bins([0, 10, 20])) == ([0, 1], [0.0, 1.0])


def test_locate_nan_rejected():
    with pytest.raises(ValueError):
        bins = _bins([0, 1])
        E.locate_segments(np.array([0.5, float("nan")]), bins.boundaries, bins.n_quantiles)
    feat = _num_feat([0, 1])
    with pytest.raises(ValueError):
        embed_numerical(feat, np.array([float("nan")]), np.array([False]), 0.0, None)
    # a missing NaN is masked, not located
    out = embed_numerical(feat, np.array([float("nan")]), np.array([True]), 0.0, None).data
    assert np.array_equal(out[0], feature_view(feat, "x")[1])


def test_unflagged_nan_in_a_split_is_a_rulenet_error():
    # a NaN that numeric_missing does not flag is a RuleNetError, and still
    # the ValueError that locate_segments documents
    prep, enc = make_dataset(rows=16, seed=5)
    enc.numeric[3, 0] = np.nan
    tr, va = D.take_rows(enc, np.arange(12)), D.take_rows(enc, np.arange(4))
    model = RuleNetModel.build(prep, tiny_config(prep), seed=0)
    with pytest.raises(RuleNetError, match="NaN") as exc:
        predict_point(model, va)
    assert isinstance(exc.value, ValueError)
    with pytest.raises(RuleNetError, match="NaN"):
        Trainer(prep, tr, va, tiny_config(prep, epochs=1), seed=0).run_until(1)


@pytest.mark.filterwarnings("error")
def test_locate_overflowing_fraction_clips_without_a_warning():
    # (1e300 - 1e-300) / 1e-300 overflows float64; the fraction clips to 1
    assert _locate([1e300], _bins([0.0, 1e-300, 2e-300])) == ([1], [1.0])


def test_locate_zero_width_segment():
    assert _locate([5.0], _bins([0, 5, 5, 10])) == ([2], [0.0])
    assert _locate([3.0], _bins([3, 3])) == ([0], [0.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
def test_locate_always_in_bounds(xs):
    bins = _bins([-2.0, 0.5, 1.0, 7.0])
    idx, frac = E.locate_segments(np.array(xs), bins.boundaries, bins.n_quantiles)
    assert np.all((0 <= idx) & (idx <= bins.n_quantiles - 2))
    assert np.all((0.0 <= frac) & (frac <= 1.0))


# ---------------------------------------------------------------------------
# numerical embedding


def _embed(feat, xs, rate=0.0, rng=None):
    """Embed non-missing values -> [len(xs), embed_dim]; stochastic iff rng is given."""
    xs = np.asarray(xs, dtype=np.float64)
    return embed_numerical(feat, xs, np.zeros(len(xs), dtype=bool), rate, rng).data


def test_embed_at_boundary_is_exact_row():
    feat = _num_feat([0, 10, 20])
    assert np.array_equal(_embed(feat, [10.0])[0], feature_view(feat, "x")[0][1])


def test_embed_midpoint_frozen_example():
    feat = _num_feat([0, 10, 20], embed_dim=2)
    feature_view(feat, "x")[0][:] = [[9.0, 9.0], [1.0, 0.0], [0.0, 1.0]]
    np.testing.assert_allclose(_embed(feat, [15.0])[0], [0.5, 0.5], atol=1e-12)


def test_embed_mask_rate_one_always_masked():
    feat = _num_feat([0, 10, 20])
    out = _embed(feat, [0.0, 7.5, 100.0], rate=1.0, rng=np.random.default_rng(0))
    for row in out:
        assert np.array_equal(row, feature_view(feat, "x")[1])


def test_embed_masked_fraction():
    feat = _num_feat([0.0, 1.0], embed_dim=2)
    n = 100_000
    rng = np.random.default_rng(99)
    vals = np.linspace(0, 1, n)
    out = embed_numerical(feat, vals, np.zeros(n, dtype=bool), 0.1, rng).data
    frac = float((out == feature_view(feat, "x")[1]).all(axis=1).mean())
    assert abs(frac - 0.1) < 0.006


def test_missing_value_masked_even_in_eval():
    feat = _num_feat([0, 10, 20])
    out = embed_numerical(
        feat,
        np.array([3.0]), np.array([True]), 0.0, None
    ).data
    assert np.array_equal(out[0], feature_view(feat, "x")[1])


def test_masked_output_independent_of_value():
    feat = _num_feat([0, 10, 20])
    a = embed_numerical(feat, np.array([3.0]), np.array([True]), 0.0, None).data
    b = embed_numerical(feat, np.array([99.0]), np.array([True]), 0.0, None).data
    assert np.array_equal(a, b)
    assert np.array_equal(a[0], feature_view(feat, "x")[1])


def test_gradient_hits_exactly_the_used_rows():
    feat = _num_feat([0, 10, 20])
    with T.Tape() as tape:
        out = embed_numerical(feat, np.array([15.0]), np.array([False]), 0.0, None)
        loss = T.sum_all(out)
    T.backward(tape, loss)
    g, g_masked = feature_view(feat, "x", feat.table.grad)
    assert np.all(g[0] == 0.0)
    np.testing.assert_allclose(g[1], 0.5)
    np.testing.assert_allclose(g[2], 0.5)
    assert np.all(g_masked == 0.0)


def test_gradient_of_masked_value_hits_masked_vector_only():
    feat = _num_feat([0, 10, 20])
    with T.Tape() as tape:
        out = embed_numerical(feat, np.array([15.0]), np.array([True]), 0.0, None)
        loss = T.sum_all(out)
    T.backward(tape, loss)
    g, g_masked = feature_view(feat, "x", feat.table.grad)
    assert np.all(g == 0.0)
    np.testing.assert_allclose(g_masked, 1.0)


def test_continuity_at_shared_boundary():
    feat = _num_feat([0, 10, 20], seed=5)
    # limit from the left segment: f=1 of segment 0
    rows, _ = feature_rows(feat.schema, feat.bins)["x"]
    left = T.interp_rows(
        feat.table,
        np.array([rows.start]),
        np.array([rows.start + 1]),
        np.array([0.0]),
        np.array([1.0]),
    ).data[0]
    # evaluation at the boundary itself: f=0 of segment 1
    at = _embed(feat, [10.0])[0]
    assert np.array_equal(left, at)


def test_piecewise_linearity_within_segment():
    feat = _num_feat([0, 10, 20], seed=6)
    x1, x2 = 2.0, 7.0
    e1, e2, mid = _embed(feat, [x1, x2, (x1 + x2) / 2])
    assert np.abs(mid - (e1 + e2) / 2).max() < 1e-6


def test_two_quantiles_is_global_lerp():
    feat = _num_feat([-4.0, 6.0], seed=7)
    lo, hi = feature_view(feat, "x")[0]
    xs = (-4.0, -1.0, 2.5, 6.0, 11.0)
    for x, got in zip(xs, _embed(feat, xs)):
        f = min(max((x - -4.0) / 10.0, 0.0), 1.0)
        want = (1 - f) * lo + f * hi
        np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# categorical embedding


_CAT = ColumnSpec("c", "categorical", False, ["u", "v", "w"])


def _cat_feat(embed_dim=4, seed=1):
    """The one-feature block of the categorical feature "c" (vocab of 3)."""
    return one_feature_block(_CAT, None, embed_dim, np.random.default_rng(seed), np.float64)


def test_categorical_plain_lookup():
    feat = _cat_feat()
    out = embed_categorical(feat, np.array([2]), 0.0, None)
    assert np.array_equal(out.data[0], feature_view(feat, "c")[0][2])


def test_categorical_masked_id_lookup():
    feat = _cat_feat()
    out = embed_categorical(feat, np.array([_CAT.masked_id]), 0.0, None)
    assert np.array_equal(out.data[0], feature_view(feat, "c")[0][_CAT.masked_id])


def test_categorical_mask_rate_one():
    feat = _cat_feat()
    out = embed_categorical(feat, np.array([0]), 1.0, np.random.default_rng(3))
    assert np.array_equal(out.data[0], feature_view(feat, "c")[0][_CAT.masked_id])


def test_categorical_invalid_id_names_feature():
    feat = _cat_feat()
    with pytest.raises(IndexRangeError) as exc:
        embed_categorical(feat, np.array([17]), 0.0, None)
    assert "c" in str(exc.value) and "17" in str(exc.value)


# ---------------------------------------------------------------------------
# embed_row over a batch


def _tiny_prep():
    schema = DatasetSchema(
        [
            ColumnSpec("a", "numerical", True, None),
            ColumnSpec("c", "categorical", False, ["u", "v"]),
            ColumnSpec("b", "numerical", True, None),
            ColumnSpec("y", "target", True, None),
        ],
        task="regression",
    )
    bins = {
        "a": _bins([0, 1, 2], "a"),
        "b": _bins([-1, 1], "b"),
    }
    return Preprocessing(schema=schema, bins=bins, normalizer=None)


def _tiny_batch(rows=2):
    return Batch(
        numeric=np.array([[0.5, 0.0], [1.5, -0.5]][:rows]),
        numeric_missing=np.zeros((rows, 2), dtype=bool),
        categorical=np.array([[0], [1]][:rows]),
        target=None,
        n_rows=rows,
    )


def test_embed_row_stacks_in_schema_order():
    prep = _tiny_prep()
    feats = E.FeatureEmbeddings.build(prep, 4, np.random.default_rng(0), np.float64)
    out = feats.embed_row(_tiny_batch(), 0.0)
    assert out.shape == (2, 3, 4)
    # token 0 = feature "a", token 1 = "c", token 2 = "b" (file order)
    a_rows = feature_view(feats, "a")[0]
    a0 = 0.5 * a_rows[0] + 0.5 * a_rows[1]  # 0.5 is halfway along [0, 1]
    c0 = feature_view(feats, "c")[0][0]
    assert np.array_equal(out.data[0, 0], a0)
    assert np.array_equal(out.data[0, 1], c0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_build_stacks_per_feature_draws_in_init_order(dtype):
    """The table is each feature's own init draws from the shared rng, at
    the rows feature_rows derives: every numerical feature's boundary
    vectors and then its masked vector, then every categorical table."""
    prep = _tiny_prep()  # kinds interleave: a (numerical), c, b (numerical)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    feats = E.FeatureEmbeddings.build(prep, 4, got_rng, dtype)
    want = {}
    for col in prep.schema.numerical_features:
        n_q = prep.bins[col.name].n_quantiles
        want[col.name] = (want_rng.normal(0.0, 0.5, (n_q, 4)), want_rng.normal(0.0, 0.5, 4))
    for col in prep.schema.categorical_features:
        rows = want_rng.normal(0.0, 0.5, (col.table_size, 4))
        want[col.name] = (rows, rows[col.masked_id])
    for name, (rows, masked) in want.items():
        got_rows, got_masked = feature_view(feats, name)
        assert np.array_equal(got_rows, rows.astype(dtype)), name
        assert np.array_equal(got_masked, masked.astype(dtype)), name
    assert feats.table.dtype == dtype
    # no other rows: the blocks, plus one masked row per numerical feature
    n_rows = sum(len(rows) for rows, _ in want.values()) + len(prep.bins)
    assert feats.table.shape == (n_rows, 4)
    assert got_rng.random() == want_rng.random()
    assert [name for name, _ in feats.parameters()] == ["embed.table"]


def test_embed_row_deterministic_given_rng():
    prep = _tiny_prep()
    feats = E.FeatureEmbeddings.build(prep, 4, np.random.default_rng(0), np.float64)
    a = feats.embed_row(_tiny_batch(), 0.5, np.random.default_rng(11)).data
    b = feats.embed_row(_tiny_batch(), 0.5, np.random.default_rng(11)).data
    assert np.array_equal(a, b)


def test_embed_row_eval_masks_only_missing():
    prep = _tiny_prep()
    feats = E.FeatureEmbeddings.build(prep, 4, np.random.default_rng(0), np.float64)
    batch = _tiny_batch()
    batch.numeric_missing[1, 0] = True
    out = feats.embed_row(batch, 0.5).data
    a_rows, a_masked = feature_view(feats, "a")
    assert np.array_equal(out[1, 0], a_masked)
    # the non-missing cell is never masked in eval mode
    plain = 0.5 * a_rows[0] + 0.5 * a_rows[1]  # 0.5 is halfway along [0, 1]
    assert np.array_equal(out[0, 0], plain)


@st.composite
def _feature_blocks(draw):
    """A random FeatureEmbeddings and a batch for it: interleaved kinds,
    n_q per feature, missing cells (NaN, so a located one would raise)."""
    kinds = draw(st.lists(st.sampled_from("nc"), min_size=1, max_size=6))
    rows = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    value = st.floats(-100.0, 100.0, allow_subnormal=False)
    columns, bins = [], {}
    numeric, missing, ids = [], [], []
    for i, kind in enumerate(kinds):
        name = f"f{i}"
        if kind == "n":
            n_q = draw(st.integers(2, 5))
            bounds = sorted(draw(st.lists(value, min_size=n_q, max_size=n_q)))
            bins[name] = _bins(bounds, name)
            gone = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
            xs = draw(st.lists(st.floats(-150.0, 150.0), min_size=rows, max_size=rows))
            numeric.append([float("nan") if g else x for g, x in zip(gone, xs)])
            missing.append(gone)
            columns.append(ColumnSpec(name, "numerical", True, None))
        else:
            vocab = [f"v{k}" for k in range(draw(st.integers(1, 3)))]
            col = ColumnSpec(name, "categorical", False, vocab)
            cell = st.integers(0, col.table_size - 1)
            ids.append(draw(st.lists(cell, min_size=rows, max_size=rows)))
            columns.append(col)
    schema = DatasetSchema(columns + [ColumnSpec("y", "target", True, None)], task="regression")
    batch = Batch(
        numeric=np.array(numeric, dtype=np.float64).reshape(-1, rows).T,
        numeric_missing=np.array(missing, dtype=bool).reshape(-1, rows).T,
        categorical=np.array(ids, dtype=np.int64).reshape(-1, rows).T,
        target=None,
        n_rows=rows,
    )
    prep = Preprocessing(schema=schema, bins=bins, normalizer=None)
    return E.FeatureEmbeddings.build(prep, 3, rng, dtype), batch


@settings(max_examples=150, deadline=None)
@given(
    _feature_blocks(),
    st.sampled_from([0.0, 0.3, 0.5]),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_embed_row_matches_per_cell_reference(block, rate, train_mode, seed):
    feats, batch = block
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = feats.embed_row(batch, rate, got_rng if train_mode else None).data
    want = ref_embed_row(feats, batch, rate, train_mode, want_rng)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # the same number of mask draws was consumed
    assert got_rng.random() == want_rng.random()


def _two_categorical_embeddings():
    schema = DatasetSchema(
        [
            ColumnSpec("a", "numerical", True, None),
            ColumnSpec("c", "categorical", False, ["u", "v"]),
            ColumnSpec("d", "categorical", False, ["p", "q", "r"]),
            ColumnSpec("y", "target", True, None),
        ],
        task="regression",
    )
    prep = Preprocessing(schema=schema, bins={"a": _bins([0, 1, 2], "a")}, normalizer=None)
    return E.FeatureEmbeddings.build(prep, 4, np.random.default_rng(0), np.float64)


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("beyond", [0, 1, -1])
@pytest.mark.parametrize("j", [0, 1])
def test_out_of_range_id_never_reads_a_neighbouring_table(j, beyond, train_mode):
    """The tables are stacked, so an id past one feature's table would land
    in the next one's: each feature's ids are checked against its own table,
    before any are masked."""
    feats = _two_categorical_embeddings()
    feat = feats.schema.categorical_features[j]
    size = feat.table_size
    bad = -1 if beyond < 0 else size + beyond
    ids = np.array([[1, 2], [0, 1]])
    ids[1, j] = bad
    batch = Batch(np.array([[0.5], [1.5]]), np.zeros((2, 1), dtype=bool), ids, None, 2)
    with pytest.raises(IndexRangeError, match=f"'{feat.name}': id {bad} "):
        feats.embed_row(batch, 1.0, np.random.default_rng(0) if train_mode else None)


@pytest.mark.parametrize("numerical", [True, False])
def test_embed_row_tape_ops_do_not_grow_with_features(numerical):
    counts = []
    for m in (8, 128):
        n_num = m - 2 if numerical else 0
        prep, enc = make_dataset(rows=4, n_num=n_num, n_cat=m - n_num)
        feats = E.FeatureEmbeddings.build(prep, 4, np.random.default_rng(0), np.float32)
        for train_mode in (False, True):
            with T.Tape() as tape:
                feats.embed_row(enc, 0.3, np.random.default_rng(1) if train_mode else None)
            counts.append(len(tape.entries))
    assert counts == [2] * 4  # interp_rows and reshape


# ---------------------------------------------------------------------------
# rule tokens


def test_rule_tokens_unmasked_passthrough():
    rules = E.RuleEmbeddings.build(5, 4, np.random.default_rng(0), np.float64)
    out = E.rule_tokens(rules, 0.0, rng=np.random.default_rng(0))
    assert out is rules.rules


def test_rule_tokens_all_masked():
    rules = E.RuleEmbeddings.build(5, 4, np.random.default_rng(0), np.float64)
    out = E.rule_tokens(rules, 1.0, np.random.default_rng(0)).data
    for row in out:
        assert np.array_equal(row, rules.masked_rule_vector.data)


def test_rule_tokens_eval_ignores_rate():
    rules = E.RuleEmbeddings.build(5, 4, np.random.default_rng(0), np.float64)
    out = E.rule_tokens(rules, 0.5)
    assert out is rules.rules


def test_rule_tokens_mean_masked_count():
    rules = E.RuleEmbeddings.build(100, 2, np.random.default_rng(1), np.float64)
    rng = np.random.default_rng(2024)
    masked_ref = rules.masked_rule_vector.data
    total = 0
    trials = 10_000
    for _ in range(trials):
        out = E.rule_tokens(rules, 0.2, rng).data
        total += int((out == masked_ref).all(axis=1).sum())
    assert abs(total / trials - 20.0) < 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_rule_tokens_match_a_row_lookup_oracle(seed, dtype):
    # the masked vector is row n of [rules; masked], so several masked rules
    # repeat index n and its gradient sums over them
    n, e = 12, 4
    rules = E.RuleEmbeddings.build(n, e, np.random.default_rng(seed), dtype)
    swap = E._mask_draws(0.5, n, np.random.default_rng(seed))
    assert swap.sum() >= 2
    sel = np.where(swap, n, np.arange(n))
    joined = np.vstack([rules.rules.data, rules.masked_rule_vector.data[None]])
    w = np.random.default_rng(seed + 100).standard_normal((n, e)).astype(dtype)
    with T.Tape() as tape:
        tokens = E.rule_tokens(rules, 0.5, np.random.default_rng(seed))
        loss = T.sum_all(T.mul(tokens, T.Tensor(w, dtype=dtype)))
    T.backward(tape, loss)

    assert tokens.data.dtype == dtype
    assert np.array_equal(tokens.data, joined[sel])
    want = np.zeros_like(joined)
    np.add.at(want, sel, w)
    assert np.array_equal(rules.rules.grad, want[:n])
    assert np.array_equal(rules.masked_rule_vector.grad, want[n])


# ---------------------------------------------------------------------------
# masking-rate validation


def test_policy_bounds():
    RuleNetConfig(n_features=1, mask_rate=0.0, rule_mask_rate=0.5).validate()
    with pytest.raises(ConfigError, match=r"mask_rate must lie in \[0, 0.5\], got 0.6"):
        RuleNetConfig(n_features=1, mask_rate=0.6, rule_mask_rate=0.0).validate()
    with pytest.raises(ConfigError, match="rule_mask_rate"):
        RuleNetConfig(n_features=1, mask_rate=0.0, rule_mask_rate=-0.1).validate()
