import ctypes
import gc
import glob
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from rulenet import data as D
from rulenet import tensor as T
from rulenet.errors import ConfigError, ContractError
from rulenet.model import (
    activation_bytes,
    RuleNetConfig,
    RuleNetModel,
    TransformerLayer,
    encoder_only_flops,
    estimate_flops,
    parameter_count,
)
from rulenet.training import batch_loss, train

from helpers import feature_view, make_dataset, tiny_config, tiny_model
from oracles import fd_gradient, max_rel_err


# ---------------------------------------------------------------------------
# config


def _cfg(**kw):
    base = dict(n_features=8, n_rules=64, embed_dim=64, encoder_layers=2, decoder_layers=2)
    base.update(kw)
    cfg = RuleNetConfig(**base)
    cfg.validate()
    return cfg


def test_config_json_round_trip():
    cfg = _cfg(mask_rate=0.25, lr_dense=3e-4)
    assert RuleNetConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_keys():
    obj = _cfg().to_json()
    obj["momentum"] = 0.9
    with pytest.raises(ConfigError, match="momentum"):
        RuleNetConfig.from_json(obj)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError, match="divisible"):
        _cfg(embed_dim=64, n_heads=5)


def test_config_rejects_bad_rates():
    with pytest.raises(ConfigError):
        _cfg(mask_rate=0.6)
    with pytest.raises(ConfigError):
        _cfg(transformer_dropout=1.0)
    with pytest.raises(ConfigError):
        _cfg(label_smoothing=0.5)


def test_config_classification_needs_classes():
    with pytest.raises(ConfigError, match="n_classes"):
        _cfg(task=D.TASK_CLASSIFICATION, n_classes=None)


# ---------------------------------------------------------------------------
# cost model


def test_flops_reference_point():
    cfg = _cfg()  # M=8, N=64, two layers each side, e_d=64
    est = estimate_flops(cfg)
    assert est.encoder_flops == 524_288
    assert est.decoder_flops == 37_748_736
    assert est.total == 524_288 + 37_748_736


def test_flops_no_decoder_drops_rule_term():
    est = estimate_flops(_cfg(decoder_layers=0, n_rules=64))
    assert est.decoder_flops == 0
    assert est.encoder_flops == 524_288


def test_flops_wide_table_favors_rule_decoder():
    # at M=128 the rule bottleneck beats an encoder-only stack of equal depth
    mixed = _cfg(n_features=128, encoder_layers=1, decoder_layers=3)
    assert estimate_flops(mixed).total == 218_103_808
    assert encoder_only_flops(mixed) == 268_435_456
    assert estimate_flops(mixed).total < encoder_only_flops(mixed)


@pytest.mark.parametrize(
    "knob,lo,hi",
    [
        ("n_features", 8, 16),
        ("n_rules", 32, 64),
        ("encoder_layers", 1, 2),
        ("decoder_layers", 1, 2),
        ("embed_dim", 32, 64),
    ],
)
def test_flops_monotone_in_each_knob(knob, lo, hi):
    assert estimate_flops(_cfg(**{knob: hi})).total > estimate_flops(_cfg(**{knob: lo})).total


# ---------------------------------------------------------------------------
# parameter accounting


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"decoder_layers": 0},
        {"encoder_layers": 0},
        {"n_rules": 1, "n_heads": 4, "embed_dim": 16, "hidden_dim": 32},
        {"encoder_layers": 3, "decoder_layers": 2},
    ],
)
def test_parameter_count_matches_model(overrides):
    prep, _ = make_dataset(n_num=2, n_cat=2, seed=3)
    cfg = tiny_config(prep, **overrides)
    model = RuleNetModel.build(prep, cfg, seed=1)
    assert model.num_parameters() == parameter_count(prep.schema, cfg)


def test_parameter_count_classification_head():
    prep, _ = make_dataset(task="classification", n_classes=3, seed=4)
    cfg = tiny_config(prep)
    model = RuleNetModel.build(prep, cfg, seed=1)
    assert model.head.weight.shape == (cfg.embed_dim, 3)
    assert model.num_parameters() == parameter_count(prep.schema, cfg)


def test_no_decoder_means_no_rule_parameters():
    prep, _ = make_dataset(seed=5)
    model = RuleNetModel.build(prep, tiny_config(prep, decoder_layers=0), seed=1)
    assert model.rules is None
    assert not any(n.startswith("rules.") for n in model.named_parameters())


def test_parameter_groups_split_sparse_from_dense():
    model, _ = tiny_model(seed=6)
    groups = model.parameter_groups()
    sparse_names = {n for n, _ in groups["sparse"]}
    dense_names = {n for n, _ in groups["dense"]}
    assert sparse_names and dense_names
    assert all(n.startswith(("embed.", "rules.")) for n in sparse_names)
    assert not any(n.startswith(("embed.", "rules.")) for n in dense_names)
    assert len(sparse_names) + len(dense_names) == len(model.named_parameters())


# ---------------------------------------------------------------------------
# construction contracts


def test_build_rejects_feature_count_mismatch():
    prep, _ = make_dataset(seed=7)
    cfg = tiny_config(prep)
    cfg.n_features += 1
    with pytest.raises(ContractError, match="features"):
        RuleNetModel.build(prep, cfg)


def test_build_rejects_quantile_mismatch():
    prep, _ = make_dataset(seed=7, n_quantiles=4)
    cfg = tiny_config(prep, n_quantiles=5)
    with pytest.raises(ContractError, match="quantiles"):
        RuleNetModel.build(prep, cfg)


@pytest.mark.parametrize("dtype", [np.float16, np.int64, "complex64", "no such dtype", object()])
def test_build_and_train_refuse_unsupported_dtypes(dtype):
    # a model runs in float32 or float64 only: any other dtype, or a value
    # numpy cannot read as one, is refused before a parameter is made
    prep, enc = make_dataset(rows=16, seed=7)
    cfg = tiny_config(prep, epochs=1)
    with pytest.raises(ConfigError, match="dtype must be one of"):
        RuleNetModel.build(prep, cfg, dtype=dtype)
    tr, va = D.take_rows(enc, np.arange(12)), D.take_rows(enc, np.arange(12, 16))
    with pytest.raises(ConfigError, match="dtype must be one of"):
        train(prep, tr, va, cfg, dtype=dtype)


@pytest.mark.parametrize("dtype, want", [("float32", np.float32), (np.dtype(">f8"), np.float64)])
def test_build_takes_any_spelling_of_a_supported_dtype(dtype, want):
    prep, _ = make_dataset(seed=7)
    model = RuleNetModel.build(prep, tiny_config(prep), dtype=dtype)
    assert model.dtype is want
    assert all(t.data.dtype == want for t in model.named_parameters().values())


def test_build_rejects_task_mismatch():
    prep, _ = make_dataset(seed=7)
    cfg = tiny_config(prep)
    cfg.task = D.TASK_CLASSIFICATION
    cfg.n_classes = 2
    with pytest.raises(ContractError, match="task"):
        RuleNetModel.build(prep, cfg)


# ---------------------------------------------------------------------------
# forward modes and shapes


def test_regression_output_shape():
    model, batch = tiny_model(seed=8, rows=6)
    out = model.forward(batch, "eval")
    assert out.shape == (6,)


def test_classification_output_shape():
    model, batch = tiny_model(seed=9, task="classification", rows=6)
    out = model.forward(batch, "eval")
    assert out.shape == (6, 3)


def test_forward_rejects_unknown_mode():
    model, batch = tiny_model(seed=10)
    with pytest.raises(ContractError, match="mode"):
        model.forward(batch, "test")


def test_stochastic_mode_requires_rng():
    model, batch = tiny_model(seed=10)
    with pytest.raises(ContractError, match="rng"):
        model.forward(batch, "train")


def test_eval_ignores_a_passed_rng():
    model, batch = tiny_model(
        seed=11, mask_rate=0.3, rule_mask_rate=0.3, transformer_dropout=0.2, head_dropout=0.2
    )
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    got = model.forward(batch, "eval", rng=rng).data
    assert np.array_equal(got, model.forward(batch, "eval").data)
    assert rng.bit_generator.state == state
    # the same rates do draw in a rollout
    model.forward(batch, "rollout", rng=rng)
    assert rng.bit_generator.state != state


def test_eval_is_deterministic():
    model, batch = tiny_model(seed=11)
    a = model.forward(batch, "eval").data
    b = model.forward(batch, "eval").data
    assert np.array_equal(a, b)


def test_train_with_everything_off_equals_eval():
    model, batch = tiny_model(
        seed=12,
        mask_rate=0.0,
        rule_mask_rate=0.0,
        transformer_dropout=0.0,
        head_dropout=0.0,
    )
    got = model.forward(batch, "train", rng=np.random.default_rng(0)).data
    want = model.forward(batch, "eval").data
    assert np.array_equal(got, want)


def test_rollout_noise_depends_on_stream():
    model, batch = tiny_model(seed=13, mask_rate=0.5, rule_mask_rate=0.5)
    a = model.forward(batch, "rollout", rng=np.random.default_rng(1)).data
    a_again = model.forward(batch, "rollout", rng=np.random.default_rng(1)).data
    b = model.forward(batch, "rollout", rng=np.random.default_rng(2)).data
    assert np.array_equal(a, a_again)
    assert not np.array_equal(a, b)


def test_forward_without_decoder():
    model, batch = tiny_model(seed=14, decoder_layers=0, rows=5)
    assert model.forward(batch, "eval").shape == (5,)


def test_zero_encoder_layers_pass_embeddings_through():
    model, _ = tiny_model(seed=15, encoder_layers=0)
    x = T.Tensor(np.random.default_rng(0).normal(size=(2, 4, 8)))
    assert model.encoder_forward(x) is x


# ---------------------------------------------------------------------------
# architecture semantics


def test_attention_with_identical_keys_ignores_query():
    # every attention weight vector is convex, so equal values collapse to
    # the same context no matter what the query is
    rng = np.random.default_rng(16)
    layer = TransformerLayer(8, 2, 16, rng, np.float64)
    q_in = T.Tensor(rng.normal(size=(2, 3, 8)), dtype=np.float64)
    kv = T.Tensor(np.tile(rng.normal(size=(1, 1, 8)), (2, 5, 1)), dtype=np.float64)
    out = layer._attend(layer.wq(q_in), layer.wk(kv), layer.wv(kv)).data
    assert np.allclose(out, out[:, :1, :], atol=1e-12)


def test_duplicated_rule_state_cannot_change_the_pool():
    model, _ = tiny_model(seed=17)
    rng = np.random.default_rng(0)
    decoded = rng.normal(size=(3, 4, 8))
    with_dup = np.concatenate([decoded, decoded[:, :1, :]], axis=1)
    a = model.head_forward(T.Tensor(decoded, dtype=np.float64)).data
    b = model.head_forward(T.Tensor(with_dup, dtype=np.float64)).data
    assert np.array_equal(a, b)


def test_rule_order_does_not_change_predictions():
    model, batch = tiny_model(seed=18, n_rules=5)
    base = model.forward(batch, "eval").data.copy()
    perm = np.random.default_rng(1).permutation(5)
    model.rules.rules.data = model.rules.rules.data[perm].copy()
    shuffled = model.forward(batch, "eval").data
    assert max_rel_err(shuffled, base) < 1e-10


def test_feature_order_does_not_change_predictions():
    rng = np.random.default_rng(19)
    rows = [
        [f"{rng.normal():.4f}", rng.choice(["u", "v"]), f"{rng.normal():.4f}", f"{rng.normal():.4f}"]
        for _ in range(20)
    ]
    t1 = D.Table.from_rows(["a", "b", "c", "y"], rows)
    t2 = D.Table.from_rows(["c", "b", "a", "y"], [[r[2], r[1], r[0], r[3]] for r in rows])
    p1 = D.fit_preprocessing(D.infer_schema(t1), t1, 4)
    p2 = D.fit_preprocessing(D.infer_schema(t2), t2, 4)
    m1 = RuleNetModel.build(p1, tiny_config(p1), seed=0, dtype=np.float64)
    m2 = RuleNetModel.build(p2, tiny_config(p2), seed=99, dtype=np.float64)
    # same weights, feature-wise, regardless of column order
    params1 = m1.named_parameters()
    for name, t in m2.named_parameters().items():
        if name != "embed.table":
            t.data = params1[name].data.copy()
    for col in p1.schema.features:
        for dst, src in zip(feature_view(m2.features, col.name), feature_view(m1.features, col.name)):
            dst[...] = src
    # the two column orders place a and c in different rows of the table
    assert not np.array_equal(m2.features.table.data, m1.features.table.data)
    out1 = m1.forward(D.encode(p1, t1), "eval").data
    out2 = m2.forward(D.encode(p2, t2), "eval").data
    assert max_rel_err(out2, out1) < 1e-10


# ---------------------------------------------------------------------------
# decoder layer 0's rule side: once per batch, against once per row

_GRID_ROWS = (1, 7, 32)
_GRID_FEATURES = (1, 8, 128)


def _blas_kernel() -> str:
    """The name of the kernel numpy's OpenBLAS runs, as it reports it."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(lib), name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return os.environ.get("OPENBLAS_CORETYPE", "an unnamed BLAS kernel")


def _projections_match(layer, rules, rows) -> bool:
    """Whether layer 0's projections of the [N, e] rule tokens give each
    token the bits it gets in the per-row path's [rows * N, e] projections.
    A GEMM may give a row bits that depend on where the row sits in the
    call (OpenBLAS's Haswell float32 kernel: its position mod 12), and a
    single row takes gemv."""
    h = layer.norm_attn(rules)
    h_rows = layer.norm_attn(T.broadcast_rows(rules, rows))
    return all(
        np.array_equal(np.broadcast_to(proj(h).data, (rows, *h.shape)), proj(h_rows).data)
        for proj in (layer.wq, layer.wk, layer.wv)
    )


@pytest.mark.parametrize("embed_dim", [16, 64, 256])
@pytest.mark.parametrize("n_rules", [1, 2, 7, 16, 64, 256])
def test_layer0_shared_rule_side_matches_the_per_row_path(n_rules, embed_dim):
    """A seeded float32 rollout of layer 0 on the [N, e] rule tokens gives
    the bits of the same layer on those tokens broadcast to every row, for
    rows x M over the grid, wherever the projections of the tokens give them
    the same bits in both shapes. Elsewhere the two paths may differ, within
    a bound: with N = 1 and more than one row (numpy projects a single token
    with gemv, not gemm), and on a BLAS kernel whose GEMM bits depend on a
    row's position."""
    for rows, m in itertools.product(_GRID_ROWS, _GRID_FEATURES):
        rng = np.random.default_rng([n_rules, embed_dim, rows, m])
        layer = TransformerLayer(embed_dim, 4, embed_dim, rng, np.float32)
        rules = T.Tensor(rng.standard_normal((n_rules, embed_dim)), dtype=np.float32)
        memory = T.Tensor(rng.standard_normal((rows, m, embed_dim)), dtype=np.float32)
        shared = layer(rules, memory, 0.1, np.random.default_rng(0)).data
        per_row = layer(T.broadcast_rows(rules, rows), memory, 0.1, np.random.default_rng(0)).data
        assert shared.shape == per_row.shape == (rows, n_rules, embed_dim)
        if _projections_match(layer, rules, rows):
            assert np.array_equal(shared, per_row), (rows, m)
        else:
            # measured: at most 2.4e-7 relative, under SkylakeX, Haswell and SandyBridge
            err = np.abs(shared - per_row).max() / np.abs(per_row).max()
            assert err <= 1e-6, f"{err:.2e} relative at rows={rows}, M={m}, BLAS kernel {_blas_kernel()}"


def test_layer0_rule_side_is_taped_once_per_batch():
    rows, m = 8, 3
    prep, enc = make_dataset(rows=rows, n_num=m, n_cat=0, n_quantiles=RuleNetConfig.n_quantiles)
    cfg = RuleNetConfig.for_schema(prep.schema)
    model = RuleNetModel.build(prep, cfg, seed=0, dtype=np.float32)
    batch = D.take_rows(enc, np.arange(rows))
    with T.Tape() as tape:
        model.forward(batch, "train", rng=np.random.default_rng(0))

    def shapes(op, param):
        return sorted(
            rec.output.shape
            for rec in tape.entries
            if rec.op == op and any(t is param for t in rec.inputs)
        )

    n, e = cfg.n_rules, cfg.embed_dim
    first, second = model.decoder
    assert shapes("layer_norm", first.norm_attn.gain) == sorted([(n, e), (rows, m, e)])
    assert shapes("linear", first.wq.weight) == [(n, e)]
    for proj in (first.wk, first.wv):
        assert shapes("linear", proj.weight) == sorted([(n, e), (rows, m, e)])
    # the next layer's rule states differ from row to row
    assert shapes("linear", second.wq.weight) == [(rows, n, e)]


def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _arrays_reached(start) -> dict:
    """id -> root array of every array reachable from start, types aside."""
    found, seen, todo = {}, set(), [start]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            root = _root(obj)
            found[id(root)] = root
        else:
            todo.extend(gc.get_referents(obj))
    return found


def test_tape_holds_only_what_the_vjps_read():
    rows = 8
    prep, enc = make_dataset(rows=rows, n_num=8, n_cat=0, n_quantiles=RuleNetConfig.n_quantiles)
    cfg = RuleNetConfig.for_schema(prep.schema)
    model = RuleNetModel.build(prep, cfg, seed=0, dtype=np.float32)
    batch = D.take_rows(enc, np.arange(rows))
    params = {id(p.data) for p in model.named_parameters().values()}
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            loss = batch_loss(model, batch, model.forward(batch, "train", rng=np.random.default_rng(0)))
        ctx = {}
        for rec in tape.entries:
            assert isinstance(rec.output, T.Node)
            ctx.update(_arrays_reached(rec.ctx))
        reached = _arrays_reached(tape.entries)
        assert set(reached) <= params | set(ctx)
        ctx_bytes = sum(a.nbytes for k, a in ctx.items() if k not in params)
        del ctx, reached
        T.backward(tape, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond what the tape keeps: the parameters' gradients (0.9 MB) and the
    # transients of one op at a time; measured 1.35x (1.66x when the tape
    # kept every op's output and freed nothing until the sweep ended)
    assert peak <= 1.5 * ctx_bytes, (peak, ctx_bytes)


def test_no_record_keeps_attention_probabilities():
    rows = 8
    prep, enc = make_dataset(rows=rows, n_num=5, n_cat=0, n_quantiles=RuleNetConfig.n_quantiles)
    cfg = RuleNetConfig.for_schema(prep.schema, n_rules=12)
    model = RuleNetModel.build(prep, cfg, seed=0, dtype=np.float32)
    batch = D.take_rows(enc, np.arange(rows))
    with T.Tape() as tape:
        batch_loss(model, batch, model.forward(batch, "train", rng=np.random.default_rng(0)))
    h, m, n = cfg.n_heads, cfg.n_features, cfg.n_rules
    probs = {rows * h * m * m, rows * h * n * (m + n)}  # the encoder's and the decoder's
    sizes = {a.size for a in _arrays_reached([rec.ctx for rec in tape.entries]).values()}
    assert "attention" in {rec.op for rec in tape.entries}
    assert not probs & sizes


@pytest.mark.parametrize("dtype", [np.float16, np.int8, "no such dtype"])
def test_activation_bytes_refuses_the_dtypes_a_model_refuses(dtype):
    prep, _ = make_dataset(rows=4, n_num=2, n_cat=0)
    cfg = RuleNetConfig.for_schema(prep.schema, n_quantiles=4)
    with pytest.raises(ConfigError, match="dtype must be one of"):
        activation_bytes(prep.schema, cfg, 4, dtype)


@pytest.mark.parametrize(
    "rows,table,overrides,dtype",
    [
        (256, dict(n_num=8), {}, np.float32),  # narrow-train's step
        (64, dict(n_num=8), dict(decoder_layers=0), np.float64),
        (3, dict(n_num=100, n_cat=28, task="classification"), {}, np.float32),
    ],
    ids=["narrow", "no-decoder", "wide"],
)
def test_activation_bytes_is_what_a_taped_train_step_keeps(rows, table, overrides, dtype):
    prep, enc = make_dataset(rows=rows, n_cat=table.pop("n_cat", 0), n_quantiles=RuleNetConfig.n_quantiles,
                             **table)
    cfg = RuleNetConfig.for_schema(prep.schema, **overrides)
    model = RuleNetModel.build(prep, cfg, seed=0, dtype=dtype)
    batch = D.take_rows(enc, np.arange(rows))
    params = {id(p.data) for p in model.named_parameters().values()}
    with T.Tape() as tape:
        batch_loss(model, batch, model.forward(batch, "train", rng=np.random.default_rng(0)))
    kept = _arrays_reached([rec.ctx for rec in tape.entries])
    measured = sum(a.nbytes for k, a in kept.items() if k not in params)
    assert activation_bytes(prep.schema, cfg, rows, dtype) == measured


def test_gradient_reaches_rule_tokens():
    model, batch = tiny_model(seed=20, dtype=np.float64)
    with T.Tape() as tape:
        out = model.forward(batch, "eval")
        loss = T.mean_all(T.mul(out, out))
    T.backward(tape, loss)
    assert model.rules.rules.grad is not None
    assert np.abs(model.rules.rules.grad).max() > 0


# ---------------------------------------------------------------------------
# gradient verification through the whole stack

_CHECKED_PARAMS = [
    "embed.table",
    "rules.table",
    "enc.0.attn.q.weight",
    "enc.0.norm_attn.gain",
    "dec.0.ff.in.bias",
    "final_norm.bias",
    "head.weight",
    # one feature's block of embed.table: (feature, "table" rows or "masked" row)
    "embed.num.num0.table",
    "embed.num.num0.masked",
    "embed.cat.cat0.table",
]


def _checked_view(model, name, grad=False):
    """The checked parameter's data (or grad), or a feature's block of embed.table."""
    if not name.startswith("embed.") or name == "embed.table":
        t = model.named_parameters()[name]
        return t.grad if grad else t.data
    _, _, feature, part = name.split(".")
    feats = model.features
    rows, masked = feature_view(feats, feature, feats.table.grad if grad else None)
    return rows if part == "table" else masked


def _model_loss(model, batch, mode="eval", seed=None):
    rng = None if seed is None else np.random.default_rng(seed)
    out = model.forward(batch, mode, rng=rng)
    return T.mean_all(T.mul(out, out))


@pytest.mark.parametrize("name", _CHECKED_PARAMS)
def test_full_model_gradients_float64(name):
    # the batch has missing cells, so the masked vectors take part even in
    # deterministic eval mode
    model, batch = tiny_model(seed=21, dtype=np.float64, rows=4, missing_rate=0.3)
    with T.Tape() as tape:
        loss = _model_loss(model, batch)
    T.backward(tape, loss)
    got = _checked_view(model, name, grad=True).copy()
    assert np.abs(got).max() > 0, f"{name} saw no gradient; pick another seed"

    want = fd_gradient(lambda: _model_loss(model, batch).item(), _checked_view(model, name))
    assert max_rel_err(got, want) < 1e-6


def test_full_model_gradients_float64_train_mode():
    # replaying the same rng stream makes train mode differentiable too;
    # rule masking is on, so the swapped-rule vector gets checked
    model, batch = tiny_model(
        seed=23, dtype=np.float64, rows=4, mask_rate=0.4, rule_mask_rate=0.5
    )
    params = model.named_parameters()
    with T.Tape() as tape:
        loss = _model_loss(model, batch, mode="train", seed=7)
    T.backward(tape, loss)

    for name in ("rules.masked", "embed.table", "rules.table"):
        got = params[name].grad.copy()
        assert np.abs(got).max() > 0, f"{name} saw no gradient; pick another seed"
        want = fd_gradient(
            lambda: _model_loss(model, batch, mode="train", seed=7).item(),
            params[name].data,
        )
        assert max_rel_err(got, want) < 1e-6, name


def test_full_model_gradients_float32_against_float64_oracle():
    m32, batch = tiny_model(seed=22, dtype=np.float32, rows=4)
    m64, _ = tiny_model(seed=22, dtype=np.float64, rows=4)
    p64 = m64.named_parameters()
    for name, t in m32.named_parameters().items():
        p64[name].data = t.data.astype(np.float64)

    with T.Tape() as tape:
        loss = _model_loss(m32, batch)
    T.backward(tape, loss)

    for name in ("rules.table", "enc.0.attn.v.weight", "head.weight"):
        want = fd_gradient(lambda: _model_loss(m64, batch).item(), p64[name].data)
        got = m32.named_parameters()[name].grad
        assert max_rel_err(got, want) < 1e-3, name
