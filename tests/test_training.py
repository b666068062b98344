import gc
import json
import math
import weakref

import numpy as np
import pytest
from scipy.special import log_softmax as sp_log_softmax
from scipy.special import ndtr

from rulenet import tensor as T
from rulenet import training
from rulenet.data import TargetNormalizer, prepare, take_rows
from rulenet.datasets import separable_classification, step_regression, write_csv
from rulenet.ensemble import predict_point
from rulenet.errors import ConfigError, ContractError, DivergenceError, IndexRangeError
from rulenet.model import RuleNetConfig, RuleNetModel
from rulenet.training import (
    AdamW,
    Trainer,
    batch_loss,
    evaluate,
    loss_classification,
    loss_regression,
    onecycle_lr,
    predict_split,
    train,
)

from helpers import make_dataset, tiny_config, tiny_model
from oracles import (
    decoder_forward_per_row,
    fd_gradient,
    max_rel_err,
    numpy_row_sum,
    numpy_softmax_shift,
    two_pass_rmse,
)


# ---------------------------------------------------------------------------
# losses


def test_regression_loss_zero_at_perfect():
    nz = TargetNormalizer(2.0, 3.0)
    targets = np.array([1.0, 2.0, 5.0])
    pred = T.Tensor(nz.normalize(targets), dtype=np.float64)
    assert loss_regression(pred, targets, nz).item() == 0.0


def test_regression_loss_reference_value():
    nz = TargetNormalizer(1.0, 1.0)
    pred = T.Tensor([0.0, 0.0], dtype=np.float64)
    loss = loss_regression(pred, np.array([0.0, 2.0]), nz).item()
    assert abs(loss - 1.0) < 1e-6


def test_regression_loss_constant_targets_stay_finite():
    targets = np.full(4, 7.0)
    nz = TargetNormalizer(7.0, 0.0)  # eps guard carries the division
    pred = T.Tensor([0.0, 1.0, 0.0, 1.0], dtype=np.float64)
    assert math.isfinite(loss_regression(pred, targets, nz).item())


def test_regression_loss_shape_mismatch():
    nz = TargetNormalizer(0.0, 1.0)
    with pytest.raises(ContractError):
        loss_regression(T.Tensor([0.0, 1.0]), np.zeros(3), nz)


def test_classification_loss_matches_plain_ce_at_zero_smoothing():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    got = loss_classification(T.Tensor(logits, dtype=np.float64), labels, 0.0).item()
    want = -np.mean(sp_log_softmax(logits, axis=1)[np.arange(5), labels])
    assert abs(got - want) < 1e-12


def test_classification_loss_uniform_logits():
    for s in (0.0, 0.2, 0.4):
        logits = T.Tensor(np.zeros((4, 5)), dtype=np.float64)
        got = loss_classification(logits, np.array([0, 1, 2, 3]), s).item()
        assert abs(got - math.log(5)) < 1e-12


def test_classification_loss_smoothed_floor():
    # confident-correct logits: the loss cannot drop below the smoothed
    # target's cross-entropy floor, and matches a closed-form evaluation
    logits = np.array([[30.0, -30.0]])
    got = loss_classification(T.Tensor(logits, dtype=np.float64), np.array([0]), 0.4).item()
    weights = np.array([[0.8, 0.2]])
    want = float(-(weights * sp_log_softmax(logits, axis=1)).sum())
    assert abs(got - want) < 1e-12
    floor = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    assert got >= floor - 1e-12


def test_classification_loss_rejects_bad_labels():
    logits = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(IndexRangeError, match="5"):
        loss_classification(logits, np.array([0, 5]), 0.0)
    with pytest.raises(IndexRangeError):
        loss_classification(logits, np.array([-1, 0]), 0.0)


def test_classification_loss_rejects_bad_smoothing():
    with pytest.raises(ConfigError):
        loss_classification(T.Tensor(np.zeros((1, 2))), np.array([0]), 0.5)


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    logits = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
    labels = np.array([2, 0, 1, 1])
    with T.Tape() as tape:
        loss = loss_classification(logits, labels, 0.3)
    T.backward(tape, loss)
    want = fd_gradient(
        lambda: loss_classification(logits, labels, 0.3).item(), logits.data
    )
    assert max_rel_err(logits.grad, want) < 1e-8

    nz = TargetNormalizer(0.5, 2.0)
    pred = T.Tensor(rng.normal(size=6), requires_grad=True, dtype=np.float64)
    targets = rng.normal(size=6)
    with T.Tape() as tape:
        loss = loss_regression(pred, targets, nz)
    T.backward(tape, loss)
    want = fd_gradient(lambda: loss_regression(pred, targets, nz).item(), pred.data)
    assert max_rel_err(pred.grad, want) < 1e-8


# ---------------------------------------------------------------------------
# optimizer


def _toy_groups(rng, dtype=np.float64):
    dense = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True, dtype=dtype)
    sparse = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True, dtype=dtype)
    groups = {"dense": [("w", dense)], "sparse": [("embed.t", sparse)]}
    return dense, sparse, groups


def test_adamw_zero_grad_is_pure_decay_on_dense():
    rng = np.random.default_rng(2)
    dense, sparse, groups = _toy_groups(rng)
    w0 = dense.data.copy()
    s0 = sparse.data.copy()
    opt = AdamW(groups)
    dense.grad = np.zeros_like(dense.data)
    sparse.grad = np.zeros_like(sparse.data)
    opt.step(lr_dense=0.1, lr_sparse=0.1)
    assert np.allclose(dense.data, w0 * (1 - 0.1 * 0.01), atol=0, rtol=1e-12)
    assert np.array_equal(sparse.data, s0)  # sparse group: no decay at all


def test_adamw_first_step_magnitude_is_lr():
    dense = T.Tensor(np.zeros((2, 2)), requires_grad=True, dtype=np.float64)
    opt = AdamW({"dense": [("w", dense)], "sparse": []})
    dense.grad = np.ones((2, 2))
    opt.step(lr_dense=1e-3, lr_sparse=1e-3)
    assert np.allclose(dense.data, -1e-3, rtol=1e-6)


def test_adamw_moments_match_parameter_shapes():
    rng = np.random.default_rng(3)
    dense, sparse, groups = _toy_groups(rng)
    opt = AdamW(groups)
    assert opt._m["w"].shape == dense.data.shape
    assert opt._v["embed.t"].shape == sparse.data.shape


def test_adamw_missing_grad_counts_as_zero():
    rng = np.random.default_rng(4)
    dense, sparse, groups = _toy_groups(rng)
    s0 = sparse.data.copy()
    opt = AdamW(groups)
    dense.grad = np.ones_like(dense.data)
    sparse.grad = None
    opt.step(1e-3, 1e-3)
    assert np.array_equal(sparse.data, s0)


# ---------------------------------------------------------------------------
# schedule


def test_onecycle_endpoints():
    assert onecycle_lr(0, 1000, 1.0) == pytest.approx(1.0 / 25)
    assert onecycle_lr(300, 1000, 1.0) == pytest.approx(1.0)
    assert onecycle_lr(1000, 1000, 1.0) == pytest.approx(1.0 / 250000)
    assert onecycle_lr(5000, 1000, 1.0) == onecycle_lr(1000, 1000, 1.0)


def test_onecycle_rises_then_falls():
    lrs = [onecycle_lr(s, 1000, 0.01) for s in range(1001)]
    peak = int(np.argmax(lrs))
    assert peak == 300
    rise = np.diff(lrs[: peak + 1])
    fall = np.diff(lrs[peak:])
    assert (rise >= 0).all()
    assert (fall <= 0).all()
    assert min(lrs) > 0


def test_onecycle_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        onecycle_lr(0, 0, 1.0)
    with pytest.raises(ConfigError):
        onecycle_lr(0, 10, 0.0)


# ---------------------------------------------------------------------------
# single-step descent


def test_one_small_step_decreases_batch_loss(monkeypatch):
    # allow one failure in twenty: descent is only guaranteed up to
    # curvature, and a random model may sit near a kink
    monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
    failures = 0
    for trial in range(20):
        model, batch = tiny_model(seed=100 + trial, dtype=np.float64)
        opt = AdamW(model.parameter_groups())
        rng = np.random.default_rng(trial)
        with T.Tape() as tape:
            pred = model.forward(batch, "train", rng=rng)
            loss = batch_loss(model, batch, pred)
        before = loss.item()
        T.backward(tape, loss)
        opt.step(1e-5, 1e-5)
        after = batch_loss(model, batch, model.forward(batch, "eval")).item()
        if after >= before:
            failures += 1
    assert failures <= 1


# ---------------------------------------------------------------------------
# evaluate


def _zero_head(model):
    model.head.weight.data[:] = 0
    model.head.bias.data[:] = 0
    return model


def test_evaluate_mean_regressor_scores_sigma():
    # zeroed head predicts the (normalized) train mean, so RMSE is sigma_y
    prep, enc = make_dataset(rows=64, seed=40)
    model = _zero_head(tiny_model(seed=40, rows=64)[0])
    got = evaluate(model, enc)
    mean = model.prep.normalizer.mean
    want = two_pass_rmse(np.full(enc.n_rows, mean), enc.target)
    assert abs(got - want) / want < 1e-6
    assert got == pytest.approx(float(np.std(enc.target)), rel=1e-6)


def test_evaluate_rmse_matches_two_pass_oracle():
    model, batch = tiny_model(seed=41, rows=32)
    got = evaluate(model, batch)
    pred = model.prep.normalizer.denormalize(predict_split(model, batch).astype(np.float64))
    assert abs(got - two_pass_rmse(pred, batch.target)) / max(got, 1e-12) < 1e-6


def test_evaluate_accuracy_of_constant_argmax_on_balanced_labels():
    # a zeroed head ties every class; argmax resolves to class 0, so
    # accuracy on perfectly balanced labels is exactly 1/n_classes
    model, batch = tiny_model(seed=42, task="classification", rows=9)
    _zero_head(model)
    batch.target[:] = np.arange(9) % 3
    assert evaluate(model, batch) == pytest.approx(1 / 3)


def test_evaluate_rejects_a_split_of_no_rows():
    prep, enc = make_dataset(rows=12, seed=64)
    model = RuleNetModel.build(prep, tiny_config(prep), seed=64)
    empty = take_rows(enc, np.arange(0))
    assert empty.n_rows == 0 and empty.target is not None
    assert predict_split(model, empty).shape == (0,)
    with pytest.raises(ContractError, match="no rows"):
        evaluate(model, empty)


def test_evaluate_requires_targets():
    model, batch = tiny_model(seed=44)
    batch = type(batch)(batch.numeric, batch.numeric_missing, batch.categorical, None, batch.n_rows)
    with pytest.raises(ContractError, match="target"):
        evaluate(model, batch)


def test_eval_loss_invariant_to_partitioning():
    model, batch = tiny_model(seed=45, rows=30, dtype=np.float32)
    whole = batch_loss(model, batch, model.forward(batch, "eval")).item()
    pieces = 0.0
    for lo in range(0, 30, 7):
        idx = np.arange(lo, min(lo + 7, 30))
        part = take_rows(batch, idx)
        pieces += batch_loss(model, part, model.forward(part, "eval")).item() * len(idx)
    assert abs(whole - pieces / 30) / abs(whole) < 1e-5


# ---------------------------------------------------------------------------
# the loop


def _training_setup(seed=50, rows=24, **overrides):
    prep, enc = make_dataset(rows=rows, seed=seed)
    cfg = tiny_config(prep, epochs=4, batch_size=8, **overrides)
    n_train = rows * 2 // 3
    tr = take_rows(enc, np.arange(n_train))
    va = take_rows(enc, np.arange(n_train, rows))
    return prep, tr, va, cfg


def test_train_returns_best_epoch_weights():
    prep, tr, va, cfg = _training_setup()
    model, history = train(prep, tr, va, cfg, seed=1)
    assert history.epochs_run == cfg.epochs
    assert history.best_val_metric == min(history.val_metric)
    assert history.best_epoch == int(np.argmin(history.val_metric))
    # the returned weights really are the best epoch's weights
    assert evaluate(model, va) == history.best_val_metric


def test_train_is_deterministic():
    prep, tr, va, cfg = _training_setup()
    m1, h1 = train(prep, tr, va, cfg, seed=9)
    m2, h2 = train(prep, tr, va, cfg, seed=9)
    assert h1.train_loss == h2.train_loss
    assert h1.val_metric == h2.val_metric
    assert h1.lr == h2.lr
    p1, p2 = m1.named_parameters(), m2.named_parameters()
    assert all(np.array_equal(p1[n].data, p2[n].data) for n in p1)


def test_train_seed_changes_the_run():
    prep, tr, va, cfg = _training_setup()
    _, h1 = train(prep, tr, va, cfg, seed=1)
    _, h2 = train(prep, tr, va, cfg, seed=2)
    assert h1.train_loss != h2.train_loss


def test_metrics_stream_is_line_json(tmp_path):
    prep, tr, va, cfg = _training_setup()
    path = tmp_path / "metrics.jsonl"
    train(prep, tr, va, cfg, seed=3, metrics_path=path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == cfg.epochs
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert set(rec) == {"epoch", "train_loss", "val_metric", "lr"}
        assert rec["epoch"] == i
        assert math.isfinite(rec["train_loss"])


def test_trainer_runs_in_installments():
    prep, tr, va, cfg = _training_setup()
    a = Trainer(prep, tr, va, cfg, seed=4)
    a.run_until(2)
    a.run_until(cfg.epochs)
    b = Trainer(prep, tr, va, cfg, seed=4)
    b.run_until(cfg.epochs)
    assert a.history.val_metric == b.history.val_metric
    assert a.history.train_loss == b.history.train_loss
    ma, _ = a.finalize()
    mb, _ = b.finalize()
    pa, pb = ma.named_parameters(), mb.named_parameters()
    assert all(np.array_equal(pa[n].data, pb[n].data) for n in pa)


def test_trainer_clamps_to_epoch_budget():
    prep, tr, va, cfg = _training_setup()
    t = Trainer(prep, tr, va, cfg, seed=5)
    t.run_until(cfg.epochs + 50)
    assert t.history.epochs_run == cfg.epochs


def test_divergence_is_reported_with_epoch():
    prep, tr, va, cfg = _training_setup()
    t = Trainer(prep, tr, va, cfg, seed=6)
    t.model.head.weight.data[:] = np.nan
    with pytest.raises(DivergenceError) as err:
        t.run_until(1)
    assert err.value.epoch == 0


def test_a_diverged_step_frees_its_tape_at_once(monkeypatch):
    prep, tr, va, cfg = _training_setup()
    t = Trainer(prep, tr, va, cfg, seed=6)
    t.model.head.weight.data[:] = np.nan
    params = {id(p.data) for p in t.model.named_parameters().values()}
    refs = []

    class Watched(T.Tape):
        def record(self, op, inputs, output, ctx):
            super().record(op, inputs, output, ctx)
            refs.extend(weakref.ref(a) for a in (output.data, *ctx)
                        if isinstance(a, np.ndarray) and id(a) not in params)

    monkeypatch.setattr(T, "Tape", Watched)
    gc.disable()  # as the benchmark's timed calls run: no cycle may hold the tape
    try:
        try:
            t.run_until(1)
        except DivergenceError:
            pass
        else:
            pytest.fail("the step did not diverge")
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_finalize_before_any_epoch_is_an_error():
    prep, tr, va, cfg = _training_setup()
    with pytest.raises(ContractError):
        Trainer(prep, tr, va, cfg, seed=7).finalize()


def test_trainer_rejects_an_empty_train_split():
    prep, tr, va, cfg = _training_setup()
    with pytest.raises(ContractError, match="train has none"):
        Trainer(prep, take_rows(tr, np.arange(0)), va, cfg, seed=7)


def test_trainer_rejects_an_empty_val_split():
    prep, tr, va, cfg = _training_setup()
    with pytest.raises(ContractError, match="val has none"):
        Trainer(prep, tr, take_rows(va, np.arange(0)), cfg, seed=7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_validation_metric_is_divergence():
    # train loss can stay finite while predictions explode; the val
    # metric blowing up must abort the run just like a NaN loss
    prep, tr, va, cfg = _training_setup()
    va.target[:] = 1e308  # squared error overflows float64
    t = Trainer(prep, tr, va, cfg, seed=8)
    with pytest.raises(DivergenceError, match="validation"):
        t.run_until(1)


# ---------------------------------------------------------------------------
# drift of the float32 rational Phi in GELU against scipy's exact ndtr

_DRIFT_TABLES = {
    "step_regression": lambda: step_regression(rows=300, seed=4),
    "separable_classification": lambda: separable_classification(rows=300, n_features=4, seed=4),
}


def _three_epochs(tmp_path, name, dtype):
    """Val metric of each epoch and the val split's point predictions."""
    path = tmp_path / f"{name}.csv"
    write_csv(path, *_DRIFT_TABLES[name]())
    data = prepare(path, n_quantiles=16, seed=0)
    cfg = RuleNetConfig.for_schema(
        data.prep.schema, n_rules=16, embed_dim=32, n_heads=4, hidden_dim=64,
        n_quantiles=16, batch_size=16, epochs=3,
    )
    model, history = train(data.prep, data.splits["train"], data.splits["val"], cfg,
                           seed=3, dtype=dtype)
    return np.array(history.val_metric), predict_point(model, data.splits["val"])


@pytest.mark.parametrize("name", sorted(_DRIFT_TABLES))
def test_float32_phi_drifts_from_exact_ndtr_within_bounds(tmp_path, monkeypatch, name):
    metric, pred = _three_epochs(tmp_path, name, np.float32)
    monkeypatch.setattr(T, "_phi_float32", lambda x, out, z, z2: ndtr(x, out=out))
    metric_ndtr, pred_ndtr = _three_epochs(tmp_path, name, np.float32)
    assert not np.array_equal(pred, pred_ndtr)  # the patch took effect
    # measured: 4.4e-8 and 0 relative, 1.2e-6 and 2.3e-7 absolute
    assert np.abs(metric - metric_ndtr).max() <= 1e-5 * np.abs(metric_ndtr).max()
    assert np.abs(pred - pred_ndtr).max() <= 1e-4


def test_float64_training_never_calls_the_float32_phi(tmp_path, monkeypatch):
    def refuse(x):
        raise AssertionError(f"float32 Phi called on {x.dtype}")

    monkeypatch.setattr(T, "_phi_float32", refuse)
    metric, pred = _three_epochs(tmp_path, "step_regression", np.float64)
    assert pred.dtype == np.float64 and np.isfinite(metric).all()


# ---------------------------------------------------------------------------
# drift of decoder layer 0's shared rule side against the per-row path: the
# gradients of that layer's norm_attn, wq, wk and wv and of the rule tokens
# sum over the rows in another order


@pytest.mark.parametrize("name", sorted(_DRIFT_TABLES))
def test_shared_rule_side_drifts_from_the_per_row_path_within_bounds(tmp_path, monkeypatch, name):
    metric, pred = _three_epochs(tmp_path, name, np.float32)
    monkeypatch.setattr(RuleNetModel, "decoder_forward", decoder_forward_per_row)
    metric_rows, pred_rows = _three_epochs(tmp_path, name, np.float32)
    assert not np.array_equal(pred, pred_rows)  # the patch took effect
    assert np.abs(metric - metric_rows).max() <= 1e-5 * np.abs(metric_rows).max()
    assert np.abs(pred - pred_rows).max() <= 1e-4


# ---------------------------------------------------------------------------
# drift of the einsum row sums and the shift per score matrix against numpy's
# sums and a max per query: every attention and layer-norm output changes in
# its last bits


@pytest.mark.parametrize("name", sorted(_DRIFT_TABLES))
def test_einsum_row_statistics_drifts_from_numpy_reductions_within_bounds(
    tmp_path, monkeypatch, name
):
    metric, pred = _three_epochs(tmp_path, name, np.float32)
    monkeypatch.setattr(T, "_row_sum", numpy_row_sum)
    monkeypatch.setattr(T, "_softmax_shift", numpy_softmax_shift)
    metric_np, pred_np = _three_epochs(tmp_path, name, np.float32)
    assert not np.array_equal(pred, pred_np)  # the patch took effect
    # measured: 0 and 5.2e-8 relative, 1.2e-7 and 1.3e-6 absolute
    assert np.abs(metric - metric_np).max() <= 1e-5 * np.abs(metric_np).max()
    assert np.abs(pred - pred_np).max() <= 1e-4
