import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import softmax as sp_softmax

from rulenet.ensemble import (
    _softmax_rows,
    aggregate_scalar,
    predict_ensemble,
    predict_point,
)
from rulenet.errors import ConfigError

from helpers import make_dataset, tiny_config, tiny_model
from rulenet import data as D
from rulenet.model import RuleNetModel


def test_rejects_empty_ensemble():
    model, batch = tiny_model(seed=60)
    with pytest.raises(ConfigError, match=">= 1"):
        predict_ensemble(model, batch, k=0)


def test_two_rollout_reference_values():
    mean, std = aggregate_scalar(np.array([[0.4], [0.6]]))
    assert mean[0] == pytest.approx(0.5)
    assert std[0] == pytest.approx(0.1)


def test_single_rollout_has_zero_std():
    model, batch = tiny_model(seed=61, mask_rate=0.3, rule_mask_rate=0.3)
    pred = predict_ensemble(model, batch, k=1, seed=5)
    assert np.all(pred.std == 0.0)
    assert pred.k == 1


def test_deterministic_model_collapses_to_point_prediction():
    model, batch = tiny_model(seed=62)  # all stochastic elements at zero
    pred = predict_ensemble(model, batch, k=4, seed=5)
    assert np.all(pred.std == 0.0)
    assert np.array_equal(pred.mean, predict_point(model, batch))


def test_point_prediction_is_repeatable():
    model, batch = tiny_model(seed=63, mask_rate=0.2)
    assert np.array_equal(predict_point(model, batch), predict_point(model, batch))


def test_ensemble_is_deterministic_per_seed():
    model, batch = tiny_model(seed=64, mask_rate=0.3)
    a = predict_ensemble(model, batch, k=3, seed=1)
    b = predict_ensemble(model, batch, k=3, seed=1)
    c = predict_ensemble(model, batch, k=3, seed=2)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std, b.std)
    assert not np.array_equal(a.mean, c.mean)


def test_aggregation_ignores_rollout_order():
    model, batch = tiny_model(seed=65, mask_rate=0.3, rule_mask_rate=0.2)
    pred = predict_ensemble(model, batch, k=6, seed=3, keep_rollouts=True)
    perm = np.random.default_rng(0).permutation(6)
    mean, std = aggregate_scalar(pred.rollouts[perm])
    assert np.allclose(mean, pred.mean, atol=1e-12)
    assert np.allclose(std, pred.std, atol=1e-12)


def test_classification_mean_is_a_probability_vector():
    model, batch = tiny_model(seed=66, task="classification", mask_rate=0.3)
    pred = predict_ensemble(model, batch, k=5, seed=1)
    assert pred.mean.shape == (batch.n_rows, 3)
    assert (pred.mean >= 0).all()
    assert np.abs(pred.mean.sum(axis=1) - 1.0).max() < 1e-6
    assert (pred.std >= 0).all()


def test_uncertainty_grows_with_masking():
    prep, enc = make_dataset(rows=500, seed=67)
    model = RuleNetModel.build(prep, tiny_config(prep), seed=67)
    spreads = []
    for rate in (0.0, 0.1, 0.3):
        model.config.mask_rate = rate
        pred = predict_ensemble(model, enc, k=8, seed=2)
        spreads.append(float(pred.std.mean()))
    assert spreads[0] <= spreads[1] <= spreads[2]
    assert spreads[0] == 0.0


def test_ensemble_mean_converges_with_k():
    model, batch = tiny_model(seed=68, rows=8, mask_rate=0.3, rule_mask_rate=0.2)
    pred = predict_ensemble(model, batch, k=1024, seed=4, keep_rollouts=True)
    small = pred.rollouts[:256].mean(axis=0)
    bound = 3.0 * pred.std / np.sqrt(256)
    assert (np.abs(small - pred.mean) < bound).all()


def test_forward_pass_budget():
    model, batch = tiny_model(seed=69, rows=10, mask_rate=0.2)
    calls = {"n": 0}
    original = model.forward

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    model.forward = counting
    predict_point(model, batch)
    point_calls = calls["n"]
    calls["n"] = 0
    predict_ensemble(model, batch, k=5, seed=0)
    assert calls["n"] == 5 * point_calls
    assert point_calls == 1  # 10 rows fit one chunk


def _no_rows(task):
    prep, enc = make_dataset(rows=12, task=task, seed=63)
    model = RuleNetModel.build(prep, tiny_config(prep), seed=63, dtype=np.float32)
    header = [c.name for c in prep.schema.columns]
    return model, D.encode(prep, D.Table.from_rows(header, []))


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_no_rows_give_empty_predictions(task):
    model, empty = _no_rows(task)
    assert empty.n_rows == 0
    tail = () if task == "regression" else (model.config.n_classes,)
    point = predict_point(model, empty)
    assert point.shape == (0,) + tail
    pred = predict_ensemble(model, empty, k=3, seed=1)
    assert pred.mean.shape == (0,) + tail and pred.std.shape == (0,)


@st.composite
def _logits(draw):
    """[0-40, 2-9] finite logits, float32 up to 1e4 or float64 up to 1e300,
    with some rows tied (every class the same)."""
    dtype, bound = draw(st.sampled_from([(np.float32, 1e4), (np.float64, 1e300)]))
    shape = (draw(st.integers(0, 40)), draw(st.integers(2, 9)))
    width = np.dtype(dtype).itemsize * 8
    raw = draw(hnp.arrays(dtype, shape, elements=st.floats(-bound, bound, width=width)))
    tied = draw(hnp.arrays(np.bool_, shape[0]))
    raw[tied] = raw[tied, :1]
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=_logits())
def test_class_probabilities_are_scipy_softmax_bitwise(raw):
    want = sp_softmax(raw, axis=1)
    got = _softmax_rows(raw)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
