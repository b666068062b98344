import gc
import math
import os
import platform
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import rulenet.tensor as T
from rulenet.data import take_rows
from rulenet.errors import ConfigError, ContractError, DimensionError, IndexRangeError
from rulenet.model import RuleNetModel
from rulenet.training import predict_split
from helpers import make_dataset, tiny_config
from oracles import (
    fd_gradient,
    max_rel_err,
    numpy_row_sum,
    numpy_softmax_shift,
    ref_gelu,
    ref_layer_norm,
    ref_softmax_per_query,
    softmax,
)


def _grad_of(build, params):
    """Run build() under a fresh tape, backward, return per-param grads."""
    for p in params:
        p.grad = None
    with T.Tape() as tape:
        loss = build()
    T.backward(tape, loss)
    return [p.grad for p in params]


def _fd_check(build, params, tol=1e-6, h=1e-5):
    grads = _grad_of(build, params)
    for p, ga in zip(params, grads):
        assert ga is not None, "missing gradient"
        gf = fd_gradient(lambda: float(build().data), p.data, h=h)
        err = max_rel_err(ga, gf)
        assert err < tol, f"gradient mismatch: rel err {err}"


def _param(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.Tensor(np.eye(2, dtype=np.float64))
    b = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(T.matmul(a, b).data, b.data)


def test_matmul_direct():
    a = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = T.Tensor(np.array([[0.0], [1.0]]))
    np.testing.assert_array_equal(T.matmul(a, b).data, [[2.0], [4.0]])


def test_matmul_shape_error_names_both_shapes():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError) as exc:
        T.matmul(a, b)
    assert "(2, 3)" in str(exc.value)


def test_matmul_grad_fd():
    rng = np.random.default_rng(0)
    a = _param(rng, 3, 4)
    b = _param(rng, 4, 2)
    w = T.Tensor(rng.standard_normal((3, 2)), dtype=np.float64)
    _fd_check(lambda: T.sum_all(T.mul(T.matmul(a, b), w)), [a, b])


def test_matmul_batched_grad_fd():
    rng = np.random.default_rng(1)
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 4, 2)  # broadcast across the stack
    w = T.Tensor(rng.standard_normal((2, 3, 2)), dtype=np.float64)
    _fd_check(lambda: T.sum_all(T.mul(T.matmul(a, b), w)), [a, b])


# ---------------------------------------------------------------------------
# elementwise


def test_gelu_zero():
    assert T.gelu(T.Tensor(np.array(0.0))).item() == 0.0


def test_gelu_one():
    got = T.gelu(T.Tensor(np.array(1.0, dtype=np.float64))).item()
    assert abs(got - 0.8413447460685429) < 1e-12


def test_add_zero_identity():
    x = T.Tensor(np.array([1.5, -2.0, 3.25]))
    np.testing.assert_array_equal(T.add(x, 0.0).data, x.data)


def test_add_broadcast_error():
    with pytest.raises(DimensionError):
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4,))))


def test_mixed_dtype_rejected():
    a = T.Tensor(np.zeros(3), dtype=np.float32)
    b = T.Tensor(np.zeros(3), dtype=np.float64)
    with pytest.raises(ContractError):
        T.add(a, b)


def test_elementwise_grads_fd():
    rng = np.random.default_rng(2)
    x = _param(rng, 4, 3)
    y = _param(rng, 4, 3)
    bias = _param(rng, 3)  # exercises broadcast in add
    w = T.Tensor(rng.standard_normal((4, 3)), dtype=np.float64)

    def build():
        h = T.add(T.mul(x, y), bias)
        return T.sum_all(T.mul(T.gelu(T.scale(h, 0.7)), w))

    _fd_check(build, [x, y, bias])


# ---------------------------------------------------------------------------
# softmax / log_softmax


def test_softmax_uniform():
    out = softmax(T.Tensor(np.zeros(3, dtype=np.float64))).data
    np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance_and_normalization(vals, c):
    x = np.array(vals, dtype=np.float64)
    s1 = softmax(T.Tensor(x)).data
    s2 = softmax(T.Tensor(x + c)).data
    assert abs(s1.sum() - 1.0) < 1e-6
    np.testing.assert_allclose(s1, s2, atol=1e-9)


def test_softmax_extreme_inputs_stay_finite():
    x = T.Tensor(np.array([3.0e38, -3.0e38, 0.0], dtype=np.float32))
    out = softmax(x).data
    assert np.isfinite(out).all()
    assert abs(float(out.sum()) - 1.0) < 1e-6


def test_softmax_grad_fd():
    rng = np.random.default_rng(3)
    x = _param(rng, 4, 5)
    w = T.Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
    _fd_check(lambda: T.sum_all(T.mul(softmax(x, axis=-1), w)), [x])


def test_log_softmax_matches_softmax():
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.standard_normal((3, 6)), dtype=np.float64)
    np.testing.assert_allclose(
        np.exp(T.log_softmax(x, axis=-1).data), softmax(x, axis=-1).data, atol=1e-12
    )


def test_log_softmax_grad_fd():
    rng = np.random.default_rng(5)
    x = _param(rng, 3, 4)
    w = T.Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
    _fd_check(lambda: T.sum_all(T.mul(T.log_softmax(x, axis=-1), w)), [x])


# ---------------------------------------------------------------------------
# layer norm


def test_layernorm_two_points():
    x = T.Tensor(np.array([[1.0, 3.0]]))
    g = T.Tensor(np.ones(2))
    b = T.Tensor(np.zeros(2))
    out = T.layer_norm(x, g, b, eps=0.0).data
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-7)


def test_layernorm_constant_vector_guarded():
    x = T.Tensor(np.full((2, 5), 7.0))
    g = T.Tensor(np.ones(5))
    b = T.Tensor(np.zeros(5))
    out = T.layer_norm(x, g, b, eps=1e-5).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, 0.0, atol=1e-7)


def test_layernorm_row_statistics():
    rng = np.random.default_rng(6)
    x = T.Tensor(rng.standard_normal((16, 32)), dtype=np.float64)
    g = T.Tensor(np.ones(32), dtype=np.float64)
    b = T.Tensor(np.zeros(32), dtype=np.float64)
    out = T.layer_norm(x, g, b, eps=1e-5).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    var = out.var(axis=-1)  # population variance
    assert np.abs(var - 1.0).max() < 1e-4


def test_layernorm_grad_fd():
    rng = np.random.default_rng(7)
    x = _param(rng, 4, 8)
    g = T.Tensor(rng.standard_normal(8) + 1.0, requires_grad=True, dtype=np.float64)
    b = _param(rng, 8)
    w = T.Tensor(rng.standard_normal((4, 8)), dtype=np.float64)
    _fd_check(
        lambda: T.sum_all(T.mul(T.layer_norm(x, g, b, eps=1e-5), w)),
        [x, g, b],
        tol=1e-5,
    )


# ---------------------------------------------------------------------------
# dropout


def test_dropout_p_zero_is_identity():
    x = T.Tensor(np.arange(6, dtype=np.float32))
    out = T.dropout(x, 0.0, np.random.default_rng(0))
    assert out is x


def test_dropout_inactive_is_identity():
    x = T.Tensor(np.arange(6, dtype=np.float32))
    out = T.dropout(x, 0.5, None)
    assert out is x


def test_dropout_invalid_rate():
    x = T.Tensor(np.zeros(3))
    with pytest.raises(ConfigError):
        T.dropout(x, 1.0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        T.dropout(x, -0.1, np.random.default_rng(0))


def test_dropout_rate_is_checked_without_an_rng():
    with pytest.raises(ConfigError):
        T.dropout(T.Tensor(np.zeros(3)), 1.0, None)


def test_dropout_zeroed_fraction():
    x = T.Tensor(np.ones(100_000, dtype=np.float64))
    out = T.dropout(x, 0.25, np.random.default_rng(123)).data
    zeroed = float((out == 0.0).mean())
    assert abs(zeroed - 0.25) < 0.01


def test_dropout_preserves_expectation():
    x = T.Tensor(np.full(200_000, 2.0))
    out = T.dropout(x, 0.4, np.random.default_rng(9)).data
    assert abs(float(out.mean()) - 2.0) < 0.02


def test_dropout_deterministic_per_seed():
    x = T.Tensor(np.ones(1000, dtype=np.float32))
    a = T.dropout(x, 0.3, np.random.default_rng(42)).data
    b = T.dropout(x, 0.3, np.random.default_rng(42)).data
    assert np.array_equal(a, b)


def test_dropout_grad_fd():
    rng = np.random.default_rng(8)
    x = _param(rng, 5, 4)
    w = T.Tensor(rng.standard_normal((5, 4)), dtype=np.float64)

    def build():
        out = T.dropout(x, 0.5, np.random.default_rng(77))
        return T.sum_all(T.mul(out, w))

    _fd_check(build, [x])


def test_dropout_tape_keeps_a_bool_mask_and_rebuilds_the_keep_array_bitwise():
    rng = np.random.default_rng(12)
    x = T.Tensor(rng.standard_normal((6, 7)), requires_grad=True, dtype=np.float32)
    p = 0.3
    with T.Tape() as tape:
        out = T.dropout(x, p, np.random.default_rng(5))
    (rec,) = tape.entries
    mask, rate = rec.ctx
    assert mask.dtype == np.bool_ and mask.shape == x.shape and rate == p
    # the float32 keep array that the tape used to hold, from the same draws
    keep = (np.random.default_rng(5).random(x.shape) >= p).astype(np.float32)
    keep /= np.asarray(1.0 - p, dtype=np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    assert np.array_equal(out.data, x.data * keep)
    (gx,) = T._BACKWARD["dropout"](rec, g)
    assert gx.dtype == np.float32 and np.array_equal(gx, g * keep)


def test_dropout_mask_drawn_in_blocks_matches_one_draw():
    # three full blocks of draws and a ragged fourth
    x = T.Tensor(np.ones((4, 3 * T._CHUNK // 4 + 301), dtype=np.float32), requires_grad=True)
    p, rng, ref_rng = 0.3, np.random.default_rng(31), np.random.default_rng(31)
    with T.Tape() as tape:
        T.dropout(x, p, rng)
    (rec,) = tape.entries
    mask, _ = rec.ctx
    assert np.array_equal(mask, ref_rng.random(x.shape) >= p)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# maxpool


def test_maxpool_direct():
    x = T.Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
    np.testing.assert_array_equal(T.maxpool(x, axis=0).data, [3.0, 5.0])


def test_maxpool_single_row_identity():
    x = T.Tensor(np.array([[4.0, -1.0, 2.0]]))
    np.testing.assert_array_equal(T.maxpool(x, axis=0).data, [4.0, -1.0, 2.0])


def test_maxpool_grad_one_per_column():
    x = T.Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
    (g,) = _grad_of(lambda: T.sum_all(T.maxpool(x, axis=0)), [x])
    np.testing.assert_array_equal(g, [[0.0, 1.0], [1.0, 0.0]])
    assert g.sum(axis=0).tolist() == [1.0, 1.0]


def test_maxpool_tie_goes_to_first_index():
    x = T.Tensor(np.array([[2.0, 7.0], [2.0, 7.0]]), requires_grad=True)
    (g,) = _grad_of(lambda: T.sum_all(T.maxpool(x, axis=0)), [x])
    np.testing.assert_array_equal(g, [[1.0, 1.0], [0.0, 0.0]])


def test_maxpool_empty_axis_error():
    with pytest.raises(DimensionError):
        T.maxpool(T.Tensor(np.zeros((0, 3))), axis=0)


def test_maxpool_grad_fd():
    rng = np.random.default_rng(10)
    # well-separated entries so perturbation cannot flip the argmax
    vals = rng.permutation(20).astype(np.float64).reshape(4, 5) * 3.0
    x = T.Tensor(vals, requires_grad=True, dtype=np.float64)
    w = T.Tensor(rng.standard_normal(5), dtype=np.float64)
    _fd_check(lambda: T.sum_all(T.mul(T.maxpool(x, axis=0), w)), [x], h=1e-6)


# ---------------------------------------------------------------------------
# interp_rows


def test_interp_rows_out_of_range_names_the_index():
    table = T.Tensor(np.zeros((3, 2)))
    ok, bad = np.array([0, 1]), np.array([0, 7])
    with pytest.raises(IndexRangeError, match=r"idx_hi outside \[0, 3\)"):
        T.interp_rows(table, ok, bad, np.ones(2), np.zeros(2))
    with pytest.raises(IndexRangeError, match="idx_lo"):
        T.interp_rows(table, np.array([-1, 0]), ok, np.ones(2), np.zeros(2))


def test_interp_rows_blend():
    table = T.Tensor(np.array([[0.0, 0.0], [1.0, 2.0], [5.0, 5.0]]))
    out = T.interp_rows(
        table,
        np.array([0, 1]),
        np.array([1, 2]),
        np.array([0.75, 1.0]),
        np.array([0.25, 0.0]),
    ).data
    np.testing.assert_allclose(out, [[0.25, 0.5], [1.0, 2.0]], atol=1e-7)


def test_interp_rows_grad_only_touches_used_rows():
    table = T.Tensor(np.zeros((4, 2)), requires_grad=True)
    (g,) = _grad_of(
        lambda: T.sum_all(
            T.interp_rows(
                table,
                np.array([1]),
                np.array([2]),
                np.array([0.3]),
                np.array([0.7]),
            )
        ),
        [table],
    )
    np.testing.assert_allclose(
        g, [[0.0, 0.0], [0.3, 0.3], [0.7, 0.7], [0.0, 0.0]], atol=1e-7
    )


def test_interp_rows_grad_fd():
    rng = np.random.default_rng(13)
    table = _param(rng, 5, 3)
    idx_lo = np.array([0, 1, 3, 3])
    idx_hi = np.array([1, 2, 4, 3])
    f = rng.random(4)
    w = T.Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
    _fd_check(
        lambda: T.sum_all(
            T.mul(T.interp_rows(table, idx_lo, idx_hi, 1.0 - f, f), w)
        ),
        [table],
    )


# ---------------------------------------------------------------------------
# shape plumbing


def test_shape_ops_grad_fd():
    rng = np.random.default_rng(14)
    x = _param(rng, 2, 6)
    y = _param(rng, 2, 6)
    w = T.Tensor(rng.standard_normal((4, 2, 3)), dtype=np.float64)

    def build():
        joined = T.concat([x, y], axis=0)  # [4, 6]
        cube = T.reshape(joined, (4, 3, 2))
        flipped = T.transpose(cube, (0, 2, 1))  # [4, 2, 3]
        return T.sum_all(T.mul(flipped, w))

    _fd_check(build, [x, y])


def test_broadcast_rows_grad_sums():
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (g,) = _grad_of(lambda: T.sum_all(T.broadcast_rows(x, 5)), [x])
    np.testing.assert_array_equal(g, [5.0, 5.0])


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = T.Tensor(np.zeros((2, 3)), requires_grad=True)
    (g,) = _grad_of(lambda: T.sum_all(x), [x])
    np.testing.assert_array_equal(g, np.ones((2, 3)))


def test_backward_product_rule():
    x = T.Tensor(np.array(2.0), requires_grad=True)
    y = T.Tensor(np.array(3.0), requires_grad=True)
    gx, gy = _grad_of(lambda: T.mul(x, y), [x, y])
    assert float(gx) == 3.0
    assert float(gy) == 2.0


def test_backward_same_tensor_used_twice():
    x = T.Tensor(np.array([3.0]), requires_grad=True)
    (g,) = _grad_of(lambda: T.sum_all(T.mul(x, x)), [x])
    np.testing.assert_array_equal(g, [6.0])


def test_backward_never_writes_into_an_array_a_vjp_returned():
    # add hands one gradient array to both of its inputs; summing x's three
    # contributions into the first of them in place would change u's too
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    u = T.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    gx, gu = _grad_of(lambda: T.sum_all(T.add(T.add(T.add(x, x), x), u)), [x, u])
    np.testing.assert_array_equal(gx, [3.0, 3.0])
    np.testing.assert_array_equal(gu, [1.0, 1.0])


def test_backward_non_scalar_loss_rejected():
    x = T.Tensor(np.zeros(3), requires_grad=True)
    with T.Tape() as tape:
        out = T.scale(x, 2.0)
    with pytest.raises(ContractError):
        T.backward(tape, out)


def test_backward_twice_rejected():
    x = T.Tensor(np.array(1.0), requires_grad=True)
    with T.Tape() as tape:
        loss = T.mul(x, x)
    T.backward(tape, loss)
    with pytest.raises(ContractError):
        T.backward(tape, loss)


def test_grad_accumulates_across_tapes():
    x = T.Tensor(np.array(1.0), requires_grad=True)
    for _ in range(2):
        with T.Tape() as tape:
            loss = T.mul(x, x)
        T.backward(tape, loss)
    assert float(x.grad) == 4.0


def test_tape_entries_topologically_ordered():
    rng = np.random.default_rng(15)
    a = _param(rng, 3, 3)
    b = _param(rng, 3, 3)
    bias = _param(rng, 3)
    with T.Tape() as tape:
        h = T.gelu(T.linear(a, b, bias))
        out = softmax(T.add(h, b), axis=-1)
        T.sum_all(T.mul(out, T.attention_probs(h, a, 0.5)))
    assert tape.entries, "nothing recorded"
    outputs = [rec.output for rec in tape.entries]
    for i, rec in enumerate(tape.entries):
        for t in rec.inputs:
            if any(t is o for o in outputs):
                assert any(t is o for o in outputs[:i]), f"{rec.op} reads a later output"


def test_backward_empties_the_tape():
    rng = np.random.default_rng(16)
    w, bias = _param(rng, 3, 4), _param(rng, 4)
    x = T.Tensor(rng.standard_normal((5, 3)))
    with T.Tape() as tape:
        loss = T.sum_all(T.gelu(T.linear(x, w, bias)))
    assert len(tape.entries) == 3
    T.backward(tape, loss)
    assert tape.entries == []
    assert w.grad is not None and bias.grad is not None


def test_a_tape_dropped_without_backward_frees_its_activations_at_once():
    rng = np.random.default_rng(17)
    w, bias = _param(rng, 3, 4), _param(rng, 4)
    x = T.Tensor(rng.standard_normal((5, 3)))
    gc.disable()  # no cycle may hold them until a collection
    try:
        with T.Tape() as tape:
            h = T.linear(x, w, bias)
            loss = T.sum_all(T.gelu(h))
        (derivative,) = tape.entries[1].ctx  # gelu's
        kept, dropped = weakref.ref(derivative), weakref.ref(h.data)
        del derivative, h, loss
        # the linear output is no VJP's input: only the model code held it
        assert kept() is not None and dropped() is None
        del tape
        assert kept() is None
    finally:
        gc.enable()


def test_an_output_of_a_swept_tape_is_a_leaf_of_the_next():
    rng = np.random.default_rng(18)
    w = _param(rng, 3, 3)
    with T.Tape() as first:
        h = T.gelu(w)
        loss = T.sum_all(h)
    T.backward(first, loss)
    assert h.requires_grad and h.grad is None
    with T.Tape() as second:
        loss = T.sum_all(T.mul(h, h))
    (rec,) = [r for r in second.entries if r.op == "mul"]
    assert rec.inputs[0] is h and rec.inputs[1] is h
    w_grad = w.grad.copy()
    T.backward(second, loss)
    assert np.array_equal(h.grad, 2.0 * h.data)
    assert np.array_equal(w.grad, w_grad)  # the new tape stops at h


def test_no_recording_without_tape():
    x = T.Tensor(np.ones(3), requires_grad=True)
    out = T.scale(x, 2.0)
    assert out.requires_grad is False


# ---------------------------------------------------------------------------
# fused ops against the compositions they replace: the same bits, forward
# and backward


def _taped(build, leaves, seed=99, w=None):
    """build()'s output and each leaf's gradient of sum(output * w), w fixed
    by seed unless given."""
    for p in leaves:
        p.grad = None
    with T.Tape() as tape:
        out = build()
        if w is None:
            w = np.random.default_rng(seed).standard_normal(out.shape)
        loss = T.sum_all(T.mul(out, T.Tensor(w, dtype=out.dtype)))
    T.backward(tape, loss)
    return out.data, [p.grad for p in leaves]


def _assert_bitwise(got, want):
    (out, grads), (ref_out, ref_grads) = got, want
    assert out.dtype == ref_out.dtype
    assert np.array_equal(out, ref_out)
    for g, ref in zip(grads, ref_grads, strict=True):
        assert g is not None and g.dtype == ref.dtype
        assert np.array_equal(g, ref)


def _tensor(rng, shape, dtype, grad=True):
    return T.Tensor(rng.standard_normal(shape), requires_grad=grad, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 5), (3, 4, 5)])
def test_linear_matches_matmul_add(dtype, shape):
    rng = np.random.default_rng(20)
    x = _tensor(rng, shape, dtype)
    w = _tensor(rng, (5, 7), dtype)
    b = _tensor(rng, (7,), dtype)

    def composed():
        if len(shape) == 2:
            return T.add(T.matmul(x, w), b)
        flat = T.reshape(x, (-1, shape[-1]))
        return T.reshape(T.add(T.matmul(flat, w), b), shape[:-1] + (7,))

    fused = _taped(lambda: T.linear(x, w, b), [x, w, b])
    assert fused[0].shape == shape[:-1] + (7,)
    _assert_bitwise(fused, _taped(composed, [x, w, b]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_probs_matches_composition(dtype):
    rng = np.random.default_rng(21)
    rows, n_q, n_kv, heads, head_dim = 3, 4, 6, 2, 5
    xq = _tensor(rng, (rows, n_q, heads * head_dim), dtype)
    xk = _tensor(rng, (rows, n_kv, heads * head_dim), dtype)
    s = 1.0 / math.sqrt(head_dim)

    def split_heads(t):  # non-contiguous [rows, heads, tokens, head_dim] view
        r, n, _ = t.shape
        return T.transpose(T.reshape(t, (r, n, heads, head_dim)), (0, 2, 1, 3))

    def composed():
        k_t = T.transpose(split_heads(xk), (0, 1, 3, 2))
        return softmax(T.scale(T.matmul(split_heads(xq), k_t), s), axis=-1)

    fused = _taped(lambda: T.attention_probs(split_heads(xq), split_heads(xk), s), [xq, xk])
    assert fused[0].shape == (rows, heads, n_q, n_kv)
    _assert_bitwise(fused, _taped(composed, [xq, xk]))


# a few values, then about three of dropout's T._CHUNK-value blocks and a
# ragged fourth, all in one call (and, for layer_norm, no rows at all)
_SMALL = (7, 9)
_LAYER_NORM_SHAPES = [_SMALL, (29, 64, 64), (3 * T._CHUNK // 16 + 5, 16), (0, 16)]


def _assert_gelu_matches_reference(shape, dtype):
    rng = np.random.default_rng(22)
    x = T.Tensor(3.0 * rng.standard_normal(shape), requires_grad=True, dtype=dtype)
    out, (gx,) = _taped(lambda: T.gelu(x), [x], seed=5)
    g = np.random.default_rng(5).standard_normal(out.shape).astype(dtype)
    ref_out, ref_gx = ref_gelu(x.data, g)
    assert out.dtype == gx.dtype == dtype
    assert np.array_equal(out, ref_out)
    assert np.array_equal(gx, ref_gx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_matches_closed_form(dtype):
    _assert_gelu_matches_reference(_SMALL, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_matches_closed_form_over_several_chunks(dtype):
    _assert_gelu_matches_reference((3, T._CHUNK + 1001), dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_tapes_only_its_derivative_and_keeps_its_bits_bitwise(helpers, dtype):
    # over two parts of T._PART values: the parts run on the helpers
    shape = (3, 2 * T._PART // 3 + 1001)
    rng = np.random.default_rng(23)
    x = T.Tensor(3.0 * rng.standard_normal(shape), requires_grad=True, dtype=dtype)
    g = rng.standard_normal(shape).astype(dtype)
    untaped = T.gelu(x).data
    with T.Tape() as tape:
        out = T.gelu(x)
    (rec,) = tape.entries
    (d,) = rec.ctx
    assert isinstance(d, np.ndarray) and d.shape == shape
    (gx,) = T._BACKWARD["gelu"](rec, g)
    ref_out, ref_gx = ref_gelu(x.data, g)
    assert np.array_equal(untaped, out.data) and np.array_equal(out.data, ref_out)
    assert gx.dtype == dtype and np.array_equal(gx, ref_gx)


def _layer_norm_inputs(rng, shape, dtype, view=lambda a: a):
    x = view((2.0 * rng.standard_normal(shape) + rng.standard_normal(shape[-1:])).astype(dtype))
    gain, bias = (T.Tensor(rng.standard_normal(x.shape[-1]), requires_grad=True, dtype=dtype)
                  for _ in range(2))
    return x, gain, bias


def _assert_layer_norm_matches_reference(x, gain, bias):
    xt = T.Tensor(x, requires_grad=True)
    out, grads = _taped(lambda: T.layer_norm(xt, gain, bias), [xt, gain, bias], seed=6)
    g = np.random.default_rng(6).standard_normal(out.shape).astype(x.dtype)
    want = ref_layer_norm(x, gain.data, bias.data, g)
    for got, ref in zip([out, *grads], want, strict=True):
        assert got.dtype == ref.dtype == x.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _LAYER_NORM_SHAPES)
def test_layer_norm_matches_the_unblocked_reference(dtype, shape):
    rng = np.random.default_rng(24)
    _assert_layer_norm_matches_reference(*_layer_norm_inputs(rng, shape, dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "view",
    [
        lambda a: a[:, ::2],  # strided rows
        lambda a: a[..., ::2],  # a strided last axis
        lambda a: a.transpose(1, 0, 2),  # the blocked axis is not the outer one in memory
        lambda a: np.broadcast_to(a[0], a.shape),  # shared rows, as broadcast_rows gives
    ],
    ids=["strided-rows", "strided-last-axis", "transposed", "broadcast"],
)
def test_layer_norm_of_a_non_contiguous_input_matches_the_reference(dtype, view):
    rng = np.random.default_rng(25)
    x, gain, bias = _layer_norm_inputs(rng, (58, 60, 64), dtype, view)
    assert not x.flags.c_contiguous and x.size > 3 * T._CHUNK
    _assert_layer_norm_matches_reference(x, gain, bias)


@pytest.mark.parametrize(
    "rows,dtype,at_once",
    [(29, np.float32, True), (29, np.float64, True), (97, np.float32, False), (97, np.float64, False)],
)
def test_column_sums_reduce_at_once_or_blocked_bitwise(rows, dtype, at_once):
    """Below T._ONE_REDUCE_BYTES one reduce, from there on cache-sized
    blocks; both give the order of one np.add.reduce over all rows."""
    rng = np.random.default_rng(26)
    a, b = (rng.standard_normal((rows, 48, 64)).astype(dtype) for _ in range(2))
    assert (a.nbytes < T._ONE_REDUCE_BYTES) == at_once
    for x, y in ((a, b), (a[:, ::2], b[:, ::2])):
        want = np.add.reduce((x * y).reshape(-1, 64), axis=0)
        assert T._column_sums(x, y).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# row statistics: a row's bits never depend on the other rows of its call


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(*(st.integers(1, n) for n in (24, 4, 24, 24, 16, 64))),
    spread=st.sampled_from([1.0, 30.0]),  # 30 sends some score matrices past _SHIFT_SPREAD
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_any_subset_of_rows_matches_the_full_call_bitwise(dims, spread, dtype, seed, data):
    rows, heads, n_q, n_kv, head_dim, width = dims
    subset = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, unique=True), label="subset")
    rng = np.random.default_rng(seed)
    q = spread * rng.standard_normal((rows, heads, n_q, head_dim))
    k = rng.standard_normal((rows, heads, n_kv, head_dim))
    g_attn = rng.standard_normal((rows, heads, n_q, n_kv))
    x = 2.0 * rng.standard_normal((rows, n_q, width)) + rng.standard_normal(width)
    g_norm = rng.standard_normal(x.shape)
    gain, bias = (T.Tensor(rng.standard_normal(width), dtype=dtype) for _ in range(2))
    s = 1.0 / math.sqrt(head_dim)

    def attention(idx):
        qt, kt = (T.Tensor(a[idx], requires_grad=True, dtype=dtype) for a in (q, k))
        out, grads = _taped(lambda: T.attention_probs(qt, kt, s), [qt, kt], w=g_attn[idx])
        return [out, *grads]

    def norm(idx):
        xt = T.Tensor(x[idx], requires_grad=True, dtype=dtype)
        out, (gx,) = _taped(lambda: T.layer_norm(xt, gain, bias), [xt], w=g_norm[idx])
        return out, gx

    everything = np.arange(rows)
    for call in (attention, norm):
        for full, part in zip(call(everything), call(subset), strict=True):
            assert part.dtype == dtype
            assert np.array_equal(part, full[subset])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_widely_spread_score_matrix_matches_the_per_query_formula_bitwise(dtype):
    rng = np.random.default_rng(26)
    q = rng.standard_normal((3, 2, 5, 4)).astype(dtype)
    k = rng.standard_normal((3, 2, 7, 4)).astype(dtype)
    s = 0.5
    wide_q = q.copy()
    wide_q[1, 0] *= 1e3
    scores = np.matmul(wide_q, np.swapaxes(k, -1, -2))  # attention_probs' ops
    scores *= np.asarray(s, dtype=dtype)
    spread = scores.max(axis=(-2, -1)) - scores.min(axis=(-2, -1))
    assert spread[1, 0] > T._SHIFT_SPREAD and np.sum(spread > T._SHIFT_SPREAD) == 1

    base = T.attention_probs(T.Tensor(q), T.Tensor(k), s).data
    wide = T.attention_probs(T.Tensor(wide_q), T.Tensor(k), s).data
    assert np.isfinite(wide[1, 0]).all()
    assert np.abs(wide[1, 0].sum(axis=-1) - 1.0).max() <= 1e-6
    assert np.array_equal(wide[1, 0], ref_softmax_per_query(scores[1, 0]))
    others = np.ones((3, 2), dtype=bool)
    others[1, 0] = False
    assert np.array_equal(wide[others], base[others])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_of_scores_holding_inf_or_nan_matches_the_per_query_formula(dtype):
    x = np.random.default_rng(27).standard_normal((2, 3, 4, 5)).astype(dtype)
    x[0, 1, 2, 3], x[1, 0, 0, 0], x[1, 2, 1, 1] = np.inf, -np.inf, np.nan
    with np.errstate(invalid="ignore"):
        out = softmax(T.Tensor(x)).data
        for i, j in ((0, 1), (1, 0), (1, 2)):
            assert np.array_equal(out[i, j], ref_softmax_per_query(x[i, j]), equal_nan=True)


@pytest.mark.parametrize("n_q", [0, 1])
def test_softmax_of_matrices_of_fewer_than_two_queries_matches_the_per_query_formula(n_q):
    # scaled so that some matrices span more than 80 and some do not
    x = 30 * np.random.default_rng(29).standard_normal((4, 3, n_q, 5)).astype(np.float32)
    out = softmax(T.Tensor(x)).data
    assert out.shape == x.shape
    assert np.array_equal(out, ref_softmax_per_query(x))


def test_patching_in_numpy_row_statistics_matches_the_parent_formulas(monkeypatch):
    # the patch the drift test in test_training.py trains with
    monkeypatch.setattr(T, "_row_sum", numpy_row_sum)
    monkeypatch.setattr(T, "_softmax_shift", numpy_softmax_shift)
    rng = np.random.default_rng(28)
    scores = rng.standard_normal((3, 2, 5, 7)).astype(np.float32)
    g = rng.standard_normal(scores.shape).astype(np.float32)
    want = np.exp(scores - scores.max(axis=-1, keepdims=True))
    want /= want.sum(axis=-1, keepdims=True)
    scores_t = T.Tensor(scores, requires_grad=True)
    out, (gx,) = _taped(lambda: softmax(scores_t), [scores_t], w=g)
    assert np.array_equal(out, want)
    assert np.array_equal(gx, (g - (g * want).sum(axis=-1, keepdims=True)) * want)

    x, gain, bias = _layer_norm_inputs(rng, (29, 64, 64), np.float32)
    xt = T.Tensor(x, requires_grad=True)
    g = rng.standard_normal(x.shape).astype(np.float32)
    out, grads = _taped(lambda: T.layer_norm(xt, gain, bias), [xt, gain, bias], w=g)
    want = ref_layer_norm(x, gain.data, bias.data, g, row_sum=numpy_row_sum)
    for a, b in zip([out, *grads], want, strict=True):
        assert np.array_equal(a, b)


def _sweep_points():
    """30M evenly spaced points over [-12, 12], then every 61st float32 bit
    pattern in (-1, 1), both signs: a million values at a time."""
    for k in range(30):
        lo = -12.0 + 0.8 * k
        yield np.linspace(lo, lo + 0.8, 1_000_000, endpoint=False).astype(np.float32)
    bits = np.arange(1, 0x3F800000, 61, dtype=np.uint32)
    for i in range(0, bits.size, 1_000_000):
        tiny = bits[i : i + 1_000_000].view(np.float32)
        yield tiny
        yield -tiny


def test_float32_phi_stays_within_its_bound_of_the_exact_cdf():
    phi_err = gelu_err = 0.0
    points = 0
    for x in _sweep_points():
        phi = T._phi_float32(x)
        exact = ndtr(x.astype(np.float64))
        assert phi.dtype == np.float32 and 0.0 <= phi.min() and phi.max() <= 1.0
        phi_err = max(phi_err, float(np.abs(phi - exact).max()))
        gelu = T.gelu(T.Tensor(x)).data
        gelu_err = max(gelu_err, float(np.abs(gelu - x.astype(np.float64) * exact).max()))
        points += x.size
    assert points >= 30_000_000
    assert phi_err <= 3e-7
    assert gelu_err <= 1.5e-6
    zero = np.zeros(3, dtype=np.float32)
    assert np.array_equal(T._phi_float32(zero), np.full(3, 0.5, dtype=np.float32))
    assert np.array_equal(T.gelu(T.Tensor(zero)).data, zero)


def test_gelu_from_two_threads_matches_serial_calls():
    rng = np.random.default_rng(23)
    # several chunks each, with a ragged last chunk
    xs = [T.Tensor(3.0 * rng.standard_normal(n), dtype=np.float32) for n in (98_309, 65_547)]
    serial = [T.gelu(x).data for x in xs]
    results = [[], []]
    start = threading.Barrier(2, timeout=30)

    def work(i):
        start.wait()
        for _ in range(25):
            results[i].append(T.gelu(xs[i]).data)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(serial, results):
        assert len(got) == 25
        assert all(np.array_equal(out, want) for out in got)


def test_fused_op_shape_errors():
    x = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        T.linear(x, T.Tensor(np.zeros((4, 5))), T.Tensor(np.zeros(5)))
    with pytest.raises(DimensionError):
        T.linear(x, T.Tensor(np.zeros((3, 5))), T.Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        T.attention_probs(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((2, 3, 5))), 1.0)
    with pytest.raises(DimensionError):
        T.attention_probs(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((3, 3, 4))), 1.0)


_TRAIN_STEP_FAULTS = """
import resource

import numpy as np

from helpers import make_dataset
from rulenet import tensor as T
from rulenet.data import take_rows
from rulenet.model import RuleNetConfig, RuleNetModel
from rulenet.training import AdamW, batch_loss

prep, enc = make_dataset(rows=256, n_num=8, n_cat=0, n_quantiles=RuleNetConfig.n_quantiles)
model = RuleNetModel.build(prep, RuleNetConfig.for_schema(prep.schema), seed=0)
optimizer = AdamW(model.parameter_groups())
batch = take_rows(enc, np.arange(256))
rng = np.random.default_rng(0)


def step():
    with T.Tape() as tape:
        loss = batch_loss(model, batch, model.forward(batch, "train", rng=rng))
    T.backward(tape, loss)
    optimizer.step(1e-3, 1e-2)
    optimizer.zero_grad()


step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the allocator policy is set through glibc's mallopt only",
)
def test_train_steps_reuse_freed_memory():
    """After a warm-up step, a default-config step (256 rows, M=8) reuses the
    memory the previous step freed. Under glibc's default policy each step
    faults some 30k pages back in."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    out = subprocess.run(
        [sys.executable, "-c", _TRAIN_STEP_FAULTS],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    faults = int(out.stdout.split()[-1])
    assert faults < 3000, f"{faults} minor page faults in three train steps"


# ---------------------------------------------------------------------------
# kernels split over helper threads (T._split): bitwise the unsplit call


@pytest.fixture
def helpers(monkeypatch):
    """A fresh pool of two helper threads, however many cores the process has."""
    monkeypatch.setattr(T, "_helper_count", lambda: 2)
    monkeypatch.setattr(T, "_POOL", None)
    yield
    if T._POOL:
        T._POOL[0].shutdown(wait=True)


def _split_into_parts(monkeypatch, run, part, two_way=0):
    """run() with T._PART set to part; every split it makes must cut 3 or
    more parts, one of them a single row (or value, or block of rows), but
    for `two_way` splits into the two parts (0, 1) and (1, 2)."""
    cuts = []
    ranges = T._ranges

    def spy(n, size, values):
        out = ranges(n, size, values)
        if values == part:
            cuts.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(T, "_PART", part)
        m.setattr(T, "_ranges", spy)
        result = run()
    assert cuts, "nothing was split"
    assert sum(parts == [(0, 1), (1, 2)] for parts in cuts) == two_way, cuts
    for parts in cuts:
        sizes = [hi - lo for lo, hi in parts]
        assert parts == [(0, 1), (1, 2)] or len(parts) >= 3 and 1 in sizes and len(set(sizes)) > 1, sizes
    return result


def _unsplit(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(T, "_PART", 1 << 40)
        return run()


def _split_cases(rng, dtype, contiguous):
    """(name, run, part): each run taped over 7 leading rows, an odd count of
    values or, for linear, 5 blocks of rows."""
    view = (lambda a: a) if contiguous else (lambda a: np.swapaxes(a, 0, 1).copy().swapaxes(0, 1))

    def t(*shape, grad=True):
        return T.Tensor(view(rng.standard_normal(shape).astype(dtype)) if len(shape) > 1
                        else rng.standard_normal(shape), requires_grad=grad, dtype=dtype)

    x = t(7, 5, 9)  # 315 values
    a, b = t(7, 5, 9), t(7, 5, 9)
    q, k = t(7, 2, 5, 4), t(7, 2, 6, 4)
    probs, v = t(7, 2, 5, 6), t(7, 2, 6, 4)
    gain, bias = t(9), t(9)
    w, wb = t(9, 16), t(16)
    flat = t(5 * T._GEMM_ROWS + 7, 9)  # 5 blocks, the last of 199 rows
    drop_rng = lambda: np.random.default_rng(3)  # noqa: E731
    per_row = lambda arr: 3 * arr.size // 7  # noqa: E731 -- parts of 3, 3 and 1 rows
    return [
        ("gelu", lambda: _taped(lambda: T.gelu(x), [x]), x.data.size // 2),  # 157, 157, 1 values
        ("layer_norm", lambda: _taped(lambda: T.layer_norm(x, gain, bias), [x, gain, bias]),
         per_row(x.data)),
        ("attention_probs", lambda: _taped(lambda: T.attention_probs(q, k, 0.5), [q, k]),
         3 * 2 * 5 * 6),
        ("matmul", lambda: _taped(lambda: T.matmul(probs, v), [probs, v]), per_row(probs.data)),
        ("add", lambda: _taped(lambda: T.add(a, b), [a, b]), per_row(a.data)),
        ("linear", lambda: _taped(lambda: T.linear(flat, w, wb), [flat, w, wb]),
         flat.data.shape[0] * 16 // 2),  # parts of 2, 2 and 1 blocks
        ("dropout", lambda: _taped(lambda: T.dropout(x, 0.3, drop_rng()), [x]), per_row(x.data)),
    ]


@pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "strided"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", range(7), ids=["gelu", "layer_norm", "attention_probs",
                                                "matmul", "add", "linear", "dropout"])
def test_split_kernel_matches_the_unsplit_call_bitwise(helpers, monkeypatch, case, dtype, contiguous):
    name, run, part = _split_cases(np.random.default_rng(40 + case), dtype, contiguous)[case]
    want = _unsplit(monkeypatch, run)
    got = _split_into_parts(monkeypatch, run, part, two_way=int(name == "linear"))
    _assert_bitwise(got, want)

    # with no helpers (one core), the same parts all run on the calling thread
    threads = set()
    split = T._split

    def spy(body, *args, **kwargs):
        def traced(*a):
            threads.add(threading.get_ident())
            return body(*a)

        return split(traced, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(T, "_helper_count", lambda: 0)
        m.setattr(T, "_POOL", None)
        m.setattr(T, "_split", spy)
        got = _split_into_parts(monkeypatch, run, part, two_way=int(name == "linear"))
        assert T._POOL is False
    assert threads == {threading.get_ident()}
    _assert_bitwise(got, want)


def _model_outputs(dtype):
    """Eval predictions, one seeded rollout and one train step's gradients of a
    small model whose larger ops reach a few thousand values."""
    prep, enc = make_dataset(rows=24, seed=41)
    cfg = tiny_config(prep, n_rules=6, embed_dim=16, hidden_dim=32, n_heads=2,
                      mask_rate=0.2, rule_mask_rate=0.2, transformer_dropout=0.1, head_dropout=0.1)
    model = RuleNetModel.build(prep, cfg, seed=41, dtype=dtype)
    batch = take_rows(enc, np.arange(enc.n_rows))
    outputs = [predict_split(model, batch), predict_split(model, batch, np.random.default_rng(5))]
    with T.Tape() as tape:
        loss = T.mean_all(model.forward(batch, "train", rng=np.random.default_rng(6)))
    T.backward(tape, loss)
    outputs += [t.grad for t in model.named_parameters().values()]
    return outputs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_outputs_with_split_kernels_match_the_unsplit_ones_bitwise(helpers, monkeypatch, dtype):
    want = _unsplit(monkeypatch, lambda: _model_outputs(dtype))
    splits = []
    split = T._split

    def spy(body, n, size, *args, **kwargs):
        if n > 1 and size >= 2 * T._PART:
            splits.append((body.__qualname__.split(".")[0], len(T._ranges(n, size, T._PART))))
        return split(body, n, size, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(T, "_PART", 256)
        m.setattr(T, "_split", spy)
        got = _model_outputs(dtype)
    # linear's VJP always splits in two: its two GEMMs side by side
    counts = [k for op, k in splits if op != "_linear_bwd"]
    assert len(counts) > 20 and min(counts) >= 3
    assert sorted({k for op, k in splits if op == "_linear_bwd"}) == [2]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# eleven row counts from 4096 to 16447, and two of 192 * k + 1 rows, whose
# last block holds 193
_LINEAR_ROWS = (4096, 4097, 4417, 4999, 6143, 7001, 8192, 9985, 11519, 12289, 13313, 15000, 16447)


def _linear_and_vjp(x, w, b, g):
    """linear's output and its VJP of g, without further ops on the tape."""
    with T.Tape() as tape:
        out = T.linear(x, w, b)
    return [out.data, *T._BACKWARD["linear"](tape.entries[-1], g)]


@pytest.mark.parametrize("n_out", [1, 3, 16, 48, 64, 256])
@pytest.mark.parametrize("n_in", [8, 16, 64, 256])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_split_on_row_blocks_matches_the_serial_call_bitwise(helpers, monkeypatch, dtype,
                                                                     n_in, n_out):
    rng = np.random.default_rng(n_in * 1000 + n_out)
    xs = rng.standard_normal((_LINEAR_ROWS[-1], n_in)).astype(dtype)
    gs = rng.standard_normal((_LINEAR_ROWS[-1], n_out)).astype(dtype)
    w = T.Tensor(rng.standard_normal((n_in, n_out)), requires_grad=True, dtype=dtype)
    b = T.Tensor(rng.standard_normal(n_out), requires_grad=True, dtype=dtype)
    ranges, matmul = T._ranges, np.matmul
    cut, calls = {}, []

    def even_parts(n, size, values):  # the blocks of rows in cut["parts"] even parts
        if n != cut.get("blocks"):
            return ranges(n, size, values)
        return [(i * n // cut["parts"], (i + 1) * n // cut["parts"]) for i in range(cut["parts"])]

    def spy(a, b_, *args, **kwargs):  # the forward's GEMMs: (first row, rows)
        if b_ is w.data:
            calls.append(((a.ctypes.data - xs.ctypes.data) // xs.strides[0], a.shape[0]))
        return matmul(a, b_, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    for rows in _LINEAR_ROWS:
        x = T.Tensor(xs[:rows], requires_grad=True)
        want = _unsplit(monkeypatch, lambda: _linear_and_vjp(x, w, b, gs[:rows]))
        for parts in (2, 3, 5):
            calls.clear()
            cut.update(blocks=rows // T._GEMM_ROWS, parts=parts)
            with monkeypatch.context() as m:
                m.setattr(T, "_PART", 1)
                m.setattr(T, "_ranges", even_parts)
                got = _linear_and_vjp(x, w, b, gs[:rows])
            for a, ref in zip(got, want, strict=True):
                assert a.dtype == ref.dtype and np.array_equal(a, ref), (rows, parts)
            calls.sort()
            assert [lo for lo, _ in calls] == list(np.cumsum([0] + [k for _, k in calls[:-1]]))
            assert sum(k for _, k in calls) == rows
            if n_out < T._GEMM_MIN_COLS:
                assert calls == [(0, rows)]
                continue
            assert len(calls) == parts
            assert all(lo % T._GEMM_ROWS == 0 and k >= T._GEMM_ROWS for lo, k in calls), calls


# ---------------------------------------------------------------------------
# the helper pool's contract


def test_ops_too_small_to_split_run_one_part_without_building_ranges(helpers, monkeypatch):
    rng = np.random.default_rng(44)
    x = T.Tensor(rng.standard_normal((4, 6, 8)), requires_grad=True, dtype=np.float32)
    gain, bias = (T.Tensor(rng.standard_normal(8), requires_grad=True, dtype=np.float32) for _ in range(2))
    w = T.Tensor(rng.standard_normal((8, 16)), requires_grad=True, dtype=np.float32)
    b = T.Tensor(rng.standard_normal(16), requires_grad=True, dtype=np.float32)

    def run():
        return _taped(lambda: T.linear(T.gelu(T.layer_norm(x, gain, bias)), w, b), [x, gain, bias, w, b])

    want = run()
    ranges = T._ranges

    def spy(*args):  # _column_sums blocks its rows with _ranges too
        assert sys._getframe(1).f_code.co_name != "_split", f"_split built _ranges{args}"
        return ranges(*args)

    monkeypatch.setattr(T, "_ranges", spy)
    _assert_bitwise(run(), want)
    assert T._POOL is None  # no op started the helpers


def _overflow_in_a_helper(monkeypatch, out):
    """Split out = x * 1e30 into 2 parts, of which only the second overflows.
    The caller's part waits until a helper has started that one; returns the
    thread that ran it."""
    x = np.ones(out.size, dtype=np.float32)
    x[out.size // 2 :] = 1e30
    started, who = threading.Event(), {}

    def body(lo, hi):
        if lo == 0:
            assert started.wait(timeout=30)
        else:
            who[lo] = threading.get_ident()
            started.set()
        np.multiply(x[lo:hi], np.float32(1e30), out=out[lo:hi])

    monkeypatch.setattr(T, "_PART", out.size // 2)
    try:
        T._split(body, out.size, out.size)
    finally:
        assert list(who) == [out.size // 2] and who[out.size // 2] != threading.get_ident()
    return who


def test_a_helper_part_keeps_the_callers_errstate(helpers, monkeypatch):
    out = np.empty(64, dtype=np.float32)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _overflow_in_a_helper(monkeypatch, out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning in the helper would fail its part
        with np.errstate(over="ignore"):
            _overflow_in_a_helper(monkeypatch, out)
    assert np.isinf(out[32:]).all() and np.isfinite(out[:32]).all()


def test_two_threads_splitting_at_once_finish_and_match_serial_calls(helpers, monkeypatch):
    rng = np.random.default_rng(42)
    xs = [T.Tensor(rng.standard_normal((64, 8, 33)), requires_grad=True, dtype=np.float32) for _ in range(2)]
    gain, bias = T.Tensor(np.ones(33), dtype=np.float32), T.Tensor(np.zeros(33), dtype=np.float32)
    # linear's forward (2 parts of 192 and 320 rows) and its VJP, on leaves of each thread's own
    ws = [T.Tensor(rng.standard_normal((33, 48)), requires_grad=True, dtype=np.float32) for _ in range(2)]
    bs = [T.Tensor(rng.standard_normal(48), requires_grad=True, dtype=np.float32) for _ in range(2)]
    g = rng.standard_normal((64, 8, 48)).astype(np.float32)

    def calls(i):
        x = xs[i]
        return [T.gelu(x).data, T.layer_norm(x, gain, bias).data, *_linear_and_vjp(x, ws[i], bs[i], g)]

    serial = _unsplit(monkeypatch, lambda: [calls(i) for i in range(2)])
    monkeypatch.setattr(T, "_PART", 1000)  # some 17 parts a call
    results = [[], []]
    start = threading.Barrier(2, timeout=30)

    def work(i):
        start.wait()
        for _ in range(20):
            results[i].append(calls(i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(serial, results):
        assert len(got) == 20
        for outs in got:
            assert all(np.array_equal(a, b) for a, b in zip(outs, want, strict=True))


def test_a_failed_part_raises_in_the_caller_once_every_part_has_finished(helpers, monkeypatch):
    monkeypatch.setattr(T, "_PART", 1)
    running, done = set(), []
    lock = threading.Lock()
    slow_started = threading.Event()

    def body(lo, hi):
        with lock:
            running.add(lo)
        try:
            if lo == 1:  # a helper's first part: still running when the caller's fails
                slow_started.set()
                threading.Event().wait(0.3)
            if lo == 0:
                assert slow_started.wait(timeout=30)
                raise ValueError("part 0 failed")
        finally:
            with lock:
                running.discard(lo)
                done.append(lo)

    with pytest.raises(ValueError, match="part 0 failed"):
        T._split(body, 8, 8)
    assert not running and 1 in done


def test_a_child_forked_after_the_pool_started_can_still_split(helpers, monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    monkeypatch.setattr(T, "_PART", 1000)
    x = T.Tensor(np.random.default_rng(43).standard_normal((64, 8, 33)), dtype=np.float32)
    want = T.gelu(x).data
    assert T._POOL  # started by that split
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: split, report, and leave without running pytest's teardown
        code = 1
        try:
            code = 0 if np.array_equal(T.gelu(x).data, want) and T._POOL else 2
        finally:
            os.write(write, bytes([code]))
            os._exit(code)
    os.close(write)
    deadline = threading.Event()
    code = b""
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        deadline.wait(0.1)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its split")
    code = os.read(read, 1)
    os.close(read)
    assert code == b"\x00" and os.waitstatus_to_exitcode(status) == 0
