"""Reverse-mode automatic differentiation on numpy arrays.

The design is a classic explicit tape: forward ops compute with numpy and,
when a Tape is active, append an OpRecord (op name, input and output
tensors, saved activations). backward() replays the records in reverse,
accumulating vector-Jacobian products into leaf gradients.

Only the operations the model actually needs are implemented. Two of them
are fused: `linear` (matmul plus bias over the collapsed leading axes) and
`attention_probs` (softmax of scaled query-key scores). Each computes the
same bits as the chain of primitives it replaces, but keeps one tape record
and one buffer where the chain kept several. Everything runs in a single
dtype per graph (float32 by default; float64 is used for gradient
verification), and mixing dtypes raises instead of silently upcasting.
"""

from __future__ import annotations

import ctypes
import platform
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, ContractError, DimensionError, IndexRangeError

DEFAULT_DTYPE = np.float32

_INV_SQRT_2PI = 0.3989422804014327


class Tensor:
    """A numpy array plus gradient bookkeeping.

    `grad` is populated (for leaves with requires_grad=True) by backward();
    optimizers read and reset it.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


@dataclass
class OpRecord:
    """One taped operation: enough to run its VJP."""

    op: str
    inputs: tuple
    output: Tensor
    ctx: tuple


class Tape:
    """Records ops while active (as a context manager) for one backward pass."""

    def __init__(self):
        self.entries: list[OpRecord] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        if getattr(_TLS, "tape", None) is not None:
            raise ContractError("a Tape is already active; tapes do not nest")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _TLS.tape = None
        return False

    def record(self, op: str, inputs: tuple, output: Tensor, ctx: tuple) -> None:
        self.entries.append(OpRecord(op, inputs, output, ctx))


def _keep_freed_memory_mapped() -> None:
    """Have glibc keep the memory a freed tape returns, for the next step.

    A train step's tape holds a few hundred MB of activations, all freed at
    its end. By default glibc unmaps each freed block above its mmap
    threshold and trims the top of the heap, so the next step faults the
    same pages back in: some 30k minor faults per step of the default
    config. Raising the mmap threshold to the largest value glibc accepts
    on 64-bit (32 MiB) and the trim threshold to 1 GiB keeps those pages in
    the heap for reuse. The price is that the process keeps its heap
    high-water mark after a step; arrays over 32 MiB are still mmapped.
    Another platform, another libc or a failed call leaves the allocator as
    it is.
    """
    if platform.system() != "Linux" or platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_mmap_threshold, m_trim_threshold = -3, -1  # from glibc's <malloc.h>
    for param, value in ((m_mmap_threshold, 32 << 20), (m_trim_threshold, 1 << 30)):
        if mallopt(param, value) != 1:  # mallopt returns 1 on success
            return


_keep_freed_memory_mapped()


# Thread-local so concurrent trainers (hyperparameter search workers) each
# record onto their own tape.
_TLS = threading.local()

# op name -> fn(record, grad_out) -> per-input gradients (None = no gradient)
_BACKWARD: dict[str, Callable] = {}


def _vjp(name: str):
    def deco(fn):
        _BACKWARD[name] = fn
        return fn

    return deco


def _emit(op: str, inputs: tuple, out_data: np.ndarray, ctx: tuple = ()) -> Tensor:
    tape = getattr(_TLS, "tape", None)
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs
    out.grad = None
    if needs:
        tape.record(op, inputs, out, ctx)
    return out


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _check_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ContractError(
            f"{op}: mixed dtypes {a.data.dtype} and {b.data.dtype}; one graph, one dtype"
        )


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    if g.shape != tuple(shape):
        g = g.reshape(shape)
    return g


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b) -> Tensor:
    a_t, b_t = a, _as_tensor(b, a)
    _check_same_dtype(a_t, b_t, "add")
    try:
        np.broadcast_shapes(a_t.data.shape, b_t.data.shape)
    except ValueError:
        raise DimensionError(
            f"add: cannot broadcast {a_t.data.shape} with {b_t.data.shape}"
        ) from None
    return _emit("add", (a_t, b_t), a_t.data + b_t.data)


@_vjp("add")
def _add_bwd(rec: OpRecord, g: np.ndarray):
    a, b = rec.inputs
    return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)


def sub(a: Tensor, b) -> Tensor:
    return add(a, scale(_as_tensor(b, a), -1.0))


def mul(a: Tensor, b) -> Tensor:
    a_t, b_t = a, _as_tensor(b, a)
    _check_same_dtype(a_t, b_t, "mul")
    try:
        np.broadcast_shapes(a_t.data.shape, b_t.data.shape)
    except ValueError:
        raise DimensionError(
            f"mul: cannot broadcast {a_t.data.shape} with {b_t.data.shape}"
        ) from None
    return _emit("mul", (a_t, b_t), a_t.data * b_t.data, (a_t.data, b_t.data))


@_vjp("mul")
def _mul_bwd(rec: OpRecord, g: np.ndarray):
    a_data, b_data = rec.ctx
    a, b = rec.inputs
    ga = _unbroadcast(g * b_data, a.data.shape) if a.requires_grad else None
    gb = _unbroadcast(g * a_data, b.data.shape) if b.requires_grad else None
    return ga, gb


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _emit("scale", (a,), a.data * np.asarray(s, dtype=a.dtype), (s,))


@_vjp("scale")
def _scale_bwd(rec: OpRecord, g: np.ndarray):
    (s,) = rec.ctx
    return (g * np.asarray(s, dtype=g.dtype),)


# Eigen's float32 rational erf (generic_fast_erf_float): on z clamped to
# [-4, 4], erf(z) = z * P(z^2) / Q(z^2), coefficients highest degree first.
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02,
))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02,
))
# values per pass of _phi_float32: its four chunk-sized arrays (input, output,
# two scratch buffers) take 512 KiB, which stays in a core's L2 cache
_PHI_CHUNK = 1 << 15


def _horner(z2: np.ndarray, coeffs: tuple, out: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients (highest degree first) at z2, into out."""
    np.multiply(z2, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= z2
        out += c
    return out


def _phi_float32(x: np.ndarray) -> np.ndarray:
    """Gaussian CDF of a float32 array: 1/2 + erf(x / sqrt 2) / 2, clipped to [0, 1].

    The erf is Eigen's float32 rational, evaluated in place one chunk at a
    time so that each of its passes stays in cache. Every value is within
    3e-7 of the exact CDF, and Phi(0) is 0.5 exactly. The scratch buffers
    belong to the call, so concurrent calls share nothing.
    """
    out = np.empty(x.shape, dtype=np.float32)
    flat, phi = x.reshape(-1), out.reshape(-1)
    scratch = np.empty((2, min(flat.size, _PHI_CHUNK)), dtype=np.float32)
    for i in range(0, flat.size, _PHI_CHUNK):
        p = phi[i : i + _PHI_CHUNK]
        z, z2 = scratch[:, : p.size]
        np.multiply(flat[i : i + _PHI_CHUNK], 0.7071067811865476, out=z)
        np.clip(z, -4.0, 4.0, out=z)
        np.multiply(z, z, out=z2)
        _horner(z2, _ERF_P, out=p)
        p *= z
        p /= _horner(z2, _ERF_Q, out=z)
        p *= 0.5
        p += 0.5
        np.clip(p, 0.0, 1.0, out=p)
    return out


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the Gaussian CDF Phi, not the tanh approximation.

    float64, the gradient-verification dtype, takes Phi from scipy's exact
    `ndtr`; float32 takes the rational `_phi_float32`. Phi is kept for the
    VJP, g * (Phi + x * pdf(x)) with the exact pdf. So in float32 the VJP is
    not the exact derivative of the forward, whose Phi is approximate.
    """
    phi = _phi_float32(x.data) if x.data.dtype == np.float32 else ndtr(x.data)
    return _emit("gelu", (x,), x.data * phi, (x.data, phi))


@_vjp("gelu")
def _gelu_bwd(rec: OpRecord, g: np.ndarray):
    x, phi = rec.ctx
    # g * (Phi + x * pdf) in one buffer, each step in the order of the
    # unfused expression so the bits do not change
    d = np.asarray(-0.5 * x)
    d *= x
    np.exp(d, out=d)
    d *= np.asarray(_INV_SQRT_2PI, dtype=x.dtype)
    d *= x
    d += phi
    d *= g
    return (d,)


# ---------------------------------------------------------------------------
# matrix product


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul: operands must be at least 2-d, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions differ, {a.data.shape} x {b.data.shape}"
        )
    try:
        np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2])
    except ValueError:
        raise DimensionError(
            f"matmul: batch dimensions incompatible, {a.data.shape} x {b.data.shape}"
        ) from None
    _check_same_dtype(a, b, "matmul")
    return _emit("matmul", (a, b), np.matmul(a.data, b.data), (a.data, b.data))


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


@_vjp("matmul")
def _matmul_bwd(rec: OpRecord, g: np.ndarray):
    a_data, b_data = rec.ctx
    a, b = rec.inputs
    ga = gb = None
    if a.requires_grad:
        ga = _unbroadcast(np.matmul(g, _swap_last(b_data)), a_data.shape)
    if b.requires_grad:
        gb = _unbroadcast(np.matmul(_swap_last(a_data), g), b_data.shape)
    return ga, gb


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b on the last axis of x, as one GEMM over the collapsed leading axes."""
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise DimensionError(
            f"linear: weight must be [in, out] and bias [out], got {w.data.shape} and {b.data.shape}"
        )
    if x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(f"linear: input {x.data.shape} does not fit weight {w.data.shape}")
    _check_same_dtype(x, w, "linear")
    _check_same_dtype(x, b, "linear")
    flat = x.data.reshape(-1, w.data.shape[0])
    out = np.matmul(flat, w.data)
    out += b.data
    out = out.reshape(x.data.shape[:-1] + w.data.shape[1:])
    return _emit("linear", (x, w, b), out, (flat, w.data))


@_vjp("linear")
def _linear_bwd(rec: OpRecord, g: np.ndarray):
    flat, w = rec.ctx
    x, w_t, b_t = rec.inputs
    g = g.reshape(flat.shape[0], w.shape[1])
    gx = np.matmul(g, _swap_last(w)).reshape(x.data.shape) if x.requires_grad else None
    gw = np.matmul(_swap_last(flat), g) if w_t.requires_grad else None
    gb = g.sum(axis=0) if b_t.requires_grad else None
    return gx, gw, gb


# ---------------------------------------------------------------------------
# normalizers


def _softmax_fwd(x: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax of x along axis, into out (which may be x itself)."""
    # max-subtraction may hit -inf for astronomically spread inputs; exp
    # turns that into an exact 0, which is the right answer
    with np.errstate(over="ignore"):
        z = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def _softmax_vjp(g: np.ndarray, s: np.ndarray, axis: int) -> np.ndarray:
    """(g - sum(g * s)) * s along axis, in one new buffer."""
    out = g * s
    inner = out.sum(axis=axis, keepdims=True)
    np.subtract(g, inner, out=out)
    out *= s
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    s = _softmax_fwd(x.data, axis)
    return _emit("softmax", (x,), s, (s, axis))


@_vjp("softmax")
def _softmax_bwd(rec: OpRecord, g: np.ndarray):
    s, axis = rec.ctx
    return (_softmax_vjp(g, s, axis),)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse
    return _emit("log_softmax", (x,), out, (np.exp(out), axis))


@_vjp("log_softmax")
def _log_softmax_bwd(rec: OpRecord, g: np.ndarray):
    s, axis = rec.ctx
    return (g - s * g.sum(axis=axis, keepdims=True),)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    if x.data.shape[-1] < 1:
        raise DimensionError(f"layer_norm: empty last axis in {x.data.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    y = xc * inv
    out = y * gain.data + bias.data
    return _emit("layer_norm", (x, gain, bias), out, (y, inv, gain.data))


@_vjp("layer_norm")
def _layer_norm_bwd(rec: OpRecord, g: np.ndarray):
    y, inv, gain = rec.ctx
    x, gain_t, bias_t = rec.inputs
    dy = g * gain
    # d/dx of (x - mu)/sqrt(var + eps), means taken over the last axis
    gx = inv * (
        dy - dy.mean(axis=-1, keepdims=True) - y * (dy * y).mean(axis=-1, keepdims=True)
    )
    ggain = (g * y).reshape(-1, y.shape[-1]).sum(axis=0) if gain_t.requires_grad else None
    gbias = g.reshape(-1, g.shape[-1]).sum(axis=0) if bias_t.requires_grad else None
    return gx, ggain, gbias


# ---------------------------------------------------------------------------
# attention


def attention_probs(q: Tensor, k: Tensor, scale: float) -> Tensor:
    """softmax(scale * q @ k^T) over the last axis, built in one buffer.

    Bitwise equal to softmax(scale(matmul(q, transpose(k)))), but the raw
    and the scaled scores are never kept: the VJP needs only q, k^T and the
    probabilities.
    """
    if q.data.ndim < 2 or k.data.ndim != q.data.ndim or k.data.shape[:-2] != q.data.shape[:-2]:
        raise DimensionError(
            f"attention_probs: q and k need the same batch axes, got {q.data.shape} and {k.data.shape}"
        )
    if q.data.shape[-1] != k.data.shape[-1]:
        raise DimensionError(
            f"attention_probs: q and k differ in width, {q.data.shape} and {k.data.shape}"
        )
    _check_same_dtype(q, k, "attention_probs")
    s = float(scale)
    kt = _swap_last(k.data)
    p = np.matmul(q.data, kt)
    p *= np.asarray(s, dtype=p.dtype)
    _softmax_fwd(p, -1, out=p)
    return _emit("attention_probs", (q, k), p, (q.data, kt, p, s))


@_vjp("attention_probs")
def _attention_probs_bwd(rec: OpRecord, g: np.ndarray):
    q, kt, p, s = rec.ctx
    q_t, k_t = rec.inputs
    gs = _softmax_vjp(g, p, -1)
    gs *= np.asarray(s, dtype=gs.dtype)
    gq = np.matmul(gs, _swap_last(kt)) if q_t.requires_grad else None
    gk = _swap_last(np.matmul(_swap_last(q), gs)) if k_t.requires_grad else None
    return gq, gk


# ---------------------------------------------------------------------------
# regularizers


def _dropout_keep(mask: np.ndarray, p: float, dtype) -> np.ndarray:
    keep = mask.astype(dtype)
    keep /= np.asarray(1.0 - p, dtype=dtype)
    return keep


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout at rate p; the identity when rng is None.

    The tape keeps the bool mask, a quarter of a float32 keep array; the VJP
    rebuilds the scaled keep array from it with the forward's own ops.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must satisfy 0 <= p < 1, got {p=}")
    if rng is None or p == 0.0:
        return x
    mask = rng.random(x.data.shape) >= p
    return _emit("dropout", (x,), x.data * _dropout_keep(mask, p, x.dtype), (mask, p))


@_vjp("dropout")
def _dropout_bwd(rec: OpRecord, g: np.ndarray):
    mask, p = rec.ctx
    return (g * _dropout_keep(mask, p, g.dtype),)


# ---------------------------------------------------------------------------
# reductions and pooling


def maxpool(x: Tensor, axis: int) -> Tensor:
    if x.data.shape[axis] < 1:
        raise DimensionError(f"maxpool: empty axis {axis} in shape {x.data.shape}")
    idx = np.argmax(x.data, axis=axis)  # first index on ties
    out = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)
    return _emit("maxpool", (x,), out, (idx, axis))


@_vjp("maxpool")
def _maxpool_bwd(rec: OpRecord, g: np.ndarray):
    idx, axis = rec.ctx
    (x,) = rec.inputs
    gx = np.zeros_like(x.data)
    np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
    return (gx,)


def sum_all(x: Tensor) -> Tensor:
    return _emit("sum_all", (x,), np.asarray(x.data.sum(), dtype=x.dtype), (x.data.shape,))


@_vjp("sum_all")
def _sum_all_bwd(rec: OpRecord, g: np.ndarray):
    (shape,) = rec.ctx
    return (np.full(shape, g, dtype=g.dtype),)


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.data.size)


# ---------------------------------------------------------------------------
# lookups


def gather(table: Tensor, idx: np.ndarray, label: str = "table") -> Tensor:
    idx = np.asarray(idx)
    if table.data.ndim != 2:
        raise DimensionError(f"gather: table must be 2-d, got {table.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        bad = idx[(idx < 0) | (idx >= table.data.shape[0])][0]
        raise IndexRangeError(
            f"gather into {label}: id {int(bad)} outside [0, {table.data.shape[0]})"
        )
    return _emit("gather", (table,), table.data[idx], (idx, table.data.shape))


@_vjp("gather")
def _gather_bwd(rec: OpRecord, g: np.ndarray):
    idx, shape = rec.ctx
    gt = np.zeros(shape, dtype=g.dtype)
    np.add.at(gt, idx, g)
    return (gt,)


def interp_rows(
    table: Tensor,
    idx_lo: np.ndarray,
    idx_hi: np.ndarray,
    w_lo: np.ndarray,
    w_hi: np.ndarray,
) -> Tensor:
    """Weighted blend of two table rows per output row.

    Gradient flows only into the rows actually referenced, scaled by their
    weights. Weights are constants (no gradient), cast to the table dtype.
    """
    t = table.data
    if t.ndim != 2:
        raise DimensionError(f"interp_rows: table must be 2-d, got {t.shape}")
    n = t.shape[0]
    for nm, idx in (("idx_lo", idx_lo), ("idx_hi", idx_hi)):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexRangeError(f"interp_rows: {nm} outside [0, {n})")
    wl = np.asarray(w_lo, dtype=t.dtype)
    wh = np.asarray(w_hi, dtype=t.dtype)
    out = wl[:, None] * t[idx_lo] + wh[:, None] * t[idx_hi]
    return _emit("interp_rows", (table,), out, (idx_lo, idx_hi, wl, wh, t.shape))


@_vjp("interp_rows")
def _interp_rows_bwd(rec: OpRecord, g: np.ndarray):
    idx_lo, idx_hi, wl, wh, shape = rec.ctx
    gt = np.zeros(shape, dtype=g.dtype)
    np.add.at(gt, idx_lo, wl[:, None] * g)
    np.add.at(gt, idx_hi, wh[:, None] * g)
    return (gt,)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    return _emit("reshape", (x,), x.data.reshape(shape), (x.data.shape,))


@_vjp("reshape")
def _reshape_bwd(rec: OpRecord, g: np.ndarray):
    (shape,) = rec.ctx
    return (g.reshape(shape),)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    return _emit("transpose", (x,), x.data.transpose(axes), (tuple(axes),))


@_vjp("transpose")
def _transpose_bwd(rec: OpRecord, g: np.ndarray):
    (axes,) = rec.ctx
    return (g.transpose(np.argsort(axes)),)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise DimensionError("concat: no tensors given")
    first = parts[0]
    for p in parts[1:]:
        _check_same_dtype(first, p, "concat")
    sizes = tuple(p.data.shape[axis] for p in parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    return _emit("concat", tuple(parts), out, (sizes, axis))


@_vjp("concat")
def _concat_bwd(rec: OpRecord, g: np.ndarray):
    sizes, axis = rec.ctx
    cuts = np.cumsum(sizes)[:-1]
    return tuple(np.split(g, cuts, axis=axis))


def broadcast_rows(x: Tensor, n: int) -> Tensor:
    """Prepend a batch axis of length n (view; grad sums over it)."""
    out = np.broadcast_to(x.data, (n,) + x.data.shape)
    return _emit("broadcast_rows", (x,), out, ())


@_vjp("broadcast_rows")
def _broadcast_rows_bwd(rec: OpRecord, g: np.ndarray):
    return (g.sum(axis=0),)


# ---------------------------------------------------------------------------
# reverse sweep


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate leaf gradients for everything `loss` depends on.

    Gradients accumulate into Tensor.grad (+=), so callers reset grads
    between steps. A tape can be swept once.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if tape.consumed:
        raise ContractError("backward: tape already swept; record a fresh tape")
    tape.consumed = True

    # id -> (tensor, gradient); an op output's entry is complete, and popped,
    # at its own record, so what is left belongs to tensors no record produced
    grads: dict[int, tuple] = {id(loss): (loss, np.ones_like(loss.data))}
    for rec in reversed(tape.entries):
        entry = grads.pop(id(rec.output), None)
        if entry is None:
            continue
        parts = _BACKWARD[rec.op](rec, entry[1])
        for t, gi in zip(rec.inputs, parts):
            if gi is None or not t.requires_grad:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = (t, gi if acc is None else acc[1] + gi)

    for t, g in grads.values():
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g
