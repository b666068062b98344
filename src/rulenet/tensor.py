"""Reverse-mode automatic differentiation on numpy arrays.

The design is a classic explicit tape: forward ops compute with numpy and,
when a Tape is active, append an OpRecord (op name, inputs, output, saved
activations). backward() replays the records in reverse, accumulating
vector-Jacobian products into leaf gradients. A record keeps only what its
VJP reads: the arrays in its ctx, and a data-free Node for its output and
for every input but a leaf that needs a gradient. So an activation that no
VJP reads is freed as soon as the model code drops it.

Only the operations the model actually needs are implemented. Three of
them are fused, and each computes the same bits as the chain of ops it
replaces, forward and backward, with one tape record where the chain kept
several:
- `linear` (matmul plus bias over the collapsed leading axes) keeps its
  input, or, when that is a layer_norm output of the same tape, the norm's
  y, gain and bias, from which its VJP rebuilds the input;
- `attention` (split heads, softmax of scaled query-key scores, the
  probabilities' product with v, merged heads) keeps the heads' views of
  q, k^T and v, and its VJP rebuilds the probabilities a part at a time;
- `feed_forward` (layer_norm, linear, GELU, linear) keeps the norm's y and
  inv, GELU's derivative and GELU's output, which overwrites the first
  linear's output in place.
Everything runs in a single dtype per graph (float32 by default; float64
is used for gradient verification): _emit raises if an op's inputs and
output differ in dtype, instead of letting numpy cast silently.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import platform
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, IndexRangeError

DEFAULT_DTYPE = np.float32
# the dtypes a graph can run in, by name
DTYPES = {"float32": np.float32, "float64": np.float64}

_INV_SQRT_2PI = 0.3989422804014327


class Tensor:
    """A numpy array plus gradient bookkeeping.

    `grad` is populated (for leaves with requires_grad=True) by backward();
    optimizers read and reset it.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "norm")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in DTYPES.values():
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        # the tape's Node for this tensor, if a taped op produced it
        self.node: Optional[Node] = None
        # (y, gain, bias) if a taped layer_norm produced it (see linear)
        self.norm: Optional[tuple] = None

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


class Node:
    """A taped tensor as a record keeps it: shape, dtype and requires_grad, no data.

    `mark` is the mark of the tape whose op produced it, None for an input
    that needs no gradient.
    """

    __slots__ = ("shape", "dtype", "requires_grad", "mark")

    def __init__(self, shape: tuple, dtype, requires_grad: bool, mark: Optional[object]):
        self.shape, self.dtype, self.requires_grad, self.mark = shape, dtype, requires_grad, mark


@dataclass
class OpRecord:
    """One taped operation: enough to run its VJP, with its inputs and
    output as Tape.record keeps them."""

    op: str
    inputs: tuple
    output: Node
    ctx: tuple


class Tape:
    """Records ops while active (as a context manager) for one backward pass.

    Nothing links a tape's Nodes back to the tape (their `mark` is a plain
    object), so a tape dropped without backward frees its records at once,
    with no help from the cyclic garbage collector.
    """

    def __init__(self):
        self.entries: list[OpRecord] = []
        self.consumed = False
        self.mark = object()

    def __enter__(self) -> "Tape":
        if getattr(_TLS, "tape", None) is not None:
            raise ContractError("a Tape is already active; tapes do not nest")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _TLS.tape = None
        return False

    def record(self, op: str, inputs: tuple, output: Tensor, ctx: tuple) -> None:
        """Append op's record. It keeps an input as this tape's Node if this
        tape produced it, as the Tensor if it is a leaf that needs a gradient
        (an output of an earlier tape is one), and as a Node of its own
        otherwise."""
        mark = self.mark
        kept = []
        for t in inputs:
            node = t.node
            if node is not None and node.mark is mark:
                kept.append(node)
            elif t.requires_grad:
                kept.append(t)
            else:
                kept.append(Node(t.data.shape, t.data.dtype, False, None))
        output.node = Node(output.data.shape, output.data.dtype, True, mark)
        self.entries.append(OpRecord(op, tuple(kept), output.node, ctx))


def _keep_freed_memory_mapped() -> None:
    """Have glibc keep the memory a freed tape returns, for the next step.

    A train step's tape holds a few hundred MB of activations, which the
    backward frees record by record as it sweeps. By default glibc unmaps
    each freed block above its mmap threshold and trims the top of the
    heap, so the next step faults the same pages back in: some 30k minor
    faults per step of the default config. Raising the mmap threshold to
    the largest value glibc accepts on 64-bit (32 MiB) and the trim
    threshold to 1 GiB keeps those pages in the heap for reuse. The price
    is that the process keeps its heap high-water mark after a step; arrays
    over 32 MiB are still mmapped. Another platform, another libc or a
    failed call leaves the allocator as it is.
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


# ---------------------------------------------------------------------------
# splitting a kernel over the cores the process may run on

# values per block of dropout's draws and of _column_sums: a block's arrays,
# 128 KiB each in float32, stay in a core's L2 cache (one unblocked reduce
# of _column_sums ran 1.1-1.5x slower at [256, 64, 64])
_CHUNK = 1 << 15
# _column_sums reduces an input below this many bytes at once: its product
# then fits in L2, and blocking only costs (one reduce ran 0.75-0.95x the
# blocked time at [256, 8, 64] float32, 1.05-1.6x at 1 MiB and over)
_ONE_REDUCE_BYTES = 1 << 20
# values per part of a kernel split over threads: each numpy call of a part
# covers up to this many, so that handing the GIL from thread to thread costs
# little next to the call (with _CHUNK-sized calls two threads ran slower
# than one)
_PART = 1 << 17

_POOL_LOCK = threading.Lock()
# (executor, helper count) once the first split started it; False when the
# process may run on one core only
_POOL = None


def _helper_count() -> int:
    """The cores this process may run on, less the caller's own."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def _helpers():
    global _POOL
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                n = _helper_count()
                _POOL = (ThreadPoolExecutor(n, thread_name_prefix="rulenet-part"), n) if n > 0 else False
    return _POOL


def _forget_helpers() -> None:
    """In a forked child, whose copy of the pool has no threads: start afresh."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _ranges(n: int, size: int, values: int) -> list:
    """Contiguous ranges covering range(n), each about `values` of the size
    values spread over n (the last may be shorter); (0, 0) if n is 0."""
    step = max(1, values * n // size) if size > values else max(1, n)
    return [(lo, min(lo + step, n)) for lo in range(0, max(1, n), step)]


def _split(body: Callable, n: int, size: int, scratch=None, beside: Optional[Callable] = None) -> None:
    """Run body(lo, hi) over contiguous ranges ("parts") covering range(n).

    n is the length of the axis split, an op's leading or flat axis, and
    size the value count of the op's largest array. When that holds two
    parts of _PART values or more, range(n) is cut into parts of about
    _PART values; otherwise body(0, n) runs once. If the process may run
    on more than one core, the parts go to a pool of helper threads, one
    per further core, started at the first such call. The caller runs the
    first part, then each part no helper has started (on one core, all of
    them), so it never waits behind another caller's parts and concurrent
    callers cannot deadlock. `beside()`, if given, is one more part, queued
    ahead of the others.

    A body must give each output value the same ops wherever its part
    starts, so the result is bitwise the same however the range is cut. A
    part runs in a copy of the caller's contextvars context, so the
    caller's np.errstate holds in it (numpy 2 keeps it there). It writes
    only into buffers the caller allocated: memory a helper allocates stays
    in its malloc arena, whose trim threshold is 1 GiB. With scratch =
    (dtype, values per row of n), body(lo, hi, buf) also gets a flat buffer
    of at least (hi - lo) rows that no other running part holds. The first
    exception of a part is raised, once no part is running.
    """
    if n < 2 or size < 2 * _PART:
        # one part: no ranges, scratch list or wrapper to build
        if beside is not None:
            beside()
        if scratch is None:
            body(0, n)
        else:
            body(0, n, np.empty(n * scratch[1], dtype=scratch[0]))
        return
    pool = _helpers()
    parts = _ranges(n, size, _PART)
    if scratch is not None:
        dtype, row = scratch
        width = (parts[0][1] - parts[0][0]) * row
        free = [np.empty(width, dtype=dtype) for _ in range(min(len(parts), pool[1] + 1 if pool else 1))]
        inner = body

        def body(lo, hi):
            buf = free.pop()
            try:
                inner(lo, hi, buf)
            finally:
                free.append(buf)

    jobs = [] if beside is None else [(beside,)]
    jobs += [(body, lo, hi) for lo, hi in parts[1:]]
    futures = [pool[0].submit(contextvars.copy_context().run, *job) if pool else None for job in jobs]
    errors = []
    try:
        body(*parts[0])
    except BaseException as e:  # re-raised below, once no part still writes
        errors.append(e)
    # the helpers take parts from the front; take back from the end
    for fut, job in zip(reversed(futures), reversed(jobs)):
        if fut is None or fut.cancel():
            if not errors:
                try:
                    job[0](*job[1:])
                except BaseException as e:
                    errors.append(e)
        elif fut.exception() is not None:  # waits for the part to finish
            errors.append(fut.exception())
    if errors:
        raise errors[0]


def _vjp(name: str):
    def deco(fn):
        _BACKWARD[name] = fn
        return fn

    return deco


def _tape_for(inputs: tuple) -> Optional[Tape]:
    """The active tape if an op on these inputs goes on it, else None."""
    tape = getattr(_TLS, "tape", None)
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _emit(op: str, inputs: tuple, out_data: np.ndarray, ctx: tuple = ()) -> Tensor:
    """op's output, taped if _tape_for(inputs); a ContractError unless each input has its dtype."""
    dtype = out_data.dtype
    for t in inputs:
        if t.data.dtype != dtype:
            raise ContractError(f"{op}: mixed dtypes {t.data.dtype} and {dtype}; one graph, one dtype")
    tape = _tape_for(inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = tape is not None
    out.grad = None
    out.node = out.norm = None
    if tape is not None:
        tape.record(op, inputs, out, ctx)
    return out


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


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


def _broadcastable(op: str, a: Tensor, b) -> Tensor:
    """b as a Tensor (of a's dtype, if a scalar); a DimensionError unless
    its shape broadcasts with a's."""
    b = _as_tensor(b, a)
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise DimensionError(f"{op}: cannot broadcast {a.data.shape} with {b.data.shape}") from None
    return b


def add(a: Tensor, b) -> Tensor:
    b = _broadcastable("add", a, b)
    a_d, b_d = a.data, b.data
    if a_d.shape != b_d.shape or a_d.ndim == 0:
        return _emit("add", (a, b), a_d + b_d)
    out = np.empty(a_d.shape, dtype=a_d.dtype)
    _split(lambda lo, hi: np.add(a_d[lo:hi], b_d[lo:hi], out=out[lo:hi]), out.shape[0], out.size)
    return _emit("add", (a, b), out)


@_vjp("add")
def _add_bwd(rec: OpRecord, g: np.ndarray):
    a, b = rec.inputs
    return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


def sub(a: Tensor, b) -> Tensor:
    return add(a, scale(_as_tensor(b, a), -1.0))


def mul(a: Tensor, b) -> Tensor:
    b = _broadcastable("mul", a, b)
    return _emit("mul", (a, b), a.data * b.data, (a.data, b.data))


@_vjp("mul")
def _mul_bwd(rec: OpRecord, g: np.ndarray):
    a_data, b_data = rec.ctx
    a, b = rec.inputs
    ga = _unbroadcast(g * b_data, a.shape) if a.requires_grad else None
    gb = _unbroadcast(g * a_data, b.shape) if b.requires_grad else None
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
def _horner(z2: np.ndarray, coeffs: tuple, out: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients (highest degree first) at z2, into out."""
    np.multiply(z2, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= z2
        out += c
    return out


def _phi_float32(x: np.ndarray, out=None, z=None, z2=None) -> np.ndarray:
    """Gaussian CDF of a float32 array: 1/2 + erf(x / sqrt 2) / 2, clipped to [0, 1].

    The erf is Eigen's float32 rational, evaluated in place in out, with z
    and z2 as scratch; each is a new array shaped as x if None. Every value
    is within 3e-7 of the exact CDF, and Phi(0) is 0.5 exactly.
    """
    out, z, z2 = (np.empty(x.shape, dtype=np.float32) if a is None else a for a in (out, z, z2))
    np.multiply(x, 0.7071067811865476, out=z, dtype=np.float32)
    np.clip(z, -4.0, 4.0, out=z)
    np.multiply(z, z, out=z2)
    _horner(z2, _ERF_P, out=out)
    out *= z
    out /= _horner(z2, _ERF_Q, out=z)
    out *= 0.5
    out += 0.5
    np.clip(out, 0.0, 1.0, out=out)
    return out


@functools.cache
def _ndtr() -> Callable:
    """scipy's exact Gaussian CDF, imported on the first float64 GELU, so
    that a float32 process never loads scipy."""
    try:
        from scipy.special import ndtr
    except ImportError as e:
        raise ConfigError(f"float64 GELU needs scipy.special.ndtr, which cannot be imported: {e}") from e
    return ndtr


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the Gaussian CDF Phi, not the tanh approximation.

    float64, the gradient-verification dtype, takes Phi from scipy's exact
    `ndtr`, imported on the caller's thread the first time a float64 GELU
    runs (a ConfigError if scipy is missing); float32 takes the rational
    `_phi_float32` and needs numpy alone. Under a tape the
    forward also computes the derivative Phi + x * pdf(x), with the exact
    pdf, and the tape keeps only that: the VJP is one multiply. So in
    float32 the VJP is not the exact derivative of the forward, whose Phi
    is approximate. An untaped call computes no derivative. Both run on a
    copy of x, in place, in parts (see _split), Phi in a part's own scratch.
    """
    out = x.data.copy()
    d = None if _tape_for((x,)) is None else np.empty(x.data.shape, dtype=x.dtype)
    _gelu_fwd(out, d)
    return _emit("gelu", (x,), out, (d,))


def _gelu_fwd(x: np.ndarray, d: Optional[np.ndarray]) -> None:
    """x * Phi(x) into x, and Phi + x * pdf(x) into d unless it is None;
    x and d are contiguous and shaped alike."""
    xf = x.reshape(-1)
    df = None if d is None else d.reshape(-1)
    inv_sqrt_2pi = np.asarray(_INV_SQRT_2PI, dtype=x.dtype)
    f32 = x.dtype == np.float32
    ndtr = None if f32 else _ndtr()  # before _split: no import on a helper thread

    def part(lo, hi, buf):
        n = hi - lo
        xs, ps = xf[lo:hi], buf[:n]
        if f32:
            _phi_float32(xs, out=ps, z=buf[2 * n : 3 * n], z2=buf[n : 2 * n])
        else:
            ndtr(xs, out=ps)
        if df is not None:
            # Phi + x * pdf, each step in the order of the unfused expression
            ds = df[lo:hi]
            np.multiply(xs, -0.5, out=ds)
            ds *= xs
            np.exp(ds, out=ds)
            ds *= inv_sqrt_2pi
            ds *= xs
            ds += ps
        np.multiply(xs, ps, out=xs)

    _split(part, xf.size, xf.size, (x.dtype, 3 if f32 else 1))


@_vjp("gelu")
def _gelu_bwd(rec: OpRecord, g: np.ndarray):
    (d,) = rec.ctx
    return (np.multiply(g, d),)


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
    a_d, b_d = a.data, b.data
    if not _shared_batch(a_d, b_d):
        return _emit("matmul", (a, b), np.matmul(a_d, b_d), (a_d, b_d))
    out = np.empty(a_d.shape[:-1] + b_d.shape[-1:], dtype=a_d.dtype)
    _split(lambda lo, hi: np.matmul(a_d[lo:hi], b_d[lo:hi], out=out[lo:hi]),
           out.shape[0], max(a_d.size, b_d.size, out.size))
    return _emit("matmul", (a, b), out, (a_d, b_d))


def _shared_batch(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a @ b is a batch of matrix products over the same leading
    axes, which a split over the first of them leaves bitwise unchanged."""
    return a.ndim > 2 and a.shape[:-2] == b.shape[:-2]


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


@_vjp("matmul")
def _matmul_bwd(rec: OpRecord, g: np.ndarray):
    a_data, b_data = rec.ctx
    a, b = rec.inputs
    ga = gb = None
    if not _shared_batch(a_data, b_data):
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, _swap_last(b_data)), a_data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(_swap_last(a_data), g), b_data.shape)
        return ga, gb
    if a.requires_grad:
        ga = np.empty(a_data.shape, dtype=g.dtype)
    if b.requires_grad:
        gb = np.empty(b_data.shape, dtype=g.dtype)

    def part(lo, hi):
        if ga is not None:
            np.matmul(g[lo:hi], _swap_last(b_data[lo:hi]), out=ga[lo:hi])
        if gb is not None:
            np.matmul(_swap_last(a_data[lo:hi]), g[lo:hi], out=gb[lo:hi])

    _split(part, g.shape[0], max(a_data.size, b_data.size, g.size))
    return ga, gb


# A GEMM cut into row parts gives each output row the bits of the whole call
# only if every part starts where the BLAS kernel starts a row tile, and no
# part is a short tail (one row takes gemv). 192 = 8 * 24 is a multiple of
# the row tile of OpenBLAS's SkylakeX, Haswell and SandyBridge kernels, in
# float32 and float64 (64 is not: Haswell's float32 tile is 24 rows).
# Outputs narrower than _GEMM_MIN_COLS took other bits in some cut parts,
# so they are never cut.
_GEMM_ROWS = 192
_GEMM_MIN_COLS = 16


def _check_linear(op: str, x: Tensor, w: Tensor, b: Tensor, shape: Optional[tuple] = None) -> None:
    """A DimensionError unless w is [in, out], b [out] and the input (x, or
    of this shape) ends in in."""
    shape = x.data.shape if shape is None else shape
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise DimensionError(
            f"{op}: weight must be [in, out] and bias [out], got {w.data.shape} and {b.data.shape}"
        )
    if len(shape) < 1 or shape[-1] != w.data.shape[0]:
        raise DimensionError(f"{op}: input {shape} does not fit weight {w.data.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b on the last axis of x, as a GEMM over the collapsed leading axes.

    The GEMM is split (see _split) into parts of whole blocks of _GEMM_ROWS
    rows, the last block taking the remainder; each part adds the bias to
    its own rows. If x is the output of a layer_norm on the same tape, the
    record keeps that norm's y, gain and bias, which the norm's record holds
    anyway, not x: the VJP rebuilds x = y * gain + bias with the norm's own
    two ops, so the bits are the same.
    """
    _check_linear("linear", x, w, b)
    flat = x.data.reshape(-1, w.data.shape[0])
    out = _linear_fwd(flat, w.data, b.data).reshape(x.data.shape[:-1] + w.data.shape[1:])
    tape = _tape_for((x, w, b))
    if tape is not None and x.norm is not None and x.node.mark is tape.mark:
        return _emit("linear", (x, w, b), out, (*x.norm, w.data))
    return _emit("linear", (x, w, b), out, (flat, w.data))


def _linear_fwd(flat: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """flat @ w + b for a 2-d flat, in parts of whole _GEMM_ROWS-row blocks."""
    rows, cols = flat.shape[0], w.shape[1]
    out = np.empty((rows, cols), dtype=flat.dtype)
    blocks = rows // _GEMM_ROWS

    def part(lo, hi):
        lo, hi = lo * _GEMM_ROWS, rows if hi == blocks else hi * _GEMM_ROWS
        os = out[lo:hi]
        np.matmul(flat[lo:hi], w, out=os)
        np.add(os, b, out=os)

    _split(part, blocks, max(flat.size, out.size) if cols >= _GEMM_MIN_COLS else 0)
    return out


@_vjp("linear")
def _linear_bwd(rec: OpRecord, g: np.ndarray):
    *source, w = rec.ctx
    x, w_t, b_t = rec.inputs
    g = g.reshape(-1, w.shape[1])
    gx = np.empty((g.shape[0], w.shape[0]), dtype=g.dtype) if x.requires_grad else None
    source = source[0].reshape(-1, w.shape[0]) if len(source) == 1 else tuple(source)
    gw, gb = _linear_vjp(g, w, source, gx, w_t.requires_grad, b_t.requires_grad)
    return None if gx is None else gx.reshape(x.shape), gw, gb


def _linear_vjp(g, w, source, gx, need_w: bool, need_b: bool, gx_job=None) -> tuple:
    """(gw, gb) of flat @ w + b for the 2-d output gradient g (each None if
    not needed), and gx = g @ w^T into gx unless it is None.

    source is flat, or (y, gain, bias) of the layer_norm whose output flat
    is. gx is one part, and gw = flat^T @ g with the bias sum the other (see
    _split): the calls of the unsplit VJP, side by side. The weights' part
    first rebuilds flat from (y, gain, bias), if given, with the norm's own
    two ops. gx_job, if given, is the other part in place of gx's.
    """
    gw = np.empty(w.shape, dtype=g.dtype) if need_w else None
    gb = np.empty(w.shape[1:], dtype=g.dtype) if need_b else None
    if isinstance(source, tuple):
        y, gain, bias = source
        flat = np.empty((g.shape[0], w.shape[0]), dtype=g.dtype)
    else:
        flat, y = source, None

    def weights():
        if gw is not None:
            if y is not None:
                np.multiply(y.reshape(flat.shape), gain, out=flat)
                np.add(flat, bias, out=flat)
            np.matmul(_swap_last(flat), g, out=gw)
        if gb is not None:
            np.sum(g, axis=0, out=gb)

    if gx is not None:
        gx_job = lambda: np.matmul(g, _swap_last(w), out=gx)  # noqa: E731
    jobs = [] if gx_job is None else [gx_job]
    if need_w or need_b:
        jobs.append(weights)
    _split(lambda lo, hi: [job() for job in jobs[lo:hi]], len(jobs), max(flat.size, g.size))
    return gw, gb


def feed_forward(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(layer_norm(x, gain, bias), w1, b1)), w2, b2) as one record.

    The same kernels in the same order, so the forward and every gradient
    have the bits of the unfused chain. GELU is written over w1's output in
    place, and the record keeps four arrays: the norm's y and inv, GELU's
    derivative d and its output a, the input of w2. The norm's output is
    not kept: the VJP rebuilds it from y, as linear does. The VJP writes the
    gradient of w1's output into d, a few row blocks at a time, so it needs
    no array as large as d of its own.
    """
    _check_linear("feed_forward", x, w1, b1)
    _check_linear("feed_forward", x, w2, b2, shape=w1.data.shape[1:])
    inputs = (x, gain, bias, w1, b1, w2, b2)
    normed, y, inv = _layer_norm_fwd(x.data, gain.data, bias.data)
    a = _linear_fwd(normed.reshape(-1, x.data.shape[-1]), w1.data, b1.data)
    del normed
    d = None if _tape_for(inputs) is None else np.empty(a.shape, dtype=a.dtype)
    _gelu_fwd(a, d)
    out = _linear_fwd(a, w2.data, b2.data).reshape(x.data.shape[:-1] + w2.data.shape[1:])
    return _emit("feed_forward", inputs, out, (y, inv, d, a, gain.data, bias.data, w1.data, w2.data))


@_vjp("feed_forward")
def _feed_forward_bwd(rec: OpRecord, g: np.ndarray):
    y, inv, d, a, gain, bias, w1, w2 = rec.ctx
    x, gain_t, bias_t, w1_t, b1_t, w2_t, b2_t = rec.inputs
    rows, hidden = a.shape
    g = g.reshape(rows, w2.shape[1])
    # the gradient of w1's output, (g @ w2^T) * d, into d: a GEMM over blocks
    # of whole _GEMM_ROWS-row blocks, the last taking the remainder, as
    # linear's forward cuts them (each row keeps the bits of one call),
    # through a buffer of one block of about _PART values
    step = _GEMM_ROWS * max(1, _PART // (_GEMM_ROWS * hidden))
    blocks = rows // step if hidden >= _GEMM_MIN_COLS else 0
    buf = np.empty((min(rows, 2 * step - 1) if blocks else rows, hidden), dtype=d.dtype)

    def hidden_grad():
        for i in range(max(blocks, 1)):
            lo, hi = i * step, rows if i >= blocks - 1 else (i + 1) * step
            t = buf[: hi - lo]
            np.matmul(g[lo:hi], _swap_last(w2), out=t)
            np.multiply(t, d[lo:hi], out=d[lo:hi])

    gw2, gb2 = _linear_vjp(g, w2, a, None, w2_t.requires_grad, b2_t.requires_grad, gx_job=hidden_grad)
    del buf, hidden_grad  # the buffer goes before the next VJP's arrays come
    gn = np.empty((rows, y.shape[-1]), dtype=d.dtype)  # d now holds the gradient of w1's output
    gw1, gb1 = _linear_vjp(d, w1, (y, gain, bias), gn, w1_t.requires_grad, b1_t.requires_grad)
    gx, ggain, gbias = _layer_norm_vjp(gn.reshape(y.shape), y, inv, gain, gain_t.requires_grad,
                                       bias_t.requires_grad)
    return gx, ggain, gbias, gw1, gb1, gw2, gb2


# ---------------------------------------------------------------------------
# normalizers


# a score matrix spread wider than this keeps a shift per query: with the
# matrix max as shift, a query's largest term is at least exp(-80), about
# 1.8e-35, above float32's smallest normal (about 1.2e-38), so no query's
# terms all underflow
_SHIFT_SPREAD = 80.0


def _row_sum(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Sums of a (or of a * b, which is never built) over the last axis, kept as length 1.

    einsum adds each row on its own, in less time per short row than
    add.reduce, and a row's sum does not depend on the other rows, their
    count or the blocking. (A gemv against ones would give a row other bits
    depending on where it sits.)
    """
    sums = np.einsum("...j->...", a) if b is None else np.einsum("...j,...j->...", a, b)
    return sums[..., None]


def _softmax_shift(x: np.ndarray) -> np.ndarray:
    """A shift at or above each max over the last axis, from inside its own matrix.

    With 3 or more axes, it is the max of each matrix over the last two axes
    (one long reduction, not one short one per query), unless that matrix
    spans more than _SHIFT_SPREAD or holds inf or nan: such a matrix keeps
    each query's own max. 1-d and 2-d inputs take the max per vector. A
    vector's bits thus depend on the other vectors of its matrix: a batch
    row is kept apart only if no axis of rows is among the last two.
    """
    if x.ndim < 3:
        return x.max(axis=-1, keepdims=True)
    # the initial values give a matrix with no entries a shift too
    hi = x.max(axis=(-2, -1), keepdims=True, initial=-np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        wide = ~(hi - x.min(axis=(-2, -1), keepdims=True, initial=np.inf) <= _SHIFT_SPREAD)[..., 0, 0]
    if not wide.any():
        return hi
    shift = np.repeat(hi, x.shape[-2], axis=-2)
    shift[wide] = x[wide].max(axis=-1, keepdims=True)
    return shift


def _softmax_fwd(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax of x over the last axis, into out (which may be x itself)."""
    # subtracting the shift may give -inf for astronomically spread inputs;
    # exp turns that into an exact 0, which is the right answer
    with np.errstate(over="ignore"):
        z = np.subtract(x, _softmax_shift(x), out=out)
    np.exp(z, out=z)
    z /= _row_sum(z)
    return z


def _softmax_vjp(g: np.ndarray, s: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(g - sum(g * s)) * s over the last axis, into out (a new buffer if None)."""
    out = np.subtract(g, _row_sum(g, s), out=out)
    out *= s
    return out


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
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis.

    Computed in place over parts of the leading axis (see _split), with
    the ops of the unsplit formula in its order, so the bits do not depend
    on the cut. The mean and the
    variance are row sums (_row_sum) divided by the width. A taped output
    carries (y, gain, bias) for a linear that reads it (see linear).
    """
    out, y, inv = _layer_norm_fwd(x.data, gain.data, bias.data, eps)
    normed = _emit("layer_norm", (x, gain, bias), out, (y, inv, gain.data))
    if normed.node is not None:
        normed.norm = (y, gain.data, bias.data)
    return normed


def _layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> tuple:
    """layer_norm's output, y = (x - mean) / sqrt(var + eps) and inv = 1 / sqrt(var + eps);
    a DimensionError if the last axis is empty."""
    shape, dtype = x.shape, x.dtype
    if shape[-1] < 1:
        raise DimensionError(f"layer_norm: empty last axis in {shape}")
    y = np.empty(shape, dtype=dtype)
    out = np.empty(shape, dtype=dtype)
    inv = np.empty(shape[:-1] + (1,), dtype=dtype)
    eps = np.asarray(eps, dtype=dtype)
    x2, y2, out2, inv2 = (np.atleast_2d(a) for a in (x, y, out, inv))

    def part(lo, hi):
        xs, ys, os, vs = x2[lo:hi], y2[lo:hi], out2[lo:hi], inv2[lo:hi]
        np.divide(_row_sum(xs), shape[-1], out=vs)  # mu
        np.subtract(xs, vs, out=ys)  # x - mu
        np.divide(_row_sum(ys, ys), shape[-1], out=vs)  # var
        vs += eps
        np.sqrt(vs, out=vs)
        np.divide(1.0, vs, out=vs)  # inv
        ys *= vs  # y
        np.multiply(ys, gain, out=os)
        os += bias

    _split(part, x2.shape[0], x2.size)
    return out, y, inv


@_vjp("layer_norm")
def _layer_norm_bwd(rec: OpRecord, g: np.ndarray):
    y, inv, gain = rec.ctx
    _, gain_t, bias_t = rec.inputs
    return _layer_norm_vjp(g, y, inv, gain, gain_t.requires_grad, bias_t.requires_grad)


def _layer_norm_vjp(g, y, inv, gain, need_gain: bool, need_bias: bool) -> tuple:
    """(gx, ggain, gbias) of layer_norm for the output gradient g; ggain and
    gbias are None if not needed."""
    width = y.shape[-1]
    g2, y2, inv2 = (np.atleast_2d(a) for a in (g, y, inv))
    ggain = gbias = None

    def sums():  # a part beside gx's
        nonlocal ggain, gbias
        if need_gain:
            ggain = _column_sums(g2, y2)
        if need_bias:
            gbias = g.reshape(-1, width).sum(axis=0)

    # inv * (dy - mean(dy) - y * mean(dy * y)) with dy = g * gain, means over
    # the last axis: d/dx of (x - mu) / sqrt(var + eps)
    gx = np.empty(y.shape, dtype=y.dtype)
    gx2 = np.atleast_2d(gx)

    def part(lo, hi, buf):
        ys, dx = y2[lo:hi], gx2[lo:hi]
        np.multiply(g2[lo:hi], gain, out=dx)  # dy
        dy_mean = _row_sum(dx) / width
        dyy_mean = _row_sum(dx, ys) / width
        dx -= dy_mean
        dx -= np.multiply(ys, dyy_mean, out=buf[: dx.size].reshape(dx.shape))
        dx *= inv2[lo:hi]

    n = gx2.shape[0]
    _split(part, n, gx2.size, (y.dtype, gx2.size // max(n, 1)), beside=sums)
    return gx, ggain, gbias


def _column_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums of a * b over every axis but the last, added row after row: one
    np.add.reduce over all rows, or from _ONE_REDUCE_BYTES on, the same
    order a cache-sized block of the leading axis at a time, where row 0 of
    each block carries the sum of the earlier blocks."""
    width = a.shape[-1]
    if a.nbytes < _ONE_REDUCE_BYTES:
        return np.add.reduce(np.multiply(a, b).reshape(-1, width), axis=0)
    total = None
    for lo, hi in _ranges(a.shape[0], a.size, _CHUNK):
        block = a[lo:hi]
        rows = np.empty((1 + block.size // width, width), dtype=a.dtype)
        np.multiply(block, b[lo:hi], out=rows[1:].reshape(block.shape))
        if total is None:
            total = np.add.reduce(rows[1:], axis=0)
        else:
            rows[0] = total
            np.add.reduce(rows, axis=0, out=total)
    return total


# ---------------------------------------------------------------------------
# attention


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, scale: float) -> Tensor:
    """Multi-head attention of q [rows, n_q, e] over k and v [rows, n_kv, e]:
    per head, softmax(scale * q @ k^T) @ v, the heads merged back to [rows, n_q, e].

    Run in parts over rows (see _split), each with its probabilities in the
    part's own scratch, with the calls of the unfused chain (split heads,
    scores, softmax, a matmul with v, merge heads) on the same views, so the
    bits are the chain's; the context is written straight into its merged
    layout. The record keeps the heads' views of q, k^T and v, and the VJP
    rebuilds each part's probabilities with the forward's calls: no array
    of heads * n_q * n_kv values per row is kept, nor made whole.
    """
    shapes = [t.data.shape for t in (q, k, v)]
    if (any(len(shape) != 3 for shape in shapes) or len({(shape[0], shape[2]) for shape in shapes}) != 1
            or shapes[1][1] != shapes[2][1] or n_heads < 1 or shapes[0][2] % n_heads):
        raise DimensionError(
            f"attention: q, k and v must be [rows, tokens, e] with the same rows and e, k and v "
            f"the same tokens, and e a multiple of {n_heads} heads; got {shapes}"
        )
    rows, n_q, e = shapes[0]
    s = float(scale)
    q_h, k_h, v_h = (_heads(t.data, n_heads) for t in (q, k, v))
    kt = _swap_last(k_h)
    out = np.empty((rows, n_q, e), dtype=q.dtype)
    out_h, sc = _heads(out, n_heads), np.asarray(s, dtype=q.dtype)

    def part(lo, hi, buf):
        np.matmul(_attention_probs(q_h[lo:hi], kt[lo:hi], sc, buf), v_h[lo:hi], out=out_h[lo:hi])

    block = n_heads * n_q * kt.shape[-1]
    _split(part, rows, max(rows * block, q.data.size, k.data.size), scratch=(q.dtype, block))
    return _emit("attention", (q, k, v), out, (q_h, kt, v_h, s))


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """[rows, tokens, e] as a [rows, heads, tokens, e / heads] view."""
    rows, tokens, e = x.shape
    return x.reshape(rows, tokens, n_heads, e // n_heads).swapaxes(1, 2)


def _attention_probs(q: np.ndarray, kt: np.ndarray, sc: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """softmax(sc * q @ kt) over the last axis, in the front of the flat buf."""
    shape = q.shape[:-1] + kt.shape[-1:]
    p = buf[: math.prod(shape)].reshape(shape)
    np.matmul(q, kt, out=p)
    p *= sc
    return _softmax_fwd(p, out=p)


@_vjp("attention")
def _attention_bwd(rec: OpRecord, g: np.ndarray):
    q, kt, v, s = rec.ctx
    q_t, k_t, v_t = rec.inputs
    rows, heads, n_q, _ = q.shape
    n_kv = kt.shape[-1]
    g = _heads(g, heads)
    sc = np.asarray(s, dtype=g.dtype)
    gq, gv = (np.empty(t.shape, dtype=g.dtype) if t.requires_grad else None for t in (q_t, v_t))
    # contiguous, so that each GEMM writes its output with unit last stride
    gkt = np.empty(kt.shape, dtype=g.dtype) if k_t.requires_grad else None
    gq_h, gv_h = (None if a is None else _heads(a, heads) for a in (gq, gv))
    block = heads * n_q * n_kv

    def part(lo, hi, buf):
        p = _attention_probs(q[lo:hi], kt[lo:hi], sc, buf)
        gp = buf[p.size : 2 * p.size].reshape(p.shape)
        np.matmul(g[lo:hi], _swap_last(v[lo:hi]), out=gp)
        if gv_h is not None:
            np.matmul(_swap_last(p), g[lo:hi], out=gv_h[lo:hi])
        _softmax_vjp(gp, p, out=gp)
        gp *= sc
        if gq_h is not None:
            np.matmul(gp, _swap_last(kt[lo:hi]), out=gq_h[lo:hi])
        if gkt is not None:
            np.matmul(_swap_last(q[lo:hi]), gp, out=gkt[lo:hi])

    _split(part, rows, max(rows * block, g.size, kt.size), scratch=(g.dtype, 2 * block))
    gk = None if gkt is None else _swap_last(gkt).swapaxes(1, 2).reshape(k_t.shape)
    return gq, gk, gv


# ---------------------------------------------------------------------------
# regularizers


def _dropout_apply(mask: np.ndarray, p: float, x: np.ndarray) -> np.ndarray:
    """x * keep, with keep = mask.astype(x.dtype) / (1 - p), in one new
    buffer and split over the leading axis."""
    out = np.empty(x.shape, dtype=x.dtype)
    o1, m1, x1 = (np.atleast_1d(a) for a in (out, mask, x))
    rate = np.asarray(1.0 - p, dtype=x.dtype)

    def part(lo, hi):
        os = o1[lo:hi]
        np.copyto(os, m1[lo:hi])  # keep
        os /= rate
        os *= x1[lo:hi]  # products commute bitwise

    _split(part, o1.shape[0], out.size)
    return out


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout at rate p; the identity when rng is None.

    The mask keeps the draws rng.random(x.shape) >= p, drawn a cache-sized
    block at a time: Generator.random fills in order, so the stream and the
    bits are those of one draw, without its float64 array. The tape keeps
    the bool mask, a quarter of a float32 keep array; the VJP rebuilds the
    scaled keep array from it with the forward's own ops.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must satisfy 0 <= p < 1, got {p=}")
    if rng is None or p == 0.0:
        return x
    mask = np.empty(x.data.shape, dtype=bool)
    draws = np.empty(min(mask.size, _CHUNK))
    flat = mask.reshape(-1)
    for lo, hi in _ranges(flat.size, flat.size, _CHUNK):
        d = draws[: hi - lo]
        rng.random(out=d)
        np.greater_equal(d, p, out=flat[lo:hi])
    return _emit("dropout", (x,), _dropout_apply(mask, p, x.data), (mask, p))


@_vjp("dropout")
def _dropout_bwd(rec: OpRecord, g: np.ndarray):
    mask, p = rec.ctx
    return (_dropout_apply(mask, p, g),)


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
    gx = np.zeros(x.shape, dtype=x.dtype)
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
    between steps. A tape can be swept once: the sweep pops each record as
    its VJP has run, so the activations it kept are freed while the
    gradients grow, and the tape is empty at the end.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if tape.consumed:
        raise ContractError("backward: tape already swept; record a fresh tape")
    tape.consumed = True

    # id -> [node or leaf, gradient, owned]; an op output's entry is
    # complete, and popped, at its own record, so what is left belongs to
    # leaves. A VJP's array may alias another (add hands the same g to both
    # inputs; reshape and transpose return views), so sums go in place only
    # into a buffer this sweep allocated itself.
    start = loss.node if loss.node is not None and loss.node.mark is tape.mark else loss
    grads: dict[int, list] = {id(start): [start, np.ones_like(loss.data), True]}
    while tape.entries:
        rec = tape.entries.pop()
        entry = grads.pop(id(rec.output), None)
        if entry is not None:
            _accumulate(grads, rec.inputs, _BACKWARD[rec.op](rec, entry[1]))

    for t, g, _ in grads.values():
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g


def _accumulate(grads: dict, inputs: tuple, parts: tuple) -> None:
    """Add one VJP's gradients into the sweep's entries for its inputs (a
    function, so that a part summed away is freed before the next VJP)."""
    for t, gi in zip(inputs, parts):
        if gi is None or not t.requires_grad:
            continue
        acc = grads.get(id(t))
        if acc is None:
            grads[id(t)] = [t, gi, False]
        elif acc[2]:
            acc[1] += gi
        else:
            acc[1], acc[2] = acc[1] + gi, True
