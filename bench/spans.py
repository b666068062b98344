"""Spans around calls into rulenet's layers, for the traced benchmark run.

`Tracer` wraps every public function of each layer module, plus the class
methods listed in METHODS, wherever rulenet binds them (modules import each
other's functions by name), and puts the originals back on exit. Nothing
under src/ is edited and nothing is wrapped outside the `with` block.

A span is (id, parent, name, start, end, tag, thread). Ids grow in start
order, so a parent's id is smaller than its children's. A span opened on a
worker thread with nothing open on that thread takes as parent the span
open on the thread that entered the tracer (the study waiting on its pool).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional

LAYERS = ("data", "embedding", "model", "tensor", "training", "ensemble", "hpo", "checkpoint")

# class methods traced besides each layer's public module-level functions
METHODS = {
    "embedding": ("FeatureEmbeddings.embed_row",),
    "model": (
        "RuleNetModel.forward",
        "RuleNetModel.encoder_forward",
        "RuleNetModel.decoder_forward",
        "RuleNetModel.head_forward",
    ),
    "training": ("Trainer.__init__", "Trainer.run_until", "AdamW.step"),
}

# span name -> (position, keyword) of the argument kept as the span's tag
TAGS = {
    "model.RuleNetModel.forward": (2, "mode"),
    "training.Trainer.run_until": (1, "epoch_target"),
}

# the autodiff primitives: the tensor functions that emit a tape record
PRIMITIVES = (
    "add", "mul", "scale", "gelu", "matmul", "softmax", "log_softmax", "layer_norm",
    "dropout", "maxpool", "sum_all", "gather", "interp_rows", "reshape", "transpose",
    "concat", "broadcast_rows",
)


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    tag: object = None
    thread: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager: while active, calls into the layers record spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[tuple] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._home: Optional[list] = None

    # -- recording -----------------------------------------------------------

    def _state(self) -> tuple:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = ([], [], len(self._threads))  # open ids, finished spans, thread no
                self._threads.append(st)
            self._local.st = st
        return st

    def _parent(self, stack: list) -> Optional[int]:
        if stack:
            return stack[-1]
        home = self._home
        if home is not None and stack is not home:
            try:
                return home[-1]
            except IndexError:
                return None
        return None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stack, done, thread = self._state()
        parent, sid = self._parent(stack), next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            done.append(Span(sid, parent, name, t0, time.perf_counter(), None, thread))
            stack.pop()

    def _wrap(self, name: str, fn):
        tracer, ids, clock = self, self._ids, time.perf_counter
        pos_kw = TAGS.get(name)

        def tag_of(args, kwargs):
            if pos_kw is None:
                return None
            pos, kw = pos_kw
            return args[pos] if len(args) > pos else kwargs.get(kw)

        if inspect.isgeneratorfunction(fn):
            # one span per item drawn, so the time is spent where the
            # caller pulls the next batch, not when the generator is made
            # (tagged with the call's own serial number)
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                stack, done, thread = tracer._state()
                call = next(ids)
                while True:
                    parent, sid = tracer._parent(stack), next(ids)
                    stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        done.append(Span(sid, parent, name, t0, clock(), call, thread))
                        stack.pop()
                    yield item

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack, done, thread = tracer._state()
                parent, sid = tracer._parent(stack), next(ids)
                tag = tag_of(args, kwargs)
                stack.append(sid)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    done.append(Span(sid, parent, name, t0, clock(), tag, thread))
                    stack.pop()

        wrapper.bench_span = name
        return wrapper

    # -- installing ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._home = self._state()[0]
        modules = [m for n, m in list(sys.modules.items()) if n == "rulenet" or n.startswith("rulenet.")]
        wrapped = {}
        for name, owner, attr, fn in targets():
            if owner is None:
                wrapped[id(fn)] = (fn, self._wrap(name, fn))
            else:
                self._patch(owner, attr, fn, self._wrap(name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])
        return self

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for _, done, _ in self._threads:
            self.spans.extend(done)
        self.spans.sort(key=lambda s: s.id)
        return False


def targets():
    """(span name, owning class or None, attribute, function) for every traced callable."""
    for layer in LAYERS:
        mod = importlib.import_module(f"rulenet.{layer}")
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                yield f"{layer}.{attr}", None, attr, fn
        for qual in METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is not None and meth in vars(cls):
                yield f"{layer}.{qual}", cls, meth, vars(cls)[meth]


def leftover_wrappers() -> list:
    """Attributes of rulenet modules and classes still bound to a tracer wrapper."""
    found = []
    for n, mod in list(sys.modules.items()):
        if n != "rulenet" and not n.startswith("rulenet."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "bench_span"):
                found.append(f"{n}.{attr}")
            if inspect.isclass(value):
                found.extend(f"{n}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, "bench_span"))
    return found


# ---------------------------------------------------------------------------
# analysis


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> dict:
    """span id -> its duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.seconds - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def inherited(spans, pick) -> dict:
    """span id -> pick(span) of the nearest span at or above it where pick is not None."""
    out = {}
    for s in spans:  # sorted by id: parents come first
        own = pick(s)
        out[s.id] = own if own is not None else out.get(s.parent)
    return out
