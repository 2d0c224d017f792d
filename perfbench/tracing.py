"""Span tracing of resmaster from outside the package.

The package binds its imports with ``from .x import y``, so a function is
wrapped by replacing the name in the module that calls it, not in the module
that defines it. ``Tracer.installed()`` does that for every entry of
``TARGETS`` and restores the originals on exit, so untraced operations run the
unmodified code. Spans (name, start, end, parent span, thread) are kept in
memory; ``op_summary`` reduces one operation's spans to per-function busy
time, per-layer self time and work counts.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "netpbm", "conditioning", "pipeline", "denoiser",
          "attention", "schedule", "spectral", "noise", "tiler")

# (span name "<layer>.<function>", module whose binding is replaced, attribute)
TARGETS = (
    ("config.parse_config", "resmaster.cli", "parse_config"),
    ("netpbm.read_image", "resmaster.cli", "read_image"),
    ("netpbm.write_image", "resmaster.cli", "write_image"),
    ("conditioning.load_caption_manifest", "resmaster.cli", "load_caption_manifest"),
    ("pipeline.resmaster_generate", "resmaster.cli", "resmaster_generate"),
    ("pipeline.generate_low_res", "resmaster.cli", "generate_low_res"),
    ("conditioning.embed_text_stub", "resmaster.pipeline", "embed_text_stub"),
    ("conditioning.encode_image_prompt_stub", "resmaster.pipeline", "encode_image_prompt_stub"),
    ("noise.standard_normal_field", "resmaster.pipeline", "standard_normal_field"),
    ("schedule.predict_x0", "resmaster.pipeline", "predict_x0"),
    ("schedule.posterior_step", "resmaster.pipeline", "posterior_step"),
    ("spectral.swap_low_frequency", "resmaster.pipeline", "swap_low_frequency"),
    ("tiler.bicubic_upsample", "resmaster.pipeline", "bicubic_upsample"),
    ("tiler.extract_patch", "resmaster.pipeline", "extract_patch"),
    ("tiler.fuse_patches", "resmaster.pipeline", "fuse_patches"),
    ("attention.attend", "resmaster.denoiser", "attend"),
)
DENOISER_FACTORIES = ("analytic_gaussian_denoiser", "toy_conditioned_denoiser")
ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN, *(name for name, _, _ in TARGETS), "denoiser.predict")

# Work recorded at a span boundary, as a function of (args, result).
WORK = {
    "noise.standard_normal_field": lambda args, out: out.size,
    "denoiser.predict": lambda args, out: args[0].shape[0] * args[0].shape[1],
    "tiler.fuse_patches": lambda args, out: sum(p.nbytes for p in args[0]) + out.nbytes,
}
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int


class _DenoiserProxy:
    """Stands in for a denoiser so that its ``predict`` calls are spans."""

    def __init__(self, inner, predict):
        self._inner = inner
        self.predict = predict

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.fft_bytes: list[int] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread's first span hangs under the span the main thread has open.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(),
                                   work(args, out) if work else 0))
            return out

        return traced

    def _count_fft(self, fn):
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            self.fft_bytes.append(np.asarray(a).nbytes + out.nbytes)
            return out

        return counted

    def _wrap_factory(self, factory):
        def make(*args, **kwargs):
            inner = factory(*args, **kwargs)
            return _DenoiserProxy(inner, self.wrap("denoiser.predict", inner.predict))

        return make

    @contextlib.contextmanager
    def installed(self):
        """Replace every target binding with its traced wrapper, then restore."""
        saved = []

        def replace(module, attr, make):
            if not hasattr(module, attr):
                self.missing.append(f"{module.__name__}.{attr}")
                return
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))

        self.missing = []
        try:
            for name, module_name, attr in TARGETS:
                replace(importlib.import_module(module_name), attr,
                        lambda fn, name=name: self.wrap(name, fn))
            cli = importlib.import_module("resmaster.cli")
            for attr in DENOISER_FACTORIES:
                replace(cli, attr, self._wrap_factory)
            for attr in FFT_FUNCTIONS:
                replace(np.fft, attr, self._count_fft)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` as the root span of one operation; return
        (result, spans of the operation, FFT byte counts of the operation)."""
        self.spans, self.fft_bytes = [], []
        out = self.wrap(ROOT_SPAN, fn)(*args)
        spans, fft_bytes = self.spans, self.fft_bytes
        self.spans, self.fft_bytes = [], []
        return out, spans, fft_bytes


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of it that child spans cover."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: (s.end - s.start) - _covered(children[s.id]) for s in spans}


def op_summary(spans: list[Span], fft_bytes: list[int]) -> dict:
    """Reduce one operation's spans to times and exact work counts."""
    root = next(s for s in spans if s.name == ROOT_SPAN)
    wall = root.end - root.start
    own = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    work = dict.fromkeys(WORK, 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        if s.name in work:
            work[s.name] += s.work
        layer_self[s.name.split(".")[0]] += own[s.id]
    return {
        "wall": wall,
        "busy": busy,
        "layer_self": layer_self,
        "self_sum": sum(own.values()),
        "counts": {
            "spans": len(spans),
            "patch_steps": calls["denoiser.predict"],
            "predict_cells": work["denoiser.predict"],
            "noise_values": work["noise.standard_normal_field"],
            "fuse_bytes": work["tiler.fuse_patches"],
            "fft_count": len(fft_bytes),
            "fft_bytes": sum(fft_bytes),
            **{f"calls:{k}": v for k, v in calls.items()},
        },
    }
