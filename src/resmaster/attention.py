"""Decoupled cross-attention: text and image conditions attended separately,
summed with the image branch scaled by the bundle's weighting factor.

Single-head only. Queries and keys meet in the head width ``d_head``, which
sets the scaling denominator; values map to their own width ``d_value``, the
width of the output, so a network whose head is linear can fold its head
projection into the value projections.

``attend`` computes this folded: the query projection and the scale are
multiplied into the stacked text and image keys, so the scores of both
branches come from one matmul against the inputs, and the text values and
``lam``-scaled image values form one block for the output matmul. A bundle
and its weights do not change while a run attends with them at every step,
so the weights keep that fold and value block per bundle until the bundle
is freed. Scores are held token-major, ``(tokens, n)``, so each
branch's softmax reduces across a few contiguous rows. Both matmuls run
over blocks of queries small enough that BLAS computes them on the calling
thread.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conditioning import ConditionBundle
from .util import as_int, check_out


@dataclass(frozen=True)
class AttentionWeights:
    """Fixed projections for queries and for the text/image key-value branches.

    An instance also keeps what ``attend`` derives from it and each bundle it
    attends over, keyed by the bundle itself and held weakly: an entry leaves
    with its bundle, so a later bundle never finds it and no run leaves
    entries behind."""

    w_query: np.ndarray       # (d_model, d_head)
    w_key_text: np.ndarray    # (text_dim, d_head)
    w_value_text: np.ndarray  # (text_dim, d_value)
    w_key_image: np.ndarray   # (image_dim, d_head)
    w_value_image: np.ndarray # (image_dim, d_value)

    def __post_init__(self):
        frozen = {}
        for name in (f.name for f in dataclasses.fields(self)):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be a matrix, got shape {arr.shape}")
            arr.flags.writeable = False
            frozen[name] = arr
        d_head = frozen["w_query"].shape[1]
        for name in ("w_key_text", "w_key_image"):
            if frozen[name].shape[1] != d_head:
                raise ValueError(f"{name} maps to width {frozen[name].shape[1]}, expected d_head {d_head}")
        if frozen["w_value_text"].shape[1] != frozen["w_value_image"].shape[1]:
            raise ValueError("text and image value projections disagree on the value width")
        if frozen["w_key_text"].shape[0] != frozen["w_value_text"].shape[0]:
            raise ValueError("text key/value projections disagree on the condition dim")
        if frozen["w_key_image"].shape[0] != frozen["w_value_image"].shape[0]:
            raise ValueError("image key/value projections disagree on the condition dim")
        for name, arr in frozen.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_contexts", weakref.WeakKeyDictionary())

    @property
    def d_model(self) -> int:
        return self.w_query.shape[0]

    @property
    def d_head(self) -> int:
        return self.w_query.shape[1]

    @property
    def d_value(self) -> int:
        return self.w_value_text.shape[1]

    @property
    def text_dim(self) -> int:
        return self.w_key_text.shape[0]

    @property
    def image_dim(self) -> int:
        return self.w_key_image.shape[0]


def make_attention_weights(
    d_model: int,
    d_head: int,
    text_dim: int,
    image_dim: int,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> AttentionWeights:
    """Seeded Gaussian initialization, scaled by 1/sqrt(fan_in); the values
    map to ``d_head``."""
    d_model, d_head, text_dim, image_dim = (as_int(value, name, 1) for name, value in (
        ("d_model", d_model), ("d_head", d_head), ("text_dim", text_dim), ("image_dim", image_dim)))
    if rng is None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((as_int(seed, "seed", 0), 0xA77))))
    draw = lambda rows, cols: rng.normal(size=(rows, cols)) / math.sqrt(rows)
    return AttentionWeights(
        w_query=draw(d_model, d_head),
        w_key_text=draw(text_dim, d_head),
        w_value_text=draw(text_dim, d_head),
        w_key_image=draw(image_dim, d_head),
        w_value_image=draw(image_dim, d_head),
    )


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class _Context(NamedTuple):
    """What ``attend`` reads of one bundle under one set of weights."""

    fold: np.ndarray    # (tokens, d_model): W_q and the scale folded into the stacked keys
    values: np.ndarray  # (tokens, d_value): text values over lam-scaled image values


def _context(bundle: ConditionBundle, w: AttentionWeights) -> _Context:
    text, image = bundle.text, bundle.image
    if text.shape[1] != w.text_dim:
        raise ValueError(f"text embedding dim {text.shape[1]} != weights text_dim {w.text_dim}")
    if image.shape[1] != w.image_dim:
        raise ValueError(f"image embedding dim {image.shape[1]} != weights image_dim {w.image_dim}")
    keys = np.concatenate([text @ w.w_key_text, image @ w.w_key_image])
    values = np.concatenate([text @ w.w_value_text, bundle.lam * (image @ w.w_value_image)])
    return _Context((keys @ w.w_query.T) * (1.0 / math.sqrt(w.d_head)), values)


def attend(x: np.ndarray, bundle: ConditionBundle, w: AttentionWeights,
           out: np.ndarray | None = None) -> np.ndarray:
    """Queries from ``x`` attend over the text tokens and, weighted by
    ``bundle.lam``, over the image tokens; the two results are summed into
    an ``(n, d_value)`` array, or written into ``out``, a caller-owned
    float64 array of that shape, and returned. Every query is read before
    ``out`` is written, so ``out`` may be ``x``.

    Equal to ``softmax_rows(q k_t^T s) v_t + lam softmax_rows(q k_i^T s) v_i``
    with ``q = x W_q`` and ``s = 1/sqrt(d_head)``, reassociated as
    ``x (W_q k^T s)`` over the stacked keys.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be (n, d_model), got shape {x.shape}")
    if x.shape[1] != w.d_model:
        raise ValueError(f"x has width {x.shape[1]}, weights expect d_model {w.d_model}")
    n = x.shape[0]
    check_out(out, (n, w.d_value))
    context = w._contexts.get(bundle)
    if context is None:
        context = w._contexts[bundle] = _context(bundle, w)
    fold, values = context
    block = _query_block(fold.shape[0], max(w.d_model, w.d_value))
    scores = np.empty((fold.shape[0], n))  # (tokens, n): one column per query
    for lo in range(0, n, block):
        np.matmul(fold, x[lo : lo + block].T, out=scores[:, lo : lo + block])
    text_tokens = bundle.text.shape[0]
    for branch in (scores[:text_tokens], scores[text_tokens:]):
        branch -= branch.max(axis=0)
        np.exp(branch, out=branch)
        branch /= branch.sum(axis=0)
    if out is None:
        out = np.empty((n, w.d_value))
    for lo in range(0, n, block):
        np.matmul(scores[:, lo : lo + block].T, values, out=out[lo : lo + block])
    return out


# Largest matmul, in multiply-adds, that OpenBLAS runs on the calling thread.
# Above it OpenBLAS splits the product across its own threads; at these sizes
# that saves little time and makes each call wait on the other cores, so its
# duration follows their load.
BLAS_SINGLE_THREAD_MACS = 2**18


def _query_block(tokens: int, width: int) -> int:
    """Queries per matmul in ``attend``, so each product stays within
    ``BLAS_SINGLE_THREAD_MACS``."""
    return max(1, BLAS_SINGLE_THREAD_MACS // (tokens * width))
