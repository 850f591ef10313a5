"""Composite differentiable ops built on the Tensor primitives.

Everything here is a composition of :class:`~repro.nn.tensor.Tensor` ops, so
gradients come for free from the tape; numerical-gradient tests cover each
function.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "gelu",
    "tanh",
    "layer_norm",
    "dropout",
    "linear",
]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``.

    The max-shift is a constant (detached), which leaves gradients exact:
    softmax is shift-invariant.
    """
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    z = x - shift
    return z - z.exp().sum(axis=axis, keepdims=True).log()


def gelu(x: Tensor) -> Tensor:
    """GeLU (tanh approximation) — BERT's feed-forward activation."""
    inner = (x + x * x * x * 0.044715) * _SQRT_2_OVER_PI
    return x * (inner.tanh() + 1.0) * 0.5


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def layer_norm(
    x: Tensor, gamma: Tensor | None = None, beta: Tensor | None = None,
    eps: float = 1e-5,
) -> Tensor:
    """Layer normalisation over the last axis with optional affine."""
    mu = x.mean(axis=-1, keepdims=True)
    centred = x - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    out = centred / (var + eps).sqrt()
    if gamma is not None:
        out = out * gamma
    if beta is not None:
        out = out + beta
    return out


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at eval time."""
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(keep)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ W + b`` with ``W`` stored ``(in, out)``.

    The ``(in, out)`` layout matches the paper's GEMM orientation
    (activations ``A`` left-multiply the weight ``B``, Fig. 4), so the
    pruner's column pruning removes *output features* and row pruning
    removes *input features* per tile — exactly the semantics in §IV-A.
    """
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out
