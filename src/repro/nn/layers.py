"""Neural-network modules on the autodiff substrate.

A :class:`Module` owns named parameters and submodules, PyTorch-style but
minimal.  Prunable modules (``Linear``, ``Conv2d``, ``LSTMCell``) expose
their GEMM-view weight through ``gemm_weight()`` so the pruning driver and
the latency engines see the exact matrices the paper prunes (Conv2d reports
its im2col-lowered ``(C·KH·KW) × O`` matrix, per §VII-A).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.kernels.im2col import col2im, conv_output_shape, im2col
from repro.nn import functional as F
from repro.nn.tensor import Tensor

__all__ = [
    "Module",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Conv2d",
    "MaxPool2d",
    "Dropout",
    "LSTMCell",
]


class Module:
    """Base class: parameter registry, train/eval mode, recursion."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> Iterator[Tensor]:
        """All trainable tensors, depth first, deduplicated."""
        seen: set[int] = set()
        for p in self._parameters.values():
            if id(p) not in seen:
                seen.add(id(p))
                yield p
        for m in self._modules.values():
            for p in m.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    yield p

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """(name, module) pairs, depth first, including self."""
        yield prefix or type(self).__name__, self
        for name, m in self._modules.items():
            sub = f"{prefix}.{name}" if prefix else name
            yield from m.named_modules(sub)

    def zero_grad(self) -> None:
        """Clear every parameter gradient."""
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        """Enable training mode recursively."""
        self.training = True
        for m in self._modules.values():
            m.train()
        return self

    def eval(self) -> "Module":
        """Enable eval mode recursively."""
        self.training = False
        for m in self._modules.values():
            m.eval()
        return self

    def state_arrays(self) -> list[np.ndarray]:
        """Copies of all parameter payloads, in ``parameters()`` order.

        Together with :meth:`load_state_arrays` this gives cheap
        checkpoint/restore — the benchmark harness snapshots a trained
        model once and restores it before every pruning run.
        """
        return [p.data.copy() for p in self.parameters()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_arrays`."""
        params = list(self.parameters())
        if len(arrays) != len(params):
            raise ValueError(
                f"expected {len(params)} arrays, got {len(arrays)}"
            )
        for p, a in zip(params, arrays):
            if p.data.shape != a.shape:
                raise ValueError(
                    f"shape mismatch: parameter {p.data.shape} vs saved {a.shape}"
                )
            p.data[...] = a

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.steps = list(modules)
        for i, m in enumerate(modules):
            setattr(self, f"step{i}", m)

    def forward(self, x: Tensor) -> Tensor:
        for m in self.steps:
            x = m(x)
        return x


def _kaiming(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / max(fan_in, 1))


class Linear(Module):
    """Affine layer with the GEMM-orientation weight ``(in, out)``.

    This is the paper's prunable unit: the forward is exactly
    ``A(M×K) @ B(K×N)`` with ``B = self.weight``.
    """

    def __init__(
        self, in_features: int, out_features: int, bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            _kaiming(rng, in_features, (in_features, out_features)), requires_grad=True
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def gemm_weight(self) -> Tensor:
        """The ``K×N`` matrix the pruner operates on."""
        return self.weight


class Embedding(Module):
    """Token-id lookup table."""

    def __init__(
        self, num_embeddings: int, dim: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Tensor(rng.standard_normal((num_embeddings, dim)) * 0.02,
                             requires_grad=True)

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise ValueError("embedding id out of range")
        return Tensor.embedding(self.weight, ids)


class LayerNorm(Module):
    """Layer normalisation with learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, self.eps)


class Dropout(Module):
    """Inverted dropout (identity at eval time)."""

    def __init__(self, p: float = 0.1, seed: int = 0) -> None:
        super().__init__()
        if not (0.0 <= p < 1.0):
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self._rng)


class Conv2d(Module):
    """Convolution executed as im2col + GEMM (paper §II-B, §VII-A).

    The weight is *stored in the lowered layout* ``(C·KH·KW) × O`` — the
    matrix the paper prunes — and reshaped only for shape bookkeeping.
    im2col/col2im are registered as a primitive pair on the tape.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Tensor(
            _kaiming(rng, fan_in, (fan_in, out_channels)), requires_grad=True
        )
        self.bias = (
            Tensor(np.zeros(out_channels), requires_grad=True) if bias else None
        )

    def _im2col_tensor(self, x: Tensor) -> Tensor:
        kh = kw = self.kernel_size
        stride, padding = self.stride, self.padding
        x_shape = x.shape
        cols_data = im2col(x.data, kh, kw, stride, padding)

        def backward(g: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(col2im(g, x_shape, kh, kw, stride, padding))

        return Tensor._make(cols_data, (x,), backward)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected NCHW input with C={self.in_channels}, got {x.shape}"
            )
        n, _, h, w = x.shape
        oh, ow = conv_output_shape(h, w, self.kernel_size, self.kernel_size,
                                   self.stride, self.padding)
        cols = self._im2col_tensor(x)          # (N·OH·OW, C·KH·KW)
        out = F.linear(cols, self.weight, self.bias)  # (N·OH·OW, O)
        return out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def gemm_weight(self) -> Tensor:
        """The im2col-lowered ``(C·KH·KW) × O`` matrix the pruner sees."""
        return self.weight


class MaxPool2d(Module):
    """Max pooling with a window == stride (non-overlapping)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        k = self.kernel_size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"input {h}x{w} not divisible by pool {k}")
        oh, ow = h // k, w // k
        view = x.data.reshape(n, c, oh, k, ow, k)
        flat = view.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, k * k)
        arg = flat.argmax(axis=-1)
        out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

        def backward(g: np.ndarray) -> None:
            if not x.requires_grad:
                return
            gflat = np.zeros_like(flat)
            np.put_along_axis(gflat, arg[..., None], g[..., None], axis=-1)
            gx = (
                gflat.reshape(n, c, oh, ow, k, k)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w)
            )
            x._accumulate(gx)

        return Tensor._make(out_data, (x,), backward)


class LSTMCell(Module):
    """A fused-gate LSTM cell (paper Fig. 1's LSTM layer).

    The four gates are computed with two GEMMs against fused weight
    matrices ``w_ih (input, 4·hidden)`` and ``w_hh (hidden, 4·hidden)`` —
    the "native GEMM operations" of the LSTM layer that the NMT experiments
    prune.  Gate order: input, forget, cell(g), output.
    """

    def __init__(
        self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("sizes must be positive")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Tensor(
            _kaiming(rng, input_size, (input_size, 4 * hidden_size)), requires_grad=True
        )
        self.w_hh = Tensor(
            _kaiming(rng, hidden_size, (hidden_size, 4 * hidden_size)),
            requires_grad=True,
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias trick
        self.bias = Tensor(bias, requires_grad=True)

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor]
    ) -> tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = x @ self.w_ih + h_prev @ self.w_hh + self.bias
        hs = self.hidden_size
        i = gates[:, :hs].sigmoid()
        f = gates[:, hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs :].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def init_state(self, batch: int) -> tuple[Tensor, Tensor]:
        """Zero hidden/cell state for a batch."""
        z = np.zeros((batch, self.hidden_size))
        return Tensor(z.copy()), Tensor(z.copy())

    def gemm_weights(self) -> list[Tensor]:
        """The two prunable GEMM matrices."""
        return [self.w_ih, self.w_hh]
