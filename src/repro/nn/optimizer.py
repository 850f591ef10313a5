"""Optimizers: SGD with momentum, and Adam (used for fine-tuning).

Both support an optional per-parameter ``mask`` so pruned weights stay
exactly zero through fine-tuning — the mask-enforcement the paper's
prune→fine-tune stages require (Alg. 1 line 21).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base: holds parameters and optional freeze-masks."""

    def __init__(self, params: list[Tensor]) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.masks: dict[int, np.ndarray] = {}

    def set_mask(self, param: Tensor, mask: np.ndarray) -> None:
        """Constrain ``param`` to the mask's support (False = frozen at 0)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != param.shape:
            raise ValueError(f"mask shape {mask.shape} != param shape {param.shape}")
        self.masks[id(param)] = mask
        param.data *= mask

    def zero_grad(self) -> None:
        """Clear gradients on all parameters."""
        for p in self.params:
            p.zero_grad()

    def _apply_mask(self, p: Tensor) -> None:
        mask = self.masks.get(id(p))
        if mask is not None:
            p.data *= mask

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with classical momentum."""

    def __init__(
        self, params: list[Tensor], lr: float = 0.01, momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update over all parameters with gradients."""
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g
            self._apply_mask(p)


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self, params: list[Tensor], lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8, weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        b1, b2 = betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        """One update over all parameters with gradients."""
        self._t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            m_hat = m / (1 - self.b1**self._t)
            v_hat = v / (1 - self.b2**self._t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            self._apply_mask(p)
