"""AdamW with decoupled weight decay.

Gradient accumulation is the caller's job: step() applies whatever each
parameter's .grad holds. `training.train` sums the completed per-patient
gradients of a 32-patient window and sets the sums as .grad before each
step. Defaults follow the training recipe (lr 2e-4, weight decay 1e-5).
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tensor


class AdamW:
    def __init__(self, params: dict[str, Tensor], lr=2e-4, weight_decay=1e-5,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        """One update from the currently accumulated gradients."""
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is not None and g.shape != p.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
            if g is None:
                g = 0.0  # unreachable parameter: zero gradient
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
