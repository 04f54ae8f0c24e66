"""Parameter update rules: SGD, Adam, and Adamax.

Parameters, gradients and moments are flat lists of arrays in the order
of the weights file's tensor table, one moment array per tensor.  A step
returns fresh parameter arrays and never writes its input arrays.  L2
regularization is not applied here; it reaches the updates through the
loss gradient, so the optimizer sees a single gradient tensor per weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import Parameters

ALGORITHMS = ("sgd", "adam", "adamax")
BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment (Adam) or infinity-norm (Adamax) decay
EPSILON = 1e-8


@dataclass
class OptimizerState:
    algorithm: str
    learning_rate: float = 1e-3
    t: int = 0
    m: list = field(default_factory=list)  # first moments, per tensor
    v: list = field(default_factory=list)  # second moments or infinity norms

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown optimizer {self.algorithm!r}, expected one of {ALGORITHMS}"
            )
        # zero is the degenerate no-op rate (updates vanish exactly); NaN fails both comparisons
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")


def step(
    state: OptimizerState, params: Parameters, gradients: Parameters
) -> tuple[Parameters, OptimizerState]:
    """One update over all tensors; returns fresh parameter arrays.

    ``params`` and ``gradients`` are read, never written; only the
    moments in ``state`` (one array per tensor) update in place.  A
    gradient list whose length differs from the parameters' is a
    ValueError.

    Adam:   m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
            w <- w - lr * mhat / (sqrt(vhat) + eps)   (bias-corrected)
    Adamax: m as above;  u <- max(b2*u, |g|)
            w <- w - (lr / (1 - b1^t)) * m / (u + eps)
    SGD:    w <- w - lr * g
    """
    if not state.m:
        state.m = [np.zeros_like(w) for w in params]
        state.v = [np.zeros_like(w) for w in params]
    state.t += 1
    out: Parameters = []
    for k, (w, g, m, v) in enumerate(zip(params, gradients, state.m, state.v, strict=True)):
        if not np.all(np.isfinite(g)):
            name = "bias" if k % 2 else "weight"
            raise FloatingPointError(f"non-finite gradient for tensor {k} ({name})")
        if state.algorithm == "sgd":
            out.append(w - state.learning_rate * g)
            continue
        m *= BETA1
        m += (1.0 - BETA1) * g
        if state.algorithm == "adam":
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            mhat = m / (1.0 - BETA1**state.t)
            vhat = v / (1.0 - BETA2**state.t)
            out.append(w - state.learning_rate * mhat / (np.sqrt(vhat) + EPSILON))
        else:  # adamax
            np.maximum(BETA2 * v, np.abs(g), out=v)
            scale = state.learning_rate / (1.0 - BETA1**state.t)
            out.append(w - scale * m / (v + EPSILON))
    return out, state
