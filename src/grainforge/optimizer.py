"""Parameter update rules: SGD, Adam, and Adamax.

L2 regularization is not applied here; it reaches the updates through the
loss gradient, so the optimizer sees a single gradient tensor per weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import LayerParams, Parameters

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
        # zero is allowed as the degenerate no-op rate (updates vanish exactly)
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")


def _init_slots(state: OptimizerState, params: Parameters) -> None:
    for lp in params.layers:
        if lp is None:
            state.m.append(None)
            state.v.append(None)
        else:
            state.m.append(
                (np.zeros_like(lp.weight), np.zeros_like(lp.bias))
            )
            state.v.append(
                (np.zeros_like(lp.weight), np.zeros_like(lp.bias))
            )


def step(
    state: OptimizerState, params: Parameters, gradients: Parameters
) -> tuple[Parameters, OptimizerState]:
    """One update over all tensors; returns fresh parameter arrays.

    Adam:   m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
            w <- w - lr * mhat / (sqrt(vhat) + eps)   (bias-corrected)
    Adamax: m as above;  u <- max(b2*u, |g|)
            w <- w - (lr / (1 - b1^t)) * m / (u + eps)
    SGD:    w <- w - lr * g
    """
    if not state.m:
        _init_slots(state, params)
    state.t += 1
    out = Parameters([None] * len(params.layers))
    for i, (lp, gp) in enumerate(zip(params.layers, gradients.layers)):
        if lp is None:
            continue
        new = []
        for slot, (w, g) in enumerate(((lp.weight, gp.weight), (lp.bias, gp.bias))):
            if not np.all(np.isfinite(g)):
                name = "weight" if slot == 0 else "bias"
                raise FloatingPointError(
                    f"non-finite gradient for layer {i} {name}"
                )
            if state.algorithm == "sgd":
                new.append(w - state.learning_rate * g)
                continue
            m = state.m[i][slot]
            v = state.v[i][slot]
            m *= BETA1
            m += (1.0 - BETA1) * g
            if state.algorithm == "adam":
                v *= BETA2
                v += (1.0 - BETA2) * np.square(g)
                mhat = m / (1.0 - BETA1**state.t)
                vhat = v / (1.0 - BETA2**state.t)
                new.append(w - state.learning_rate * mhat / (np.sqrt(vhat) + EPSILON))
            else:  # adamax
                np.maximum(BETA2 * v, np.abs(g), out=v)
                scale = state.learning_rate / (1.0 - BETA1**state.t)
                new.append(w - scale * m / (v + EPSILON))
        out.layers[i] = LayerParams(new[0], new[1])
    return out, state
