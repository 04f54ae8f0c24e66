import math

import numpy as np
import pytest

from grainforge.network import Parameters
from grainforge.optimizer import OptimizerState, step
from grainforge.rng import Rng


def scalar_params(value: float) -> Parameters:
    return [np.array([[value]]), np.zeros(1)]


def scalar_grads(value: float) -> Parameters:
    return [np.array([[value]]), np.zeros(1)]


def param_array(rng: Rng) -> Parameters:
    """Two layers' weight and bias, in tensor-table order."""
    return [
        rng.normal(0, 1, (4, 3)),
        rng.normal(0, 1, (3,)),
        rng.normal(0, 1, (2, 2)),
        rng.normal(0, 1, (2,)),
    ]


def grads_like(params: Parameters, rng: Rng) -> Parameters:
    return [rng.normal(0, 1, p.shape) for p in params]


@pytest.mark.parametrize("algorithm", ["sgd", "adam", "adamax"])
def test_zero_gradients_leave_params_unchanged(algorithm, rng):
    params = param_array(rng)
    state = OptimizerState(algorithm=algorithm, learning_rate=0.1)
    updated, _ = step(state, params, [np.zeros_like(p) for p in params])
    for a, b in zip(params, updated, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("algorithm", ["sgd", "adam", "adamax"])
def test_step_never_writes_its_inputs(algorithm, rng):
    params = param_array(rng)
    state = OptimizerState(algorithm=algorithm, learning_rate=0.1)
    for _ in range(3):
        grads = grads_like(params, rng)
        params_before = [p.copy() for p in params]
        grads_before = [g.copy() for g in grads]
        updated, state = step(state, params, grads)
        for p, before in zip(params + grads, params_before + grads_before, strict=True):
            assert np.array_equal(p, before)
        assert all(u is not p for u, p in zip(updated, params, strict=True))
        params = updated


@pytest.mark.parametrize("algorithm", ["sgd", "adam", "adamax"])
def test_gradient_list_one_tensor_short_rejected(algorithm, rng):
    params = param_array(rng)
    state = OptimizerState(algorithm=algorithm, learning_rate=0.1)
    with pytest.raises(ValueError):
        step(state, params, grads_like(params, rng)[:-1])


def test_first_adam_step_magnitude_is_learning_rate():
    # at t=1 the bias corrections cancel the decay factors, so the update
    # is lr * g/(|g| + eps), i.e. lr in magnitude for any constant gradient
    for g in (0.001, 1.0, 250.0):
        lr = 0.05
        state = OptimizerState(algorithm="adam", learning_rate=lr)
        updated, _ = step(state, scalar_params(1.0), scalar_grads(g))
        delta = 1.0 - updated[0][0, 0]
        assert delta == pytest.approx(lr, rel=1e-4)


def test_adam_scale_invariance_at_t1(rng):
    params = param_array(rng)
    # magnitudes bounded away from 0: near-zero coordinates are dominated
    # by epsilon and the invariance bound does not apply to them
    grads = [np.sign(g) * np.clip(np.abs(g), 0.5, None) for g in grads_like(params, rng)]
    s1 = OptimizerState(algorithm="adam", learning_rate=1e-2)
    u1, _ = step(s1, params, grads)
    s2 = OptimizerState(algorithm="adam", learning_rate=1e-2)
    u2, _ = step(s2, params, [g * 37.5 for g in grads])
    for a, b in zip(u1, u2, strict=True):
        assert np.abs(a - b).max() < 1e-9


def test_adam_converges_on_scalar_quadratic():
    # minimize f(w) = (w - 3)^2 from w = 0; the loss gradient is 2(w - 3)
    state = OptimizerState(algorithm="adam", learning_rate=0.05)
    params = scalar_params(0.0)
    for _ in range(200):
        w = params[0][0, 0]
        params, state = step(state, params, scalar_grads(2 * (w - 3.0)))
    assert abs(params[0][0, 0] - 3.0) < 1e-2


def test_sgd_is_exact(rng):
    params = param_array(rng)
    grads = grads_like(params, rng)
    lr = 0.37
    state = OptimizerState(algorithm="sgd", learning_rate=lr)
    updated, _ = step(state, params, grads)
    for p, g, u in zip(params, grads, updated, strict=True):
        assert np.array_equal(u, p - lr * g)


def test_adamax_first_step_matches_formula():
    lr, b1, eps = 1e-3, 0.9, 1e-8
    g = 4.0
    state = OptimizerState(algorithm="adamax", learning_rate=lr)
    updated, _ = step(state, scalar_params(2.0), scalar_grads(g))
    # t=1: m = (1-b1) g, u = |g|, w -= lr/(1-b1) * m/(u + eps)
    expected = 2.0 - lr / (1 - b1) * ((1 - b1) * g) / (abs(g) + eps)
    assert updated[0][0, 0] == pytest.approx(expected, rel=1e-12)


def test_step_counter_increments():
    state = OptimizerState(algorithm="adam", learning_rate=1e-3)
    params = scalar_params(0.0)
    for expected in range(1, 6):
        params, state = step(state, params, scalar_grads(1.0))
        assert state.t == expected


def test_nonfinite_gradient_names_tensor():
    state = OptimizerState(algorithm="adam", learning_rate=1e-3)
    bad = [np.array([[np.nan]]), np.zeros(1)]
    with pytest.raises(FloatingPointError, match=r"tensor 0 \(weight\)"):
        step(state, scalar_params(0.0), bad)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -1e-3])
def test_learning_rate_outside_the_configs_bound_rejected(rate):
    # the bound TrainConfig.validate applies: finite and >= 0
    with pytest.raises(ValueError, match="learning rate must be finite and >= 0"):
        OptimizerState(algorithm="adam", learning_rate=rate)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError, match="unknown optimizer"):
        OptimizerState(algorithm="rmsprop", learning_rate=1e-3)
