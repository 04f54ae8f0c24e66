import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grainforge import explain, network, synthetic, tensor, training
from grainforge.network import (
    LayerSpec,
    NetworkSpec,
    NetworkError,
    WeightsFormatError,
    build_disease_cnn,
    build_rice_cnn,
)
from grainforge.optimizer import OptimizerState, step
from grainforge.rng import Rng


def mini_spec(num_classes=3):
    """8x8x1 two-conv network exercising every layer kind and activation."""
    return NetworkSpec(
        input_shape=(8, 8, 1),
        layers=(
            LayerSpec("conv2d", filters=3, activation="relu"),
            LayerSpec("maxpool2d"),
            LayerSpec("conv2d", filters=4, activation="relu"),
            LayerSpec("flatten"),
            LayerSpec("dense", units=6, activation="relu"),
            LayerSpec("dense", units=num_classes, activation="softmax"),
        ),
        num_classes=num_classes,
    )


RECORDED = {
    "canny": True, "segment": False, "canny_sigma": 1.5, "canny_low": 20.0, "canny_high": 60.0,
}


def recorded_spec():
    """mini_spec with the preprocessing settings and class names training records."""
    return replace(mini_spec(), preprocess=dict(RECORDED), classes=("a", "b", "c"))


def closed_form_param_count(spec):
    """Independent parameter formula walked over inferred shapes."""
    shape = spec.input_shape
    total = 0
    for layer in spec.layers:
        if layer.kind == "conv2d":
            total += 3 * 3 * shape[2] * layer.filters + layer.filters
            shape = (shape[0] - 2, shape[1] - 2, layer.filters)
        elif layer.kind == "maxpool2d":
            shape = (shape[0] // 2, shape[1] // 2, shape[2])
        elif layer.kind == "flatten":
            shape = (shape[0] * shape[1] * shape[2],)
        else:
            total += shape[0] * layer.units + layer.units
            shape = (layer.units,)
    return total


def infer_shapes(spec):
    """Output shape after each layer, from the plan the spec stored when it was built."""
    return [step.out_shape for step in spec.plan.steps]


def layer_param_counts(spec):
    """Trainable scalars per layer (0 for pool/flatten), from the stored tensor table."""
    counts = [0] * len(spec.layers)
    for entry in network._tensor_table(spec):
        counts[entry["layer"]] += math.prod(entry["shape"])
    return counts


def param_count(spec):
    return sum(layer_param_counts(spec))


def scalar_count(params):
    """Scalars held by the weight and bias arrays of ``params``."""
    return sum(p.size for p in params)


class TestArchitectures:
    def test_rice_per_layer_counts(self):
        assert layer_param_counts(build_rice_cnn()) == [
            896,
            0,
            18496,
            0,
            0,
            247840,
            165,
        ]

    def test_rice_total(self):
        assert param_count(build_rice_cnn()) == 267_397

    def test_rice_shapes(self):
        assert infer_shapes(build_rice_cnn()) == [
            (48, 48, 32),
            (24, 24, 32),
            (22, 22, 64),
            (11, 11, 64),
            (7744,),
            (32,),
            (5,),
        ]

    def test_disease_classes_and_first_conv(self):
        spec = build_disease_cnn()
        assert spec.num_classes == 4
        assert infer_shapes(spec)[0] == (222, 222, 32)

    def test_disease_param_count_closed_form(self):
        spec = build_disease_cnn()
        expected = closed_form_param_count(spec)
        assert param_count(spec) == expected == 5_594_756

    def test_single_dense_count(self):
        spec = NetworkSpec(
            input_shape=(1, 1, 10),
            layers=(
                LayerSpec("flatten"),
                LayerSpec("dense", units=5, activation="softmax"),
            ),
            num_classes=5,
        )
        assert param_count(spec) == 55

    def test_param_count_matches_initialized_scalars(self):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(0), dtype=np.float64)
        assert scalar_count(params) == param_count(spec)

    def test_invalid_specs_rejected(self):
        with pytest.raises(NetworkError):
            NetworkSpec(input_shape=(8, 8, 1), layers=(), num_classes=2)
        with pytest.raises(NetworkError, match="softmax"):
            NetworkSpec(
                input_shape=(1, 1, 4),
                layers=(LayerSpec("flatten"), LayerSpec("dense", units=2)),
                num_classes=2,
            )

    @pytest.mark.parametrize(
        "units, num_classes",
        [(2.0, 2), (2, 2.0), (True, 1)],
        ids=["float-units", "float-classes", "bool-units"],
    )
    def test_counts_built_in_code_must_be_integers(self, units, num_classes):
        # a float or a bool is no count, even where it equals one
        layers = (LayerSpec("flatten"), LayerSpec("dense", units=units, activation="softmax"))
        with pytest.raises(TypeError, match="must be integers"):
            NetworkSpec(input_shape=(1, 1, 4), layers=layers, num_classes=num_classes)


class TestForward:
    def test_batch_of_32_rice_probabilities(self, rng):
        spec = build_rice_cnn()
        params = network.init_parameters(spec, Rng(1), dtype=np.float32)
        batch = rng.normal(0, 1, (32, 50, 50, 3)).astype(np.float32)
        probs, _ = network.forward(spec, params, batch)
        assert probs.shape == (32, 5)
        assert np.abs(probs.sum(axis=1) - 1).max() < 1e-6
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_zero_params_uniform(self, rng):
        spec = mini_spec(num_classes=5)
        params = network.init_parameters(spec, Rng(2), dtype=np.float64)
        for p in params:
            p[:] = 0
        probs, _ = network.forward(spec, params, rng.normal(0, 1, (3, 8, 8, 1)))
        assert np.array_equal(probs, np.full((3, 5), 0.2))

    def test_single_equals_batch_of_one(self, rng):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(3), dtype=np.float64)
        x = rng.normal(0, 1, (8, 8, 1))
        single, _ = network.forward(spec, params, x)
        batched, _ = network.forward(spec, params, x[None])
        assert np.array_equal(single, batched[0])

    def test_row_sums_float64(self, rng):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(4), dtype=np.float64)
        probs, _ = network.forward(spec, params, rng.normal(0, 1, (6, 8, 8, 1)))
        assert np.abs(probs.sum(axis=1) - 1).max() < 1e-12

    def test_shape_mismatch(self, rng):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(5), dtype=np.float64)
        with pytest.raises(NetworkError, match="does not match input"):
            network.forward(spec, params, rng.normal(0, 1, (2, 9, 8, 1)))


class TestInit:
    @pytest.mark.parametrize("activation", ["relu", "none"])  # He-normal, Glorot-uniform
    def test_chunked_draws_equal_one_whole_draw(self, activation):
        # the disease dense layer holds 43264 x 128 weights, hundreds of chunks
        spec = build_disease_cnn()
        layers = list(spec.layers)
        layers[7] = replace(layers[7], activation=activation)
        spec = replace(spec, layers=tuple(layers))
        params = network.init_parameters(spec, Rng(21), dtype=np.float32)
        weight = params[6]
        assert weight.shape == (26 * 26 * 64, 128) and weight.size > network.INIT_CHUNK
        stream = Rng(21).child("layer7")
        fan_in, fan_out = weight.shape
        if activation == "relu":
            whole = stream.normal(0.0, np.sqrt(2.0 / fan_in), weight.shape)
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            whole = stream.uniform(-limit, limit, weight.shape)
        assert weight.dtype == np.float32
        assert weight.tobytes() == whole.astype(np.float32).tobytes()

    def test_disease_float32_peak_near_the_weights(self):
        spec = build_disease_cnn()
        tracemalloc.start()
        try:
            params = network.init_parameters(spec, Rng(22), dtype=np.float32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * sum(p.nbytes for p in params)


def relu_then_pool_reference(spec, params, batch, onehot, lam=0.0):
    """Probabilities and the gradients, in tensor-table order, in the original layer order.

    ReLU runs straight after its conv and the pool follows, with the input
    gradient computed at every conv; the network pools first and applies
    ReLU to the pooled values.
    """
    x, saved, tensors = batch, [], iter(params)
    for layer in spec.layers:
        if layer.kind == "maxpool2d":
            out, argmax = tensor.maxpool2d_batch(x)
            saved.append((x.shape, argmax))
        elif layer.kind == "flatten":
            out = x.reshape(len(x), -1, x.shape[-1])
            saved.append((x.shape, None))
        else:
            kernel = tensor.conv2d_batch if layer.kind == "conv2d" else tensor.dense_forward
            pre = kernel(x, next(tensors), next(tensors))
            out = pre
            if layer.activation == "relu":
                out = tensor.relu(pre)
            elif layer.activation == "softmax":
                out = tensor.softmax(pre)
            saved.append((x, pre))
        x = out
    probs = x
    dout = (probs - onehot.astype(probs.dtype)) / len(probs)
    grads, weights = [], iter(params[-2::-2])
    for i in range(len(spec.layers) - 1, -1, -1):
        layer, (a, b) = spec.layers[i], saved[i]
        if layer.kind == "maxpool2d":
            dout = tensor.maxpool2d_backward(a, b, dout)
        elif layer.kind == "flatten":
            dout = dout.reshape(a)
        else:
            if layer.activation == "relu":
                dout = tensor.relu_backward(b, dout)
            kernel = tensor.conv2d_backward if layer.kind == "conv2d" else tensor.dense_backward
            w = next(weights)
            dout, dw, db = kernel(a, w, dout)
            grads[:0] = (dw + 2.0 * lam * w if lam else dw, db)
    return probs, grads


def model_inputs(spec, params, case, batch_size, rng):
    """(params, batch) for one input case of the inference and layer-order tests."""
    shape = (batch_size, *spec.input_shape)
    batch = rng.normal(0, 1, shape)
    if case == "ties":
        # 4x4 blocks of {-1, 0, 1}: conv outputs repeat exactly across each block
        h, w, c = spec.input_shape
        coarse = rng.integers(-1, 2, (batch_size, -(-h // 4), -(-w // 4), c))
        batch = np.repeat(np.repeat(coarse, 4, axis=1), 4, axis=2)[:, :h, :w].astype(float)
    elif case == "non_positive":
        # even conv channels sit far below zero, so every pool window there is negative
        params = [p.copy() for p in params]
        for entry, p in zip(network._tensor_table(spec), params):
            if entry["name"] == "bias" and spec.layers[entry["layer"]].kind == "conv2d":
                p[::2] = -1e3
    elif case == "zeros":
        batch = np.zeros(shape)
    elif case == "nan":
        batch[:, 1, 2, 0] = np.nan
    return params, batch.astype(np.float32)


SPECS = {"rice": build_rice_cnn, "disease": build_disease_cnn, "mini": mini_spec}


class TestLayerOrderAndInference:
    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize("case", ["random", "ties", "non_positive", "zeros", "nan"])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_inference_probabilities_are_the_training_bytes(self, name, case, batch_size):
        spec = SPECS[name]()
        params = network.init_parameters(spec, Rng(31).child(name), dtype=np.float32)
        params, batch = model_inputs(spec, params, case, batch_size, Rng(32).child(case))
        trained, cache = network.forward(spec, params, batch)
        inferred, none = network.forward(spec, params, batch, train=False)
        assert none is None and len(cache) == len(spec.layers) + 1
        assert inferred.dtype == trained.dtype and inferred.tobytes() == trained.tobytes()
        if batch_size == 1:
            single, none = network.forward(spec, params, batch[0], train=False)
            assert none is None and single.tobytes() == trained[0].tobytes()
        if case == "nan":
            assert np.isnan(inferred).all()

    @pytest.mark.parametrize(
        "name, batch_size",
        [("mini", 1), ("mini", 4), ("rice", 1), ("rice", 4), ("disease", 1)],
    )
    @pytest.mark.parametrize("case", ["random", "ties", "non_positive", "zeros"])
    def test_gradients_equal_the_relu_then_pool_reference(self, name, case, batch_size):
        spec = SPECS[name]()
        params = network.init_parameters(spec, Rng(33).child(name), dtype=np.float32)
        params, batch = model_inputs(spec, params, case, batch_size, Rng(34).child(case))
        k = spec.num_classes
        onehot = np.eye(k, dtype=np.float32)[np.arange(batch_size) % k]
        probs, cache = network.forward(spec, params, batch)
        grads = network.backward(spec, params, cache, onehot, lam=1e-3)
        want_probs, want = relu_then_pool_reference(spec, params, batch, onehot, lam=1e-3)
        assert np.array_equal(probs, want_probs)
        for got, expect in zip(grads, want, strict=True):
            assert np.array_equal(got, expect)


def full_pools(spec, params, x):
    """The full forward's probabilities of one input and its leading pool outputs after ReLU."""
    batch, pools, tensors = x[None], [], iter(params)
    for step in spec.plan.steps[: 2 * spec.plan.patch_depth]:
        if step.layer.kind == "conv2d":
            batch = tensor.conv2d_batch(batch, next(tensors), next(tensors))
        else:
            batch, _ = tensor.maxpool2d_batch(batch, winners=False)
            batch = tensor.relu(batch) if step.activation == "relu" else batch
            pools.append(batch)
    probs, _ = network.forward(spec, params, x, train=False)
    return probs, pools


def assert_memo_is_exact(memo, spec, params, x):
    """The memo's probabilities and pool outputs for ``x`` are the full forward's bytes."""
    probs, pools = memo(x)
    want_probs, want = full_pools(spec, params, x)
    assert probs.dtype == want_probs.dtype and probs.tobytes() == want_probs.tobytes()
    assert len(pools) == len(want) == spec.plan.patch_depth
    for got, expect in zip(pools, want):
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()
    assert memo.nbytes <= network.MEMO_BYTES
    return pools


def pair_windows(spec):
    """The pool window count of each memoised pair, by the (h, w) of the pair's input."""
    shape, windows = spec.input_shape, {}
    for pool in spec.plan.steps[1 : 2 * spec.plan.patch_depth : 2]:
        windows[tuple(shape[:2])] = pool.out_shape[0] * pool.out_shape[1]
        shape = pool.out_shape
    return windows


@pytest.fixture
def tile_batches(monkeypatch):
    """The window count of every batch of 4x4 tiles the memo convolves, padded, in call order."""
    sizes = []

    def spy(x, kernels, bias):
        if x.shape[1:3] == (4, 4):  # one tile per recomputed pool window
            sizes.append(len(x))
        return tensor.conv2d_batch(x, kernels, bias)

    monkeypatch.setattr(network, "conv2d_batch", spy)
    return sizes


@pytest.fixture
def full_pairs(monkeypatch):
    """The (h, w) input of every (conv, pool) pair the memo runs in full, in call order."""
    shapes = []
    run = network._pool_windows

    def spy(x, where, pool, kernels, bias):
        if len(where) == pool.out_shape[0] * pool.out_shape[1]:
            shapes.append(x.shape[1:3])
        return run(x, where, pool, kernels, bias)

    monkeypatch.setattr(network, "_pool_windows", spy)
    return shapes


def coalition_inputs(spec, size, config, seed, method):
    """The network input of a shapes image, of its all-baseline copy and of every coalition
    that KernelSHAP or LIME draws at 100 samples over the image's SLIC segments."""
    image = synthetic.render_shape("disc", size, Rng(seed))
    superpixels = explain.slic_superpixels(image, 40 if size <= 64 else 100, 10.0, 10)
    baseline = explain.mean_baseline(image)
    masks = []

    def value(mask):
        masks.append(mask)
        return float(mask.sum())

    if method == "shap":
        explain.kernel_shap(value, superpixels.count, 100, Rng(seed))
    else:
        explain.lime_explain(value, superpixels.count, 100, 0.25, 1.0, Rng(seed))
    images = [image, np.full_like(image, baseline)]
    images += [explain.perturb(image, superpixels, mask, baseline) for mask in masks]
    return [training.preprocess(img[None], spec, config)[0] for img in images]


COALITION_CASES = pytest.mark.parametrize(
    "name, size, settings",
    [
        ("rice", 50, {"dtype": "f32"}),
        ("rice", 50, {"dtype": "f64"}),
        ("disease", 224, {"dtype": "f32"}),
        ("disease", 224, {"dtype": "f64"}),
        ("rice", 40, {"dtype": "f32"}),  # bilinear resize spreads each change
        ("rice", 50, {"dtype": "f32", "canny": True, "segment": True}),
    ],
    ids=["rice-f32", "rice-f64", "disease-f32", "disease-f64", "rice-40px", "canny-segment"],
)


def memo_calls(name, size, settings, method, tile_batches, full_pairs):
    """Every coalition call through one memo, each checked to be exact.

    Returns the share of the coalition calls' pool windows (all calls but the
    image's and the all-baseline copy's) that went through the conv kernels.
    """
    spec = SPECS[name]()
    config = training.TrainConfig(**settings)
    dtype = training.DTYPES[config.dtype]
    params = network.init_parameters(spec, Rng(41).child(name), dtype=dtype)
    memo = network.WindowMemo(spec, params)
    inputs = coalition_inputs(spec, size, config, 42, method)
    for i, x in enumerate(inputs):
        if i == 2:
            tile_batches.clear()
            full_pairs.clear()
        assert_memo_is_exact(memo, spec, params, x)
    windows = pair_windows(spec)
    computed = sum(tile_batches) + sum(windows[shape] for shape in full_pairs)
    return computed / (sum(windows.values()) * (len(inputs) - 2))


def memo_of(name, seed, dtype=np.float32):
    spec = SPECS[name]()
    params = network.init_parameters(spec, Rng(seed).child(name), dtype=dtype)
    return spec, params, network.WindowMemo(spec, params)


class TestWindowMemo:
    """A window memo gives the full forward's bytes, probabilities and pool outputs."""

    @COALITION_CASES
    def test_every_kernel_shap_coalition(self, name, size, settings, tile_batches, full_pairs):
        # after the image and its all-baseline copy the memo serves most windows
        computed = memo_calls(name, size, settings, "shap", tile_batches, full_pairs)
        assert 0 < computed < 0.2

    @COALITION_CASES
    def test_every_lime_coalition(self, name, size, settings, tile_batches, full_pairs):
        # a LIME mask keeps each segment with probability 1/2, yet a window's receptive
        # field covers few segments, so its input has mostly been seen before
        computed = memo_calls(name, size, settings, "lime", tile_batches, full_pairs)
        assert 0 < computed < 0.2

    @pytest.mark.parametrize("name", ["rice", "disease"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_changed_pixel_recomputes_padded_windows(self, name, dtype, tile_batches):
        spec, params, memo = memo_of(name, 43, dtype)
        reference = Rng(44).random(spec.input_shape).astype(dtype)
        assert_memo_is_exact(memo, spec, params, reference)
        h, w, _ = spec.input_shape
        for y, x in ((0, 0), (h - 1, w - 1), (h // 2, w // 3)):
            changed = reference.copy()
            changed[y, x, 1] += 0.5
            tile_batches.clear()
            assert_memo_is_exact(memo, spec, params, changed)
            assert tile_batches and max(tile_batches) <= 9
            if x == 0:
                # a corner pixel reaches one window of each pool, padded to 8 (32 im2col rows)
                assert tile_batches == [network.PATCH_MIN_WINDOWS] * spec.plan.patch_depth
            tile_batches.clear()
            assert_memo_is_exact(memo, spec, params, changed)  # seen before: nothing recomputed
            assert tile_batches == []

    @pytest.mark.parametrize("name", ["rice", "disease"])
    def test_fully_changed_image(self, name, tile_batches, full_pairs):
        spec, params, memo = memo_of(name, 45)
        *seen, changed = Rng(46).random((3, *spec.input_shape)).astype(np.float32)
        for x in seen:
            assert_memo_is_exact(memo, spec, params, x)
        full_pairs.clear()
        assert_memo_is_exact(memo, spec, params, changed)
        # every window misses: each pair runs in full
        assert tile_batches == [] and full_pairs == list(pair_windows(spec))

    @pytest.mark.parametrize("name", ["rice", "disease"])
    def test_later_pair_runs_in_full(self, name, tile_batches, full_pairs):
        # a changed pixel every 8 rows and columns reaches about a quarter of the first
        # pool's windows, but every 4x4 tile of that pool's output holds one of them
        spec, params, memo = memo_of(name, 54)
        reference = Rng(55).random(spec.input_shape).astype(np.float32)
        assert_memo_is_exact(memo, spec, params, reference)
        changed = reference.copy()
        changed[::8, ::8] += 0.5
        full_pairs.clear()
        pools = assert_memo_is_exact(memo, spec, params, changed)
        h, w, _ = spec.plan.steps[1].out_shape
        assert len(tile_batches) == 1 and tile_batches[0] <= h * w / 4
        assert full_pairs == list(pair_windows(spec))[1:] and len(pools) == spec.plan.patch_depth

    @pytest.mark.parametrize("name", ["rice", "disease"])
    def test_window_takes_the_output_of_whichever_call_it_matches(self, name, tile_batches):
        # the input is the first call's left of column 25 and the second's from there on:
        # only the first pool's windows whose 4x4 tile spans the seam, columns 11 and 12,
        # match neither, and the windows right of them take the second call's output
        spec, params, memo = memo_of(name, 56)
        first, second = Rng(57).random((2, *spec.input_shape)).astype(np.float32)
        assert_memo_is_exact(memo, spec, params, first)
        _, seen = memo(second)
        mixed = first.copy()
        mixed[:, 25:] = second[:, 25:]
        tile_batches.clear()
        pools = assert_memo_is_exact(memo, spec, params, mixed)
        h = spec.plan.steps[1].out_shape[0]
        assert tile_batches[0] == 2 * h
        right = pools[0][0, :, 13:]
        assert right.tobytes() == seen[0][0, :, 13:].tobytes()

    @pytest.mark.parametrize("name", ["rice", "disease"])
    def test_overflowing_weights(self, name, tile_batches):
        spec = SPECS[name]()
        params = network.init_parameters(spec, Rng(47).child(name), dtype=np.float32)
        # weights of +-1e38: sums overflow to +-inf, and inf - inf makes NaN
        params = [np.copysign(np.float32(1e38), p) for p in params]
        memo = network.WindowMemo(spec, params)
        reference = Rng(48).random(spec.input_shape).astype(np.float32)
        changed = reference.copy()
        changed[10:14, 20:30] = 0.25
        with np.errstate(over="ignore", invalid="ignore"):
            assert_memo_is_exact(memo, spec, params, reference)
            pools = assert_memo_is_exact(memo, spec, params, changed)
        assert tile_batches and np.isinf(pools[0]).any() and np.isnan(pools[-1]).any()

    @pytest.mark.parametrize("name", ["rice", "disease"])
    def test_nan_ties_keep_the_full_forward_corner_order(self, name, tile_batches):
        # +NaN at input (2i, 2j+1) and -NaN at (2i+1, 2j) lie in the receptive fields of
        # pool window (i, j)'s top-right and bottom-left conv pixels (and its top-left), not
        # in its bottom-right one: the window pools NaNs of both signs beside a finite value,
        # and the pooled sign bit shows the corner order that picked one
        spec, params, memo = memo_of(name, 49)
        reference = Rng(50).random(spec.input_shape).astype(np.float32)
        changed = reference.copy()
        for i, j in ((3, 4), (6, 9), (10, 2)):
            changed[2 * i, 2 * j + 1, 0] = np.nan
            changed[2 * i + 1, 2 * j, 0] = -np.nan
        assert_memo_is_exact(memo, spec, params, reference)
        pools = assert_memo_is_exact(memo, spec, params, changed)
        signs = np.signbit(pools[0][np.isnan(pools[0])])
        assert tile_batches and 0 < signs.sum() < len(signs)

    @pytest.mark.parametrize("name", ["rice", "disease"])
    @pytest.mark.parametrize(
        "first, second", [(0.0, -0.0), (np.nan, -np.nan)], ids=["signed-zeros", "nans"]
    )
    def test_values_with_other_bits_get_their_own_id(self, name, first, second, tile_batches):
        # +0.0 and -0.0 compare equal as floats, and a NaN equals nothing: ids compare bits,
        # so the second value is recomputed, and the first, seen again, is not
        spec, params, memo = memo_of(name, 58)
        reference = Rng(59).random(spec.input_shape).astype(np.float32)
        inputs = []
        for value in (first, second, first):
            x = reference.copy()
            x[6, 8, 2] = value
            inputs.append(x)
        assert_memo_is_exact(memo, spec, params, inputs[0])
        for x, recomputed in zip(inputs[1:], (True, False)):
            tile_batches.clear()
            assert_memo_is_exact(memo, spec, params, x)
            assert bool(tile_batches) == recomputed

    @pytest.mark.parametrize("name", ["rice", "mini-pool"])
    def test_noise_stream_stays_exact_within_the_budget(self, name, monkeypatch):
        # every call brings new values at every pixel: the memo fills its budget (or a
        # location's 255 ids), stores nothing more, and every call stays exact
        if name == "rice":
            monkeypatch.setattr(network, "MEMO_BYTES", 2**21)
            spec = SPECS["rice"]()
            calls = 30
        else:
            spec = NetworkSpec(
                input_shape=(10, 10, 3),
                layers=(
                    LayerSpec("conv2d", filters=3, activation="relu"),
                    LayerSpec("maxpool2d"),
                    LayerSpec("flatten"),
                    LayerSpec("dense", units=3, activation="softmax"),
                ),
                num_classes=3,
            )
            calls = 300  # past the 255 ids of a pixel location
        params = network.init_parameters(spec, Rng(60), dtype=np.float32)
        memo = network.WindowMemo(spec, params)
        h, w, c = spec.input_shape
        config = training.TrainConfig()
        for i in range(calls):
            noise = (Rng(61).child(str(i)).random((64, 64, 3)) * 255).astype(np.uint8)
            x = training.preprocess(noise[None], spec, config)[0]
            assert_memo_is_exact(memo, spec, params, x)
        if name == "rice":
            assert memo.nbytes > network.MEMO_BYTES * 0.9  # filled, never past it
        else:
            assert memo.pixel_table.count.max() == network.UNSTORED

    def test_other_layer_orders_run_in_full(self, tile_batches):
        spec = mini_spec()  # conv, pool, conv, flatten: the second conv has no pool
        assert spec.plan.patch_depth == 0
        params = network.init_parameters(spec, Rng(52), dtype=np.float32)
        memo = network.WindowMemo(spec, params)
        x = Rng(53).random(spec.input_shape).astype(np.float32)
        for _ in range(2):
            probs, pools = memo(x)
            plain, _ = network.forward(spec, params, x, train=False)
            assert pools == [] and probs.tobytes() == plain.tobytes() and tile_batches == []
        assert memo.nbytes == 0

    def test_forward_takes_one_inference_input_through_the_memo(self):
        spec, params, memo = memo_of("rice", 62)
        x = Rng(63).random(spec.input_shape).astype(np.float32)
        for batch, train in ((x[None], False), (x, True)):
            with pytest.raises(NetworkError, match="one"):
                network.forward(spec, params, batch, train=train, memo=memo)
        probs, pools = network.forward(spec, params, x, train=False, memo=memo)
        want, want_pools = full_pools(spec, params, x)
        assert probs.tobytes() == want.tobytes() and len(pools) == len(want_pools)
        with pytest.raises(NetworkError, match="input shape"):
            memo(x[:-1])
        with pytest.raises(NetworkError, match="dtype"):
            memo(x.astype(np.float64))


# Prints the probability bytes of full forwards of both architectures at three batch sizes,
# then of a 224 px image, its all-baseline copy and 20 LIME-style coalitions, each through
# one window memo and through the full forward.
THREADS_SCRIPT = """
import numpy as np
from grainforge import explain, network, synthetic, training
from grainforge.rng import Rng

for name, build in sorted(network.ARCHITECTURES.items()):
    spec = build()
    params = network.init_parameters(spec, Rng(70).child(name), dtype=np.float32)
    for size in (1, 8, 32):
        batch = Rng(71).child(str(size)).random((size, *spec.input_shape)).astype(np.float32)
        probs, _ = network.forward(spec, params, batch, train=False)
        print(name, size, probs.tobytes().hex())
spec = network.build_disease_cnn()
params = network.init_parameters(spec, Rng(70).child("disease"), dtype=np.float32)
image = synthetic.render_shape("disc", 224, Rng(72))
superpixels = explain.slic_superpixels(image, 100, 10.0, 10)
baseline = explain.mean_baseline(image)
masks = Rng(73).random((20, superpixels.count)) < 0.5
images = [image, np.full_like(image, baseline)]
images += [explain.perturb(image, superpixels, mask, baseline) for mask in masks]
memo = network.WindowMemo(spec, params)
for i, img in enumerate(images):
    x = training.preprocess(img[None], spec, training.TrainConfig())[0]
    probs, _ = memo(x)
    full, _ = network.forward(spec, params, x, train=False)
    print("memo", i, probs.tobytes().hex(), full.tobytes().hex())
"""


class TestBlasThreads:
    def test_probabilities_do_not_depend_on_the_thread_count(self):
        # the dense layer's window products and their fold, and the memo's stored products,
        # give the same bytes whether OpenBLAS runs on one thread or two
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
            )
            run = subprocess.run(
                [sys.executable, "-c", THREADS_SCRIPT],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout.splitlines())
        one, two = outputs
        assert len(one) == 6 + 22 and one == two
        for line in one[6:]:
            _, _, memo, full = line.split()
            assert memo == full


class TestLoss:
    def test_perfect_prediction_zero(self):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(6), dtype=np.float64)
        probs = np.array([[1.0, 0.0, 0.0]])
        onehot = np.array([[1.0, 0.0, 0.0]])
        assert network.loss(probs, onehot, params, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_five_way_is_ln5(self):
        spec = mini_spec(num_classes=5)
        params = network.init_parameters(spec, Rng(7), dtype=np.float64)
        probs = np.full((4, 5), 0.2)
        onehot = np.eye(5)[[0, 1, 2, 3]]
        assert network.loss(probs, onehot, params, 0.0) == pytest.approx(
            np.log(5), abs=1e-12
        )

    def test_zero_weights_no_penalty(self):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(8), dtype=np.float64)
        for w in params[::2]:
            w[:] = 0
        probs = np.full((1, 3), 1 / 3)
        onehot = np.array([[1.0, 0.0, 0.0]])
        with_l2 = network.loss(probs, onehot, params, 0.5)
        without = network.loss(probs, onehot, params, 0.0)
        assert with_l2 == without


def finite_difference_gradients(spec, params, batch, onehot, lam, h=1e-5):
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = network.forward(spec, params, batch)
            lu = network.loss(up, onehot, params, lam)
            flat[i] = orig - h
            dn, _ = network.forward(spec, params, batch)
            ld = network.loss(dn, onehot, params, lam)
            flat[i] = orig
            gflat[i] = (lu - ld) / (2 * h)
        grads.append(g)
    return grads


class TestBackward:
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_matches_central_differences(self, lam):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(123).child("init"), dtype=np.float64)
        batch = Rng(123).child("data").normal(0, 1, (4, 8, 8, 1))
        onehot = np.eye(3)[[0, 1, 2, 0]]
        probs, cache = network.forward(spec, params, batch)
        analytic = network.backward(spec, params, cache, onehot, lam)
        numeric = finite_difference_gradients(spec, params, batch, onehot, lam)
        worst = 0.0
        for ga, gn in zip(analytic, numeric, strict=True):
            rel = np.abs(ga - gn) / np.maximum.reduce(
                [np.abs(ga), np.abs(gn), np.full_like(gn, 1e-6)]
            )
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_zero_residual_zero_gradients(self, rng):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(9), dtype=np.float64)
        batch = rng.normal(0, 1, (2, 8, 8, 1))
        probs, cache = network.forward(spec, params, batch)
        grads = network.backward(spec, params, cache, probs, lam=0.0)
        for g in grads:
            assert np.all(g == 0)

    def test_l2_term_is_2_lam_w(self, rng):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(10), dtype=np.float64)
        batch = rng.normal(0, 1, (2, 8, 8, 1))
        onehot = np.eye(3)[[0, 1]]
        lam = 1e-2
        _, cache = network.forward(spec, params, batch)
        without = network.backward(spec, params, cache, onehot, 0.0)
        with_l2 = network.backward(spec, params, cache, onehot, lam)
        for w, g0, g1 in zip(params[::2], without[::2], with_l2[::2], strict=True):
            assert np.allclose(g1 - g0, 2 * lam * w, atol=1e-15)
        for b0, b1 in zip(without[1::2], with_l2[1::2], strict=True):
            assert np.array_equal(b1, b0)

    def test_one_adam_step_decreases_loss(self, rng):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(11), dtype=np.float64)
        batch = rng.normal(0, 1, (8, 8, 8, 1))
        onehot = np.eye(3)[rng.integers(0, 3, 8)]
        probs, cache = network.forward(spec, params, batch)
        before = network.loss(probs, onehot, params, 0.0)
        grads = network.backward(spec, params, cache, onehot, 0.0)
        state = OptimizerState(algorithm="adam", learning_rate=1e-4)
        new_params, _ = step(state, params, grads)
        after_probs, _ = network.forward(spec, new_params, batch)
        after = network.loss(after_probs, onehot, new_params, 0.0)
        assert after < before


class TestSerialization:
    def test_rice_round_trip_bit_exact(self, tmp_path):
        spec = build_rice_cnn()
        params = network.init_parameters(spec, Rng(12), dtype=np.float32)
        path = tmp_path / "rice.gfw"
        network.save_weights(spec, params, path)
        spec2, params2 = network.load_weights(path)
        assert spec2 == spec
        assert param_count(spec2) == 267_397
        for a, b in zip(params, params2, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", [mini_spec(), recorded_spec()], ids=["plain", "recorded"])
    def test_save_load_save_identical_bytes(self, tmp_path, spec):
        params = network.init_parameters(spec, Rng(13), dtype=np.float32)
        p1, p2 = tmp_path / "a.gfw", tmp_path / "b.gfw"
        network.save_weights(spec, params, p1)
        loaded, _ = network.load_weights(p1)
        assert loaded == spec
        network.save_weights(*network.load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_recorded_keys_leave_the_tensor_bytes(self, tmp_path):
        params = network.init_parameters(mini_spec(), Rng(13), dtype=np.float32)
        plain, recorded = tmp_path / "plain.gfw", tmp_path / "recorded.gfw"
        network.save_weights(mini_spec(), params, plain)
        network.save_weights(recorded_spec(), params, recorded)
        payload = 4 * scalar_count(params)
        assert plain.read_bytes()[-payload:] == recorded.read_bytes()[-payload:]
        (header_len,) = struct.unpack("<Q", recorded.read_bytes()[4:12])
        header = json.loads(recorded.read_bytes()[12 : 12 + header_len])
        assert header["version"] == 1
        assert header["preprocess"] == RECORDED
        assert header["classes"] == ["a", "b", "c"]
        spec, _ = network.load_weights(plain)
        assert spec.preprocess is None and spec.classes is None

    def test_empty_spec_rejected_at_save(self, tmp_path):
        with pytest.raises(NetworkError):
            empty = NetworkSpec(input_shape=(8, 8, 1), layers=(), num_classes=2)
            network.save_weights(empty, [], tmp_path / "x.gfw")

    @pytest.mark.parametrize("edit", ["missing", "extra", "swapped"])
    def test_params_off_the_tensor_table_rejected_at_save(self, tmp_path, edit):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(13), dtype=np.float32)
        if edit == "missing":
            params = params[:-1]
        elif edit == "extra":
            params = [*params, np.zeros(3, dtype=np.float32)]
        else:
            params[0], params[1] = params[1], params[0]
        expected = [tuple(t["shape"]) for t in network._tensor_table(spec)]
        path = tmp_path / "x.gfw"
        with pytest.raises(NetworkError, match=re.escape(f"expected {expected}")):
            network.save_weights(spec, params, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_non_finite_tensor_value_rejected(self, tmp_path, where, value):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(13), dtype=np.float32)
        path = tmp_path / "x.gfw"
        network.save_weights(spec, params, path)
        data = bytearray(path.read_bytes())
        (header_len,) = struct.unpack("<Q", data[4:12])
        # the first tensor's third value, or the last tensor's last value
        k, index = (0, 2) if where == "first" else (len(params) - 1, params[-1].size - 1)
        offset = 12 + header_len + 4 * (sum(p.size for p in params[:k]) + index)
        data[offset : offset + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        entry = network._tensor_table(spec)[k]
        with pytest.raises(WeightsFormatError) as info:
            network.load_weights(path)
        assert info.value.offset == offset
        assert str(info.value) == (
            f"tensors[{k}] {entry} holds the non-finite value {np.float32(value)} "
            f"(byte offset {offset})"
        )

    def test_truncated_file_errors(self, tmp_path):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(14), dtype=np.float32)
        path = tmp_path / "full.gfw"
        network.save_weights(spec, params, path)
        data = path.read_bytes()
        cut = tmp_path / "cut.gfw"
        cut.write_bytes(data[: len(data) - 17])
        with pytest.raises(WeightsFormatError, match="truncated"):
            network.load_weights(cut)

    def test_magic_and_version_errors(self, tmp_path):
        bad = tmp_path / "bad.gfw"
        bad.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(WeightsFormatError, match="magic"):
            network.load_weights(bad)
        versioned = tmp_path / "v2.gfw"
        versioned.write_bytes(b"GFW2" + bytes(16))
        with pytest.raises(WeightsFormatError, match="version"):
            network.load_weights(versioned)

    def test_trailing_bytes_rejected(self, tmp_path):
        spec = mini_spec()
        params = network.init_parameters(spec, Rng(15), dtype=np.float32)
        path = tmp_path / "pad.gfw"
        network.save_weights(spec, params, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(WeightsFormatError, match="trailing"):
            network.load_weights(path)

    @staticmethod
    def _with_header(tmp_path, edit, extra=b""):
        """A saved mini-spec weights file whose JSON header ``edit`` has changed.

        ``extra`` is appended to the tensor payload.
        """
        spec = recorded_spec()
        path = tmp_path / "w.gfw"
        network.save_weights(spec, network.init_parameters(spec, Rng(16), dtype=np.float64), path)
        data = path.read_bytes()
        (header_len,) = struct.unpack("<Q", data[4:12])
        header = json.loads(data[12 : 12 + header_len])
        edit(header)
        header_bytes = json.dumps(header).encode()
        path.write_bytes(
            data[:4] + struct.pack("<Q", len(header_bytes)) + header_bytes
            + data[12 + header_len :] + extra
        )
        return path

    def test_header_layout_is_pinned(self, tmp_path):
        # every key and value of a trained rice model's header; a new LayerSpec field
        # or table entry shows here rather than as a silent change of the format
        classes = ["arborio", "basmati", "ipsala", "jasmine", "karacadag"]
        spec = replace(build_rice_cnn(), preprocess=dict(RECORDED), classes=tuple(classes))
        path = tmp_path / "rice.gfw"
        network.save_weights(spec, network.init_parameters(spec, Rng(18), np.float32), path)
        data = path.read_bytes()
        (header_len,) = struct.unpack("<Q", data[4:12])

        def layer(kind, filters=0, units=0, activation="none"):
            return {"kind": kind, "filters": filters, "units": units, "activation": activation}

        def tensors(i, weight_shape):
            return [
                {"layer": i, "name": "weight", "shape": weight_shape},
                {"layer": i, "name": "bias", "shape": weight_shape[-1:]},
            ]

        expected = {
            "format": "grainforge-weights",
            "version": 1,
            "dtype": "f32",
            "input_shape": [50, 50, 3],
            "num_classes": 5,
            "layers": [
                layer("conv2d", filters=32, activation="relu"),
                layer("maxpool2d"),
                layer("conv2d", filters=64, activation="relu"),
                layer("maxpool2d"),
                layer("flatten"),
                layer("dense", units=32, activation="relu"),
                layer("dense", units=5, activation="softmax"),
            ],
            "tensors": [
                *tensors(0, [3, 3, 3, 32]),
                *tensors(2, [3, 3, 32, 64]),
                *tensors(5, [11 * 11 * 64, 32]),
                *tensors(6, [32, 5]),
            ],
            "preprocess": RECORDED,
            "classes": classes,
        }
        assert json.loads(data[12 : 12 + header_len]) == expected
        assert data[12 : 12 + header_len] == json.dumps(expected, sort_keys=True).encode()

    def test_unknown_layer_key_ignored(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h["layers"][0].update(stride=2))
        spec, _ = network.load_weights(path)
        assert spec == recorded_spec()

    @pytest.mark.parametrize("i", [0, -1], ids=["conv", "dense"])
    def test_layer_entry_without_units_rejected(self, tmp_path, i):
        # a conv's units are 0, so a reader that fell back to the default would load it
        path = self._with_header(tmp_path, lambda h: h["layers"][i].pop("units"))
        with pytest.raises(WeightsFormatError) as info:
            network.load_weights(path)
        assert str(info.value) == "JSON header lacks key 'units' (byte offset 12)"
        assert info.value.offset == 12

    def test_out_of_range_tensor_layer_rejected(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h["tensors"][0].update(layer=99))
        with pytest.raises(WeightsFormatError, match="'layer': 99.*byte offset 12"):
            network.load_weights(path)

    def test_missing_layers_key_rejected(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h.pop("layers"))
        with pytest.raises(WeightsFormatError, match="'layers'.*byte offset 12"):
            network.load_weights(path)

    def test_negative_tensor_shape_rejected(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h["tensors"][0].update(shape=[-1, 3]))
        with pytest.raises(WeightsFormatError, match=r"'shape': \[-1, 3\].*byte offset 12"):
            network.load_weights(path)

    def test_mistyped_header_parts_rejected(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h["tensors"].__setitem__(0, [1]))
        with pytest.raises(WeightsFormatError, match=r"tensors\[0\] is \[1\].*byte offset 12"):
            network.load_weights(path)
        for edit in (
            lambda h: h["layers"][-1].update(units="3"),
            # a float or a bool is no count, even where it equals one
            lambda h: (h.update(num_classes=3.0), h["layers"][-1].update(units=3.0)),
            lambda h: h.update(input_shape=[8.0, 8, 1]),
            lambda h: h["layers"][1].update(filters=True),
        ):
            path = self._with_header(tmp_path, edit)
            with pytest.raises(WeightsFormatError, match="malformed JSON header.*byte offset 12"):
                network.load_weights(path)
        path.write_bytes(b"GFW1" + struct.pack("<Q", 2) + b"[]")
        with pytest.raises(WeightsFormatError, match="not an object.*byte offset 12"):
            network.load_weights(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h["layers"][0].update(kind="conv3d"), "unknown kind 'conv3d'"),
            (lambda h: h["layers"][0].update(filters=5), r"expected .*'shape': \[3, 3, 1, 5\]"),
            (lambda h: h["tensors"][0].update(layer=1), r"tensors\[0\] is \{'layer': 1,"),
        ],
    )
    def test_layers_that_do_not_fit_the_tensors_rejected(self, tmp_path, edit, message):
        path = self._with_header(tmp_path, edit)
        with pytest.raises(WeightsFormatError, match=f"{message}.*byte offset 12"):
            network.load_weights(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.update(preprocess=None),
            lambda h: h.update(classes=["a", "b"]),
            lambda h: h.update(classes=["b", "a", "c"]),
            lambda h: h.update(classes=["a", "a", "c"]),
            lambda h: h.update(classes=["a", "b", 3]),
            lambda h: h.update(classes="abc"),
        ],
    )
    def test_bad_recorded_settings_rejected(self, tmp_path, edit):
        path = self._with_header(tmp_path, edit)
        with pytest.raises(WeightsFormatError, match="(preprocess|classes).*byte offset 12"):
            network.load_weights(path)

    @pytest.mark.parametrize(
        "edit, shown",
        [
            (lambda h: h.update(format="grainforge-weights-2"), "'grainforge-weights-2'"),
            (lambda h: h.update(format=1), "1"),
            (lambda h: h.pop("format"), "None"),  # a header without the key is no weights file
        ],
        ids=["other-name", "number", "missing"],
    )
    def test_other_format_rejected(self, tmp_path, edit, shown):
        path = self._with_header(tmp_path, edit)
        with pytest.raises(WeightsFormatError) as info:
            network.load_weights(path)
        assert info.value.offset == network.HEADER_START
        assert str(info.value) == (
            f"unsupported format {shown}, expected 'grainforge-weights' (byte offset 12)"
        )

    def test_preprocess_is_kept_as_an_opaque_object(self, tmp_path):
        # the CLI checks the recorded settings; load_weights only checks for an object
        path = self._with_header(tmp_path, lambda h: h.update(preprocess={"blur": [1.5]}))
        spec, params = network.load_weights(path)
        assert spec.preprocess == {"blur": [1.5]}
        network.save_weights(spec, params, tmp_path / "again.gfw")
        assert network.load_weights(tmp_path / "again.gfw")[0] == spec

    @pytest.mark.parametrize("name", ["wieght", ["weight"]])
    def test_unknown_tensor_name_rejected(self, tmp_path, name):
        path = self._with_header(tmp_path, lambda h: h["tensors"][0].update(name=name))
        message = re.escape(f"'name': {name!r}")
        with pytest.raises(WeightsFormatError, match=f"{message}.*byte offset 12"):
            network.load_weights(path)

    @pytest.mark.parametrize(
        "edit, extra, message",
        [
            # the first conv weight listed twice, with its 27 floats appended
            (lambda h: h["tensors"].insert(1, h["tensors"][0]), bytes(4 * 27),
             r"tensors\[1\] is .*'weight'"),
            (lambda h: h["tensors"].insert(0, h["tensors"].pop(1)), b"",
             r"tensors\[0\] is .*'bias'"),
            (lambda h: h["tensors"].pop(), b"", "7 entries, expected 8"),
            (lambda h: h["tensors"][0].update(layer=0.0), b"", r"tensors\[0\] is \{'layer': 0\.0,"),
            (lambda h: h["tensors"][0].update(layer=True), b"", r"tensors\[0\] is \{'layer': True,"),
            # true == 1 in Python, but not in the table's JSON
            (lambda h: h["tensors"][0].update(shape=[3, 3, True, 3]), b"",
             r"'shape': \[3, 3, True, 3\]"),
        ],
        ids=["repeated", "bias-first", "missing", "float-layer", "bool-layer", "bool-in-shape"],
    )
    def test_tensors_other_than_the_layer_table_rejected(self, tmp_path, edit, extra, message):
        path = self._with_header(tmp_path, edit, extra)
        with pytest.raises(WeightsFormatError, match=f"{message}.*byte offset 12"):
            network.load_weights(path)

    @pytest.mark.parametrize(
        "header_len",
        [lambda size: 0, lambda size: size + 1, lambda size: 2**63, lambda size: 2**64 - 1],
        ids=["zero", "file-size-plus-1", "2^63", "2^64-1"],
    )
    def test_bad_header_length_field_rejected(self, tmp_path, header_len):
        path = tmp_path / "w.gfw"
        params = network.init_parameters(mini_spec(), Rng(16), dtype=np.float64)
        network.save_weights(mini_spec(), params, path)
        data = path.read_bytes()
        field = header_len(len(data))
        path.write_bytes(data[:4] + struct.pack("<Q", field) + data[12:])
        with pytest.raises(WeightsFormatError) as err:
            network.load_weights(path)
        assert err.value.offset == (12 if field == 0 else len(data))

    @pytest.mark.parametrize(
        "header", [b"[" * 100_000, b'{"version": ' + b"9" * 5000 + b"}"], ids=["deep", "long-int"]
    )
    def test_unparseable_json_header_rejected(self, tmp_path, header):
        path = tmp_path / "w.gfw"
        path.write_bytes(b"GFW1" + struct.pack("<Q", len(header)) + header)
        with pytest.raises(WeightsFormatError, match="unreadable JSON header.*byte offset 12"):
            network.load_weights(path)

    def test_load_holds_one_copy_of_the_tensors(self, tmp_path):
        spec = build_rice_cnn()
        path = tmp_path / "rice.gfw"
        network.save_weights(spec, network.init_parameters(spec, Rng(17), dtype=np.float32), path)
        tracemalloc.start()
        try:
            network.load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzz_header_raises_only_documented_errors(self, tmp_path, data):
        def replace_one_value(header):
            *parents, last = data.draw(st.sampled_from(list(json_paths(header))[1:]))
            node = header
            for key in parents:
                node = node[key]
            node[last] = data.draw(JSON_VALUES)

        path = self._with_header(tmp_path, replace_one_value)
        cut = data.draw(st.none() | st.integers(0, path.stat().st_size))
        if cut is not None:
            path.write_bytes(path.read_bytes()[:cut])
        try:
            network.load_weights(path)
        except WeightsFormatError:
            pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**66), 2**66) | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=8,
)


def json_paths(node, prefix=()):
    """The key/index path of every value in a parsed JSON document, the root's () first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, (*prefix, key))
