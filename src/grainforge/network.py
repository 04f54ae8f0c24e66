"""Layer specifications, the two CNN architectures, and explicit backprop.

A network is an ordered list of layer specs (conv 3x3 / maxpool 2x2 /
flatten / dense) plus an input shape and class count.  The training
forward pass caches per-layer activations so the backward pass can produce
exact analytic gradients of the cross-entropy + L2 objective; softmax and
cross-entropy are fused at the logits as (p - y) / B.  The inference
forward keeps no cache.

Weights serialize to a bit-exact container: ASCII magic "GFW1", an 8-byte
little-endian header length, a JSON header describing layers and tensor
order, then each tensor's raw little-endian float32 values row-major.
The header's tensor list must be exactly the table the layers imply (each
parameterised layer's weight then bias, in layer order, integer shapes),
and every tensor value must be finite.
A trained model's header also records its preprocessing settings and
class names; headers written before those keys existed still load.

In memory the parameters are that same table: a flat list holding the
arrays of the header's ``tensors``, in the same order.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .rng import Rng
from .tensor import (
    Tensor,
    conv2d_backward,
    conv2d_batch,
    dense_backward,
    dense_forward,
    maxpool2d_backward,
    maxpool2d_batch,
    relu,
    relu_backward,
    softmax,
)

LOG_EPSILON = 1e-12
KERNEL_SIZE = 3

MAGIC = b"GFW1"

# weights are drawn this many float64 values (128 KiB) at a time, so no
# layer-sized float64 temporary is ever held beside the target-dtype array
INIT_CHUNK = 16_384


class NetworkError(ValueError):
    pass


class WeightsFormatError(ValueError):
    """Malformed weights file; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv2d | maxpool2d | flatten | dense
    filters: int = 0
    units: int = 0
    activation: str = "none"  # relu | softmax | none


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]
    num_classes: int
    # what training recorded: its preprocessing settings, a JSON object that
    # the CLI checks, and the sorted class names; None for a spec built in
    # code or read from an older header
    preprocess: dict | None = field(default=None, hash=False)
    classes: tuple[str, ...] | None = None


# A model's parameters, in _tensor_table order: each conv and dense layer's
# weight, then its bias, in layer order.
Parameters = list[np.ndarray]


def _layer_plan(spec: NetworkSpec) -> list[tuple]:
    """(layer, out_shape, weight_shape, bias_shape) per layer.

    The parameter shapes are None for pool and flatten layers.  Raises
    NetworkError on any mismatch.
    """
    if not spec.layers:
        raise NetworkError("network must have at least one layer")
    shape: tuple[int, ...] = tuple(spec.input_shape)
    if len(shape) != 3 or any(d < 1 for d in shape):
        raise NetworkError(f"input shape must be positive (H,W,C), got {shape}")
    plan = []
    for i, layer in enumerate(spec.layers):
        weight_shape = bias_shape = None
        if layer.kind == "conv2d":
            if len(shape) != 3:
                raise NetworkError(f"layer {i}: conv2d needs (H,W,C) input, got {shape}")
            h, w, cin = shape
            if h < KERNEL_SIZE or w < KERNEL_SIZE:
                raise NetworkError(f"layer {i}: input {h}x{w} smaller than 3x3 kernel")
            if layer.filters < 1:
                raise NetworkError(f"layer {i}: conv2d needs a positive filter count")
            shape = (h - KERNEL_SIZE + 1, w - KERNEL_SIZE + 1, layer.filters)
            weight_shape = (KERNEL_SIZE, KERNEL_SIZE, cin, layer.filters)
            bias_shape = (layer.filters,)
        elif layer.kind == "maxpool2d":
            if len(shape) != 3:
                raise NetworkError(f"layer {i}: maxpool needs (H,W,C) input, got {shape}")
            h, w, c = shape
            if h < 2 or w < 2:
                raise NetworkError(f"layer {i}: input {h}x{w} smaller than 2x2 window")
            shape = (h // 2, w // 2, c)
        elif layer.kind == "flatten":
            if len(shape) != 3:
                raise NetworkError(f"layer {i}: flatten needs (H,W,C) input, got {shape}")
            shape = (shape[0] * shape[1] * shape[2],)
        elif layer.kind == "dense":
            if len(shape) != 1:
                raise NetworkError(f"layer {i}: dense needs a flat input, got {shape}")
            if layer.units < 1:
                raise NetworkError(f"layer {i}: dense needs a positive unit count")
            weight_shape = (shape[0], layer.units)
            bias_shape = (layer.units,)
            shape = (layer.units,)
        else:
            raise NetworkError(f"layer {i}: unknown kind {layer.kind!r}")
        if layer.activation not in ("relu", "softmax", "none"):
            raise NetworkError(f"layer {i}: unknown activation {layer.activation!r}")
        if layer.activation == "softmax" and i != len(spec.layers) - 1:
            raise NetworkError(f"layer {i}: softmax is only valid on the final layer")
        plan.append((layer, shape, weight_shape, bias_shape))
    last = spec.layers[-1]
    if last.kind != "dense" or last.activation != "softmax" or last.units != spec.num_classes:
        raise NetworkError(
            "final layer must be dense with softmax over "
            f"{spec.num_classes} classes, got {last}"
        )
    return plan


def _tensor_table(spec: NetworkSpec) -> list[dict]:
    """The stored tensors in payload order: each parameterised layer's weight, then bias."""
    return [
        {"layer": i, "name": name, "shape": list(shape)}
        for i, (_, _, wshape, bshape) in enumerate(_layer_plan(spec))
        if wshape is not None
        for name, shape in (("weight", wshape), ("bias", bshape))
    ]


def build_rice_cnn() -> NetworkSpec:
    """Five-variety rice grain classifier over 50x50 RGB inputs."""
    return NetworkSpec(
        input_shape=(50, 50, 3),
        layers=(
            LayerSpec("conv2d", filters=32, activation="relu"),
            LayerSpec("maxpool2d"),
            LayerSpec("conv2d", filters=64, activation="relu"),
            LayerSpec("maxpool2d"),
            LayerSpec("flatten"),
            LayerSpec("dense", units=32, activation="relu"),
            LayerSpec("dense", units=5, activation="softmax"),
        ),
        num_classes=5,
    )


def build_disease_cnn() -> NetworkSpec:
    """Four-class leaf disease classifier over 224x224 RGB inputs."""
    return NetworkSpec(
        input_shape=(224, 224, 3),
        layers=(
            LayerSpec("conv2d", filters=32, activation="relu"),
            LayerSpec("maxpool2d"),
            LayerSpec("conv2d", filters=64, activation="relu"),
            LayerSpec("maxpool2d"),
            LayerSpec("conv2d", filters=64, activation="relu"),
            LayerSpec("maxpool2d"),
            LayerSpec("flatten"),
            LayerSpec("dense", units=128, activation="relu"),
            LayerSpec("dense", units=4, activation="softmax"),
        ),
        num_classes=4,
    )


# the builder of each architecture, by its name on the command line
ARCHITECTURES = {"rice": build_rice_cnn, "disease": build_disease_cnn}


def init_parameters(spec: NetworkSpec, rng: Rng, dtype=np.float64) -> Parameters:
    """He-normal weights for relu layers, Glorot-uniform otherwise, zero biases.

    Each layer draws from its own derived stream, so adding or removing a
    layer does not perturb the draws of the others.  The draws go straight
    into the target-dtype array in flat chunks of ``INIT_CHUNK`` values;
    a stream yields the same values in chunks as in one whole-array draw.
    """
    params: Parameters = []
    for i, (layer, _, wshape, bshape) in enumerate(_layer_plan(spec)):
        if wshape is None:
            continue
        receptive = math.prod(wshape[:-2])  # 3x3 for conv, 1 for dense
        fan_in, fan_out = receptive * wshape[-2], receptive * wshape[-1]
        stream = rng.child(f"layer{i}")
        if layer.activation == "relu":
            draw = partial(stream.normal, 0.0, np.sqrt(2.0 / fan_in))
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            draw = partial(stream.uniform, -limit, limit)
        weight = np.empty(wshape, dtype=dtype)
        flat = weight.reshape(-1)
        for start in range(0, flat.size, INIT_CHUNK):
            flat[start : start + INIT_CHUNK] = draw(min(INIT_CHUNK, flat.size - start))
        params += [weight, np.zeros(bshape, dtype=dtype)]
    return params


def check_parameters(spec: NetworkSpec, params: Parameters) -> None:
    expected = [tuple(t["shape"]) for t in _tensor_table(spec)]
    shapes = [p.shape for p in params]
    if shapes != expected:
        raise NetworkError(f"parameter shapes {shapes} do not match the expected {expected}")


def _activations(spec: NetworkSpec) -> list[str]:
    """Activation applied after each layer, as forward runs them.

    A conv's ReLU moves past a directly following 2x2 max pool: ReLU is
    monotone, so relu(max(window)) == max(relu(window)) and conv -> pool
    -> ReLU gives the same values while running ReLU and its backward on
    a quarter of the elements.  Pool and flatten specs carry no activation
    of their own.
    """
    layers = spec.layers
    acts = [lay.activation if lay.kind in ("conv2d", "dense") else "none" for lay in layers]
    for i in range(1, len(acts)):
        relu_conv = layers[i - 1].kind == "conv2d" and acts[i - 1] == "relu"
        if relu_conv and layers[i].kind == "maxpool2d":
            acts[i - 1], acts[i] = "none", "relu"
    return acts


def forward(spec: NetworkSpec, params: Parameters, batch: Tensor, train: bool = True):
    """Class probabilities for a (B,H,W,C) batch, plus the backward cache.

    A single (H,W,C) sample is accepted and returns a (K,) probability
    vector computed through the identical batched path.  With
    ``train=False`` (inference) no cache is kept and pooling skips its
    argmax; the probabilities are the same bytes and the cache is None.
    """
    single = batch.ndim == 3
    x = batch[None] if single else batch
    if x.ndim != 4 or x.shape[1:] != tuple(spec.input_shape):
        raise NetworkError(
            f"batch shape {batch.shape} does not match input {spec.input_shape}"
        )
    cache = [] if train else None
    tensors = iter(params)
    for layer, act in zip(spec.layers, _activations(spec)):
        if layer.kind == "conv2d":
            out = conv2d_batch(x, next(tensors), next(tensors))
            entry = {"x": x}
        elif layer.kind == "maxpool2d":
            out, argmax = maxpool2d_batch(x, winners=train)
            entry = {"x_shape": x.shape, "argmax": argmax}
        elif layer.kind == "flatten":
            out = x.reshape(x.shape[0], -1)
            entry = {"in_shape": x.shape}
        else:  # dense
            out = dense_forward(x, next(tensors), next(tensors))
            entry = {"x": x}
        if act == "relu":
            entry["pre"] = out
            out = relu(out)
        elif act == "softmax":
            out = softmax(out)
        if train:
            cache.append(entry)
        x = out
    probs = x
    if train:
        cache.append({"probs": probs})
    return (probs[0], cache) if single else (probs, cache)


def l2_penalty(params: Parameters, lam: float) -> float:
    """lam * sum of squared weights; biases are exempt."""
    if not lam:
        return 0.0
    return lam * sum(float(np.sum(w.astype(np.float64) ** 2)) for w in params[::2])


def loss(probs: Tensor, onehot: Tensor, params: Parameters, lam: float) -> float:
    """Mean categorical cross-entropy plus lam * sum(w^2) over weights."""
    p = np.atleast_2d(probs)
    y = np.atleast_2d(onehot)
    ce = -np.sum(y * np.log(np.maximum(p, LOG_EPSILON))) / p.shape[0]
    return float(ce) + l2_penalty(params, lam)


def backward(
    spec: NetworkSpec,
    params: Parameters,
    cache: list,
    onehot: Tensor,
    lam: float = 0.0,
) -> Parameters:
    """Analytic gradients of :func:`loss` for the cached forward batch."""
    if spec.layers[-1].activation != "softmax":
        raise NetworkError("backward requires a softmax final layer")
    probs = cache[-1]["probs"]
    y = np.atleast_2d(onehot).astype(probs.dtype)
    batch = probs.shape[0]
    dout = (probs - y) / batch

    weights = iter(params[-2::-2])
    grads: Parameters = []
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        entry = cache[i]
        # softmax gradient is already fused into dout at the logits
        if "pre" in entry:
            dout = relu_backward(entry["pre"], dout)
        if layer.kind == "dense":
            dout, dw, db = dense_backward(entry["x"], next(weights), dout)
            grads[:0] = (dw, db)
        elif layer.kind == "flatten":
            dout = dout.reshape(entry["in_shape"])
        elif layer.kind == "maxpool2d":
            dout = maxpool2d_backward(entry["x_shape"], entry["argmax"], dout)
        else:  # conv2d; nothing reads the gradient of the input image
            dout, dw, db = conv2d_backward(entry["x"], next(weights), dout, need_dx=i > 0)
            grads[:0] = (dw, db)

    if lam:
        for w, g in zip(params[::2], grads[::2]):
            g += 2.0 * lam * w
    return grads


# ---------------------------------------------------------------------------
# Weight serialization
# ---------------------------------------------------------------------------


def _spec_to_header(spec: NetworkSpec) -> dict:
    header = {
        "format": "grainforge-weights",
        "version": 1,
        "dtype": "f32",
        "input_shape": list(spec.input_shape),
        "num_classes": spec.num_classes,
        "layers": [
            {
                "kind": layer.kind,
                "filters": layer.filters,
                "units": layer.units,
                "activation": layer.activation,
            }
            for layer in spec.layers
        ],
    }
    if spec.preprocess is not None:
        header["preprocess"] = spec.preprocess
    if spec.classes is not None:
        header["classes"] = list(spec.classes)
    return header


def _recorded_classes(header: dict, num_classes: int) -> tuple[str, ...] | None:
    if "classes" not in header:
        return None
    classes = header["classes"]
    valid = (
        isinstance(classes, list)
        and len(classes) == num_classes
        and all(type(name) is str for name in classes)
        and classes == sorted(set(classes))
    )
    if not valid:
        raise WeightsFormatError(
            f"classes must be {num_classes} distinct names in sorted order, got {classes!r}", 12
        )
    return tuple(classes)


def save_weights(spec: NetworkSpec, params: Parameters, path) -> None:
    """Write the bit-exact weights container; params are stored as float32."""
    check_parameters(spec, params)
    header = _spec_to_header(spec)
    header["tensors"] = _tensor_table(spec)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for array in params:
            fh.write(np.ascontiguousarray(array, dtype="<f4"))


def _table_mismatch(listed, table: list[dict]) -> str:
    """Where the header's tensor list first departs from the layers' table."""
    if not isinstance(listed, list):
        return f"tensors must be a list of {len(table)} entries, got {listed!r}"
    for k, (got, want) in enumerate(zip(listed, table)):
        if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
            return f"tensors[{k}] is {got!r}, expected {want!r}"
    return f"tensors lists {len(listed)} entries, expected {len(table)}"


def _header_to_spec(header: dict) -> tuple[NetworkSpec, list[dict]]:
    """The spec a parsed header describes and its tensor table, which ``tensors`` must equal."""
    if header.get("version") != 1:
        raise WeightsFormatError(f"unsupported header version {header.get('version')}", 12)
    if header.get("dtype") != "f32":
        raise WeightsFormatError(f"unsupported dtype {header.get('dtype')!r}", 12)
    try:
        spec = NetworkSpec(
            input_shape=tuple(header["input_shape"]),
            layers=tuple(
                LayerSpec(
                    kind=entry["kind"],
                    filters=entry["filters"],
                    units=entry["units"],
                    activation=entry["activation"],
                )
                for entry in header["layers"]
            ),
            num_classes=header["num_classes"],
        )
        listed = header["tensors"]
        counts = [*spec.input_shape, spec.num_classes]
        counts += [n for layer in spec.layers for n in (layer.filters, layer.units)]
        for n in counts:  # a float or a bool is no count
            if type(n) is not int:
                raise TypeError(
                    f"input_shape, num_classes, filters and units must be integers, got {n!r}"
                )
        table = _tensor_table(spec)
    except KeyError as exc:
        raise WeightsFormatError(f"JSON header lacks key {exc}", 12) from exc
    except TypeError as exc:  # a value of the wrong JSON type, e.g. "units": "2"
        raise WeightsFormatError(f"malformed JSON header: {exc}", 12) from exc
    except NetworkError as exc:  # e.g. "kind": "conv3d"
        raise WeightsFormatError(str(exc), 12) from exc
    # canonical JSON, so a 0.0 or a true where the table holds an integer differs
    if json.dumps(listed, sort_keys=True) != json.dumps(table, sort_keys=True):
        raise WeightsFormatError(_table_mismatch(listed, table), 12)
    preprocess = header.get("preprocess")
    if "preprocess" in header and not isinstance(preprocess, dict):
        raise WeightsFormatError(f"preprocess must be a JSON object, got {preprocess!r}", 12)
    spec = replace(
        spec, preprocess=preprocess, classes=_recorded_classes(header, spec.num_classes)
    )
    return spec, table


def load_weights(path) -> tuple[NetworkSpec, Parameters]:
    """Read a weights container back into (spec, float32 parameters), one copy of each tensor."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = fh.read(12)
        if start[:3] == MAGIC[:3] and start[:4] != MAGIC:
            raise WeightsFormatError(
                f"unsupported weights version {start[3:4]!r}, expected {MAGIC[3:4]!r}", 3
            )
        if start[:4] != MAGIC:
            raise WeightsFormatError(f"bad magic {start[:4]!r}, expected {MAGIC!r}", 0)
        if len(start) < 12:
            raise WeightsFormatError("truncated header length field", len(start))
        (header_len,) = struct.unpack("<Q", start[4:12])
        if size < 12 + header_len:  # before reading, so a huge length reads nothing
            raise WeightsFormatError("truncated JSON header", size)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, 4300+ digit int, deep nesting
            raise WeightsFormatError(f"unreadable JSON header: {exc}", 12) from exc
        if not isinstance(header, dict):
            raise WeightsFormatError("JSON header is not an object", 12)
        spec, table = _header_to_spec(header)
        end = 12 + header_len + 4 * sum(math.prod(t["shape"]) for t in table)
        if size < end:
            raise WeightsFormatError("truncated tensor payload", size)
        if size > end:
            raise WeightsFormatError(f"{size - end} unexpected trailing bytes", end)
        arrays, offset = [], 12 + header_len
        for k, t in enumerate(table):
            values = np.fromfile(fh, dtype="<f4", count=math.prod(t["shape"]))
            if not np.isfinite(values).all():
                i = int(np.argmin(np.isfinite(values)))
                raise WeightsFormatError(
                    f"tensors[{k}] {t} holds the non-finite value {values[i]}", offset + 4 * i
                )
            arrays.append(values.reshape(t["shape"]))
            offset += values.nbytes
        return spec, arrays
