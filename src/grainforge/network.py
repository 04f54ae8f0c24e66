"""Layer specifications, the two CNN architectures, and explicit backprop.

A network is an ordered list of layer specs (conv 3x3 / maxpool 2x2 /
flatten / dense) plus an input shape and class count.  The training
forward pass caches per-layer activations so the backward pass can produce
exact analytic gradients of the cross-entropy + L2 objective; softmax and
cross-entropy are fused at the logits as (p - y) / B.  The inference
forward keeps no cache.  A ``WindowMemo`` runs single inputs, one after
another, with the full forward's bytes: each pool window of the leading
(conv, pool) pairs whose receptive-field input an earlier call has seen
takes that call's output, and only the unseen windows are recomputed, their
4x4 input tiles run as one batch through the same conv kernel (the exact part
of incremental inference, Nakandala et al., SIGMOD 2019).  The flatten keeps
one row per pool window, and the dense layer after it sums one product per
window in window order (``tensor.dense_forward``), so the memo stores each
last-pair window's product beside its output and sums the stored products to
the same bytes.

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
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import NamedTuple

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
    sum_windows,
    window_products,
    windows,
)

LOG_EPSILON = 1e-12
KERNEL_SIZE = 3

MAGIC = b"GFW1"
# the JSON header follows the magic and its 8-byte little-endian length
HEADER_START = len(MAGIC) + 8

# the fewest pool windows a memoised call recomputes at once.  Their 4 conv pixels each
# make one im2col row, and a product over fewer than 28 rows can round differently from
# the same rows of the full product (OpenBLAS small-matrix kernels); 8 windows give 32.
PATCH_MIN_WINDOWS = 8
# A window memo stores new pixel values, window keys and outputs only while it holds
# fewer bytes than this; past it, calls stay exact and only recompute more.
MEMO_BYTES = 24 * 2**20

UNSTORED = 255  # the id of a pixel value or pool window that a memo does not hold

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


class Step(NamedTuple):
    """One layer as forward runs it; the weight shape is None for pool and flatten."""

    layer: LayerSpec
    activation: str  # what forward applies after the layer
    out_shape: tuple[int, ...]
    weight_shape: tuple[int, ...] | None  # the bias is weight_shape[-1:]: one value per output


class Plan(NamedTuple):
    steps: tuple[Step, ...]
    patch_depth: int  # leading (conv, pool) pairs if the layers are (conv, pool)* flatten dense*


@dataclass(frozen=True)
class NetworkSpec:
    """A network's layers, checked when it is built: one whose layers do not fit raises."""

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]
    num_classes: int
    # what training recorded: its preprocessing settings, a JSON object that
    # the CLI checks, and the sorted class names; None for a spec built in
    # code or read from an older header
    preprocess: dict | None = field(default=None, hash=False)
    classes: tuple[str, ...] | None = None
    plan: Plan = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "plan", _layer_plan(self))


# A model's parameters, in _tensor_table order: each conv and dense layer's
# weight, then its bias, in layer order.
Parameters = list[np.ndarray]


def _layer_plan(spec: NetworkSpec) -> Plan:
    """Each layer's step and the patch depth; TypeError or NetworkError if the spec is bad."""
    counts = [*spec.input_shape, spec.num_classes]
    counts += [n for layer in spec.layers for n in (layer.filters, layer.units)]
    for n in counts:  # a float or a bool is no count
        if type(n) is not int:
            raise TypeError(
                f"input_shape, num_classes, filters and units must be integers, got {n!r}"
            )
    if not spec.layers:
        raise NetworkError("network must have at least one layer")
    shape: tuple[int, ...] = tuple(spec.input_shape)
    if len(shape) != 3 or any(d < 1 for d in shape):
        raise NetworkError(f"input shape must be positive (H,W,C), got {shape}")
    steps: list[Step] = []
    for i, layer in enumerate(spec.layers):
        weight_shape = None
        activation = layer.activation if layer.kind in ("conv2d", "dense") else "none"
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
        elif layer.kind == "maxpool2d":
            if len(shape) != 3:
                raise NetworkError(f"layer {i}: maxpool needs (H,W,C) input, got {shape}")
            h, w, c = shape
            if h < 2 or w < 2:
                raise NetworkError(f"layer {i}: input {h}x{w} smaller than 2x2 window")
            shape = (h // 2, w // 2, c)
            # a conv's ReLU moves past its pool: ReLU is monotone, so relu(max(window)) ==
            # max(relu(window)), and ReLU and its backward run on a quarter of the values
            if steps and steps[-1].layer.kind == "conv2d" and steps[-1].activation == "relu":
                steps[-1], activation = steps[-1]._replace(activation="none"), "relu"
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
            shape = (layer.units,)
        else:
            raise NetworkError(f"layer {i}: unknown kind {layer.kind!r}")
        if layer.activation not in ("relu", "softmax", "none"):
            raise NetworkError(f"layer {i}: unknown activation {layer.activation!r}")
        if layer.activation == "softmax" and i != len(spec.layers) - 1:
            raise NetworkError(f"layer {i}: softmax is only valid on the final layer")
        steps.append(Step(layer, activation, shape, weight_shape))
    last = spec.layers[-1]
    if last.kind != "dense" or last.activation != "softmax" or last.units != spec.num_classes:
        raise NetworkError(
            "final layer must be dense with softmax over "
            f"{spec.num_classes} classes, got {last}"
        )
    kinds = [layer.kind for layer in spec.layers]
    depth = 0
    while kinds[2 * depth : 2 * depth + 2] == ["conv2d", "maxpool2d"]:
        depth += 1
    # only dense layers take a flat input, so after a flatten come dense layers alone
    return Plan(tuple(steps), depth if kinds[2 * depth] == "flatten" else 0)


def _tensor_table(spec: NetworkSpec) -> list[dict]:
    """The stored tensors in payload order: each parameterised layer's weight, then bias."""
    return [
        {"layer": i, "name": name, "shape": list(shape)}
        for i, (_, _, _, wshape) in enumerate(spec.plan.steps)
        if wshape is not None
        for name, shape in (("weight", wshape), ("bias", wshape[-1:]))
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


def init_parameters(spec: NetworkSpec, rng: Rng, dtype) -> Parameters:
    """He-normal weights for relu layers, Glorot-uniform otherwise, zero biases.

    Each layer draws from its own derived stream, so adding or removing a
    layer does not perturb the draws of the others.  The draws go straight
    into the target-dtype array in flat chunks of ``INIT_CHUNK`` values;
    a stream yields the same values in chunks as in one whole-array draw.
    """
    params: Parameters = []
    for i, (layer, _, _, wshape) in enumerate(spec.plan.steps):
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
        params += [weight, np.zeros(wshape[-1:], dtype=dtype)]
    return params


class _Table:
    """The distinct keys seen at each of P positions, and the pool output of each.

    A key is one integer word per array of ``keys``.  Each position numbers
    its distinct keys 0, 1, ... in the order they are stored, and that slot
    is the key's id there.  The first ``depth`` slots are dense (slots, P)
    tables: slot ``k`` of position ``q`` holds word ``keys[i][k, q]``, and
    ``tag[k, q]`` is ``k + 1`` once it is stored, 0 before.  The later slots,
    which few positions reach, are entries of flat arrays: their position
    ``spos``, ``k + 1`` in ``stag``, their words in ``skeys``.  A window table
    also holds each stored key's output, one row of ``vals`` (the pool output,
    and at the last pair its dense product after it), at ``rows[k, q]``
    (``srows`` for a later slot).
    """

    def __init__(self, dtypes, positions: int, outputs: bool):
        self.positions = positions
        self.keys = [np.empty((0, positions), dtype) for dtype in dtypes]
        self.tag = np.empty((0, positions), np.uint8)
        self.dense = [*self.keys, self.tag]  # grown one slot level at a time, together
        self.spos = np.empty(0, np.int32)
        self.stag = np.empty(0, np.uint8)
        self.skeys = [np.empty(0, dtype) for dtype in dtypes]
        self.sparse = [self.spos, self.stag, *self.skeys]  # grown together, by a quarter
        self.rows = self.srows = self.order = None
        if outputs:
            self.rows, self.srows = np.empty((0, positions), np.int32), np.empty(0, np.int32)
            self.dense.append(self.rows)
            self.sparse.append(self.srows)
            self.order = np.arange(positions)
        self.spilled = 0  # the entries in use of the flat arrays
        self.count = np.zeros(positions, np.uint8)
        self.vals = None  # (capacity, channels), made by the first store of outputs
        self.used = 0
        # a dense slot level costs every position its bytes: past two, a table adds one
        # only while it costs under 1/64 of the budget, so a large table spills
        level = positions * sum(t.itemsize for t in self.dense)
        self.depth = min(UNSTORED, max(2, MEMO_BYTES // 64 // level))
        # what its arrays hold, counted as they grow
        self.nbytes = self.count.nbytes + (0 if self.order is None else self.order.nbytes)

    def find(self, cur):
        """Look up the keys ``cur``, one (P,) array per word.

        Returns each position's id, ``UNSTORED`` where its key is not stored,
        and the flat entries that matched (None if there are none).
        """
        match = self.keys[0] == cur[0]
        for keys, word in zip(self.keys[1:], cur[1:]):
            match &= keys == word
        # keys are distinct among a position's stored slots, so at most one tag survives
        tag = np.maximum.reduce(match * self.tag, axis=0, initial=0)
        hit = None
        if self.spilled:
            pos = self.spos[: self.spilled]
            found = self.skeys[0][: self.spilled] == cur[0].take(pos)
            for keys, word in zip(self.skeys[1:], cur[1:]):
                found &= keys[: self.spilled] == word.take(pos)
            hit = np.flatnonzero(found)
            tag[pos[hit]] = self.stag[hit]
        return tag - np.uint8(1), hit  # 0 - 1 wraps to UNSTORED

    def gather(self, ids: np.ndarray, hit: np.ndarray) -> np.ndarray:
        """The stored output of each position's id; a row where the id is UNSTORED is junk."""
        flat = np.multiply(ids, self.positions, dtype=np.intp)
        flat += self.order  # slot * P + position
        rows = self.rows.reshape(-1).take(flat, mode="clip")
        if hit is not None:
            rows[self.spos[hit]] = self.srows[hit]
        return self.vals.take(rows, axis=0)

    def store(self, budget: int, where, keys, vals=None, ok=None) -> np.ndarray:
        """Store the keys ``keys`` (one (n,) array per word) at positions ``where``, and ``vals``.

        Returns the n ids.  A key outside ``ok``, or at a position whose 255 ids
        are taken, gets ``UNSTORED``; so does every key if storing them would add
        more than ``budget`` bytes.
        """
        ids = np.full(len(where), UNSTORED, np.uint8)
        slot = self.count[where]
        ok = slot < UNSTORED if ok is None else ok & (slot < UNSTORED)
        if not ok.all():
            where, keys, slot = where[ok], [word[ok] for word in keys], slot[ok]
            vals = None if vals is None else vals[ok]
        if not len(where):
            return ids
        dense = slot < self.depth
        spill = len(where) - int(np.count_nonzero(dense))
        # a position past its dense slots already holds them all, so with no dense entry
        # here the tables hold at least one level and none is added
        levels = max(int(slot.max(initial=0, where=dense)) + 1 - len(self.tag), 0)
        added = levels * self.positions * sum(t.itemsize for t in self.dense)
        entries = len(self.spos)
        if self.spilled + spill > entries:
            entries = max(entries + entries // 4, self.spilled + spill)
            added += (entries - len(self.spos)) * sum(t.itemsize for t in self.sparse)
        if vals is not None:
            if self.vals is None:
                self.vals = np.empty((0, vals.shape[1]), vals.dtype)
            capacity = len(self.vals)
            if self.used + len(vals) > capacity:  # by a quarter: each row is copied O(1) times
                capacity = max(capacity + capacity // 4, self.used + len(vals))
            added += (capacity - len(self.vals)) * vals[0].nbytes
        if added > budget:
            return ids
        self.nbytes += added
        # numpy grows each array in place (a realloc) and zero-fills the new part
        if levels:
            for table in self.dense:
                table.resize((len(table) + levels, self.positions), refcheck=False)
        if entries > len(self.spos):
            for table in self.sparse:
                table.resize(entries, refcheck=False)
        self.count[where] = slot + 1
        ids[ok] = slot
        row = None
        if vals is not None:
            if capacity > len(self.vals):
                self.vals.resize((capacity, vals.shape[1]), refcheck=False)
            self.vals[self.used : self.used + len(vals)] = vals
            row = np.arange(self.used, self.used + len(vals))
            self.used += len(vals)
        if spill:
            later = ~dense
            at = slice(self.spilled, self.spilled + spill)
            self.spos[at], self.stag[at] = where[later], slot[later] + 1
            for table, word in zip(self.skeys, keys):
                table[at] = word[later]
            if row is not None:
                self.srows[at] = row[later]
                row = row[dense]
            self.spilled += spill
            where, keys, slot = where[dense], [word[dense] for word in keys], slot[dense]
        for table, word in zip(self.keys, keys):
            table[slot, where] = word
        self.tag[slot, where] = slot + 1
        if row is not None:
            self.rows[slot, where] = row
        return ids


def _pixel_words(x: Tensor) -> list:
    """The key of each pixel of (H,W,C) ``x``: its channels' bytes, as (H*W,) words of 8 bytes
    or fewer; compared as integers, so -0.0 and +0.0, or two NaNs, differ."""
    x = np.ascontiguousarray(x)
    size, start, words = x.shape[2] * x.itemsize, 0, []
    while start < size:
        n = 1 << min(3, (size - start).bit_length() - 1)  # 8, 4, 2 or 1 bytes
        words.append(np.ndarray((x.size // x.shape[2],), f"<u{n}", x, start, (size,)).copy())
        start += n
    return words


def _window_keys(ids: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """The (2, oh*ow) keys of the pool windows over a (H,W) uint8 id map.

    Window (i, j) reads ids rows 2i..2i+3, columns 2j..2j+3: each row's four
    ids are one little-endian uint32 read at stride 2, and two rows make a word.
    """
    wc = ids.shape[1]
    tiles = np.ndarray((2, oh, ow, 2), "<u4", ids, 0, (2 * wc, 2 * wc, 2, wc))
    return tiles.copy().view("<u8").reshape(2, oh * ow)


def _pool_windows(x: Tensor, where, pool: Step, kernels, bias) -> Tensor:
    """The (n, c) outputs of the pool windows at flat positions ``where`` of (1,H,W,C) ``x``.

    With every window in ``where`` the pair runs on ``x`` in full.  Otherwise each
    window's 4x4 input tile goes through the same conv, pool and ReLU kernels, as one
    batch of at least ``PATCH_MIN_WINDOWS`` tiles padded with repeats: a tile's im2col
    rows are the full input's rows for its four conv pixels, so the bytes are the same.
    """
    oh, ow, channels = pool.out_shape
    n = len(where)
    if n == oh * ow:
        conv = conv2d_batch(x, kernels, bias)
    else:
        if n < PATCH_MIN_WINDOWS:  # duplicate rows give the same bits
            where = np.resize(where, PATCH_MIN_WINDOWS)
        ys, xs = np.divmod(where, ow)
        # the (n, 4, 4, C) tiles live only as long as the conv reads them
        conv = conv2d_batch(windows(x, 4, 4)[0, 2 * ys, 2 * xs], kernels, bias)
    out, _ = maxpool2d_batch(conv, winners=False)
    out = relu(out) if pool.activation == "relu" else out
    return out.reshape(-1, channels)[:n]


class WindowMemo:
    """An exact memo of the leading (conv, pool) pairs of one network, for single inputs.

    A call returns the input's class probabilities, the full forward's bytes,
    and each leading pair's pool output after its ReLU, reusing every pool
    window that an earlier call has computed (the exact part of incremental
    inference, Nakandala et al., SIGMOD 2019).  Each pixel location gives each
    distinct value it holds (its channels' integer bits, so -0.0 and +0.0 differ)
    a uint8 id.  A pool window's key is the 16 ids of its 4x4 tile: pixels at
    the first pair, the previous pair's windows after it.  Each window location
    gives each distinct key an id too, so by induction over the pairs equal keys
    mean equal tile bytes, and a window whose key is stored takes the stored
    output.  Only the other windows go through the conv, pool and ReLU kernels,
    as a batch of their 4x4 input tiles; a pair that misses every window runs
    on its whole input, as the first call's pairs do.
    The last pair also stores, beside each window's pool output, its product
    with the window's (c, U) block of the first dense layer's weights, the
    product ``tensor.dense_forward`` runs for that window.  A call computes the
    products of the windows it missed only, each run of consecutive windows as
    one stacked product that reads their weight blocks in place, then sums all
    the rows in window order, adds the bias and runs the rest of the network.
    Values, keys and outputs are stored while the memo holds under
    ``MEMO_BYTES``; past it a new one's id is ``UNSTORED``, and a key holding
    that id is never stored or matched, so calls stay exact and recompute more.
    A network whose layers are not (conv, pool)* flatten dense* memoises nothing.
    """

    def __init__(self, spec: NetworkSpec, params: Parameters):
        steps, depth = spec.plan.steps, spec.plan.patch_depth
        self.input_shape = tuple(spec.input_shape)
        self.pairs = [(steps[2 * k + 1], params[2 * k], params[2 * k + 1]) for k in range(depth)]
        self.tail = steps[2 * depth :], params[2 * depth :]
        if depth:  # the flatten's dense layer: its weights as one (c, U) block per window
            dense, weights, bias = steps[2 * depth + 1], *params[2 * depth : 2 * depth + 2]
            oh, ow, channels = steps[2 * depth - 1].out_shape
            self.dense = weights.reshape(oh * ow, channels, -1), bias, dense.activation
            self.tail = steps[2 * depth + 2 :], params[2 * depth + 2 :]
        self.pixel_table = self.dtype = None  # set by the first call, for the bits of its dtype
        self.pair_tables = [
            _Table(("<u8", "<u8"), math.prod(p.out_shape[:2]), outputs=True) for p, *_ in self.pairs
        ]

    @property
    def nbytes(self) -> int:
        """The bytes the memo holds: its pixel values, window keys and outputs, and tables."""
        tables = [self.pixel_table, *self.pair_tables] if self.pixel_table else self.pair_tables
        return sum(table.nbytes for table in tables)

    def __call__(self, x: Tensor) -> tuple[Tensor, list]:
        """The (K,) probabilities of one (H,W,C) input and its (1,h,w,c) pool outputs."""
        if x.shape != self.input_shape:
            raise NetworkError(f"input shape {x.shape} does not match {self.input_shape}")
        batch, pools = x[None], []
        if self.pairs:
            if self.pixel_table is None:
                self.dtype = x.dtype
            elif x.dtype != self.dtype:
                raise NetworkError(f"input dtype {x.dtype} is not the memo's {self.dtype}")
            cur = _pixel_words(x)
            if self.pixel_table is None:
                self.pixel_table = _Table([word.dtype for word in cur], len(cur[0]), outputs=False)
            ids, _ = self.pixel_table.find(cur)
            missed = np.flatnonzero(ids == UNSTORED)
            unstored = False
            if len(missed):
                keys = [word[missed] for word in cur]
                fresh = self.pixel_table.store(MEMO_BYTES - self.nbytes, missed, keys)
                ids[missed], unstored = fresh, UNSTORED in fresh
            ids = ids.reshape(x.shape[:2])
        for k, ((pool, kernels, bias), table) in enumerate(zip(self.pairs, self.pair_tables)):
            oh, ow, channels = pool.out_shape
            n = oh * ow
            cur, ok = _window_keys(ids, oh, ow), None
            ids, hit = table.find(cur)
            missed = np.flatnonzero(ids == UNSTORED)
            new = _pool_windows(batch, missed, pool, kernels, bias) if len(missed) else None
            if new is not None and k == len(self.pairs) - 1:
                new = self._with_products(new, missed)
            if len(missed) < n:
                out = table.gather(ids, hit)  # one gather, then the misses
                if new is not None:
                    out[missed] = new
            else:
                out = new
            if len(missed):
                if unstored:  # a key holding an unstored id is not stored
                    children = cur.view(np.uint8).reshape(2, n, 8)[:, missed]
                    ok = (children != UNSTORED).all(axis=(0, 2))
                fresh = table.store(MEMO_BYTES - self.nbytes, missed, cur[:, missed], new, ok)
                ids[missed], unstored = fresh, UNSTORED in fresh
            else:
                unstored = False
            ids = ids.reshape(oh, ow)
            batch = out[:, :channels].reshape(1, oh, ow, channels)
            pools.append(batch)
        if self.pairs:  # the dense layer after the flatten, from each window's product row
            _, bias, activation = self.dense
            batch = sum_windows(out[:, None, channels:], bias)
            batch = relu(batch) if activation == "relu" else batch
            batch = softmax(batch) if activation == "softmax" else batch
        steps, params = self.tail
        probs, _ = _run(steps, iter(params), batch, train=False)
        return probs[0], pools

    def _with_products(self, pooled: Tensor, where) -> Tensor:
        """``[pool output | product row]`` of the windows at ``where``, from their (n, c) outputs.

        A window's product row is its output times its (c, U) block of the dense
        layer's weights, the product :func:`tensor.dense_forward` runs for it.
        """
        blocks = self.dense[0]
        n, channels = pooled.shape
        rows = np.empty((n, channels + blocks.shape[2]), pooled.dtype)
        rows[:, :channels] = pooled
        # one stacked product per run of consecutive windows, on a view of their blocks:
        # a call that misses every window reads the whole layer once and copies none of it
        cuts = np.flatnonzero(np.diff(where) != 1) + 1
        for a, b in zip([0, *cuts], [*cuts, n]):
            first = where[a]
            part = blocks[first : first + b - a]
            rows[a:b, channels:] = window_products(pooled[None, a:b], part)[:, 0]
        return rows


def _run(steps, tensors, x: Tensor, train: bool):
    """Run ``steps`` on the (B,...) batch ``x``, their parameters taken from ``tensors``."""
    cache = [] if train else None
    for layer, act, *_ in steps:
        if layer.kind == "conv2d":
            out = conv2d_batch(x, next(tensors), next(tensors))
            entry = {"x": x}
        elif layer.kind == "maxpool2d":
            out, argmax = maxpool2d_batch(x, winners=train)
            entry = {"x_shape": x.shape, "argmax": argmax}
        elif layer.kind == "flatten":
            # one row per pool window: the dense layer sums one product per window
            out = x.reshape(x.shape[0], -1, x.shape[-1])
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
    if train:
        cache.append({"probs": x})
    return x, cache


def forward(
    spec: NetworkSpec, params: Parameters, batch: Tensor, train: bool = True, memo=None
):
    """Class probabilities for a (B,H,W,C) batch, plus the backward cache.

    A single (H,W,C) sample is accepted and returns a (K,) probability
    vector computed through the identical batched path.  With
    ``train=False`` (inference) no cache is kept and pooling skips its
    argmax; the probabilities are the same bytes and the cache is None.
    A single inference sample may instead go through ``memo``, a
    :class:`WindowMemo` of this network and parameters: the probabilities
    are the same bytes, and the memo's pool outputs take the cache's place.
    """
    if memo is not None:
        if train or batch.ndim != 3:
            raise NetworkError("a window memo takes one (H,W,C) inference input")
        return memo(batch)
    single = batch.ndim == 3
    x = batch[None] if single else batch
    if x.ndim != 4 or x.shape[1:] != tuple(spec.input_shape):
        raise NetworkError(
            f"batch shape {batch.shape} does not match input {spec.input_shape}"
        )
    probs, cache = _run(spec.plan.steps, iter(params), x, train)
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
    probs = cache[-1]["probs"]
    y = np.atleast_2d(onehot).astype(probs.dtype)
    batch = probs.shape[0]
    dout = (probs - y) / batch

    weights = iter(params[-2::-2])
    grads: Parameters = []
    for i, (layer, *_) in reversed(list(enumerate(spec.plan.steps))):
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
        raise ValueError(
            f"classes must be {num_classes} distinct names in sorted order, got {classes!r}"
        )
    return tuple(classes)


def save_weights(spec: NetworkSpec, params: Parameters, path) -> None:
    """Write the bit-exact weights container; params are stored as float32."""
    table = _tensor_table(spec)
    expected = [tuple(t["shape"]) for t in table]
    shapes = [p.shape for p in params]
    if shapes != expected:
        raise NetworkError(f"parameter shapes {shapes} do not match the expected {expected}")
    header = {
        "format": "grainforge-weights",
        "version": 1,
        "dtype": "f32",
        "input_shape": list(spec.input_shape),
        "num_classes": spec.num_classes,
        "layers": [asdict(layer) for layer in spec.layers],
        "tensors": table,
    }
    if spec.preprocess is not None:
        header["preprocess"] = spec.preprocess
    if spec.classes is not None:
        header["classes"] = list(spec.classes)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for array in params:
            fh.write(np.ascontiguousarray(array, dtype="<f4"))


def _table_mismatch(listed, table: list[dict]) -> str | None:
    """Where the header's tensor list first departs from the layers' table, or None."""
    if not isinstance(listed, list):
        return f"tensors must be a list of {len(table)} entries, got {listed!r}"
    for k, (got, want) in enumerate(zip(listed, table)):
        # canonical JSON, so a 0.0 or a true where the table holds an integer differs
        if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
            return f"tensors[{k}] is {got!r}, expected {want!r}"
    if len(listed) != len(table):
        return f"tensors lists {len(listed)} entries, expected {len(table)}"
    return None


def _header_to_spec(header) -> tuple[NetworkSpec, list[dict]]:
    """The spec a parsed header describes and its tensor table; ValueError if it is malformed.

    A layer entry is read field by field in ``LayerSpec``'s order, so a missing
    key is named, and a key that is no field is ignored.
    """
    if not isinstance(header, dict):
        raise ValueError("JSON header is not an object")
    if header.get("format") != "grainforge-weights":  # a missing key too
        raise ValueError(
            f"unsupported format {header.get('format')!r}, expected 'grainforge-weights'"
        )
    if header.get("version") != 1:
        raise ValueError(f"unsupported header version {header.get('version')}")
    if header.get("dtype") != "f32":
        raise ValueError(f"unsupported dtype {header.get('dtype')!r}")
    try:
        parts = dict(
            input_shape=tuple(header["input_shape"]),
            layers=tuple(
                LayerSpec(**{f.name: entry[f.name] for f in fields(LayerSpec)})
                for entry in header["layers"]
            ),
            num_classes=header["num_classes"],
        )
        listed = header["tensors"]  # a missing key is named before any fault of the spec
        spec = NetworkSpec(**parts)  # a NetworkError is a ValueError, e.g. "kind": "conv3d"
    except KeyError as exc:
        raise ValueError(f"JSON header lacks key {exc}") from exc
    except TypeError as exc:  # a value of the wrong JSON type, e.g. "units": "2"
        raise ValueError(f"malformed JSON header: {exc}") from exc
    table = _tensor_table(spec)
    mismatch = _table_mismatch(listed, table)
    if mismatch:
        raise ValueError(mismatch)
    preprocess = header.get("preprocess")
    if "preprocess" in header and not isinstance(preprocess, dict):
        raise ValueError(f"preprocess must be a JSON object, got {preprocess!r}")
    spec = replace(
        spec, preprocess=preprocess, classes=_recorded_classes(header, spec.num_classes)
    )
    return spec, table


def load_weights(path) -> tuple[NetworkSpec, Parameters]:
    """Read a weights container back into (spec, float32 parameters), one copy of each tensor."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = fh.read(HEADER_START)
        if start[:3] == MAGIC[:3] and start[:4] != MAGIC:
            raise WeightsFormatError(
                f"unsupported weights version {start[3:4]!r}, expected {MAGIC[3:4]!r}", 3
            )
        if start[:4] != MAGIC:
            raise WeightsFormatError(f"bad magic {start[:4]!r}, expected {MAGIC!r}", 0)
        if len(start) < HEADER_START:
            raise WeightsFormatError("truncated header length field", len(start))
        (header_len,) = struct.unpack("<Q", start[len(MAGIC) :])
        if size < HEADER_START + header_len:  # before reading, so a huge length reads nothing
            raise WeightsFormatError("truncated JSON header", size)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, 4300+ digit int, deep nesting
            raise WeightsFormatError(f"unreadable JSON header: {exc}", HEADER_START) from exc
        try:
            spec, table = _header_to_spec(header)
        except ValueError as exc:
            raise WeightsFormatError(str(exc), HEADER_START) from exc
        end = HEADER_START + header_len + 4 * sum(math.prod(t["shape"]) for t in table)
        if size < end:
            raise WeightsFormatError("truncated tensor payload", size)
        if size > end:
            raise WeightsFormatError(f"{size - end} unexpected trailing bytes", end)
        arrays, offset = [], HEADER_START + header_len
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
