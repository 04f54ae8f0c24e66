"""Dense tensor kernels: convolution, pooling, dense products, activations.

Tensors are plain numpy arrays in row-major (C) order; an array's
``shape``/flat buffer pair is the value, and no kernel ever mutates its
inputs.  Convolutions use valid padding with stride 1 and pooling uses a
2x2 window with stride 2, the only configurations the network layer ever
requests.  Max pooling also returns the argmax indices that its explicit
backward pass needs; :func:`grainforge.network.forward` keeps the other
per-layer state (inputs and pre-activations) for backpropagation.

The forward convolution is one im2col matrix product (Chellapilla et al.,
2006) so the heavy lifting lands in BLAS.  Its backward pass rebuilds the
same im2col matrix and takes the kernel gradient as one product over it;
the input gradient is one product per kernel offset, each added into its
shifted slice of the input.  Max pooling selects between the four window
corners with elementwise maxima, and its training winners come from
strict comparisons combined bitwise.  The pooling backward pass writes
``dout`` times each corner's winner mask straight into that corner of
``dx``, so a non-winner's gradient is ``dout * 0``: a zero carrying
``dout``'s sign, or NaN where ``dout`` is not finite.  The test suite
checks every kernel element-by-element against naive nested-loop oracles.
"""

from __future__ import annotations

import numpy as np

Tensor = np.ndarray


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _windows(x: Tensor, kh: int, kw: int) -> Tensor:
    """Read-only (B, H', W', Kh, Kw, C) view of every Kh x Kw window of (B,H,W,C) ``x``."""
    b, h, w, c = x.shape
    sb, sh, sw, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (b, h - kh + 1, w - kw + 1, kh, kw, c), (sb, sh, sw, sh, sw, sc), writeable=False
    )


def conv2d_batch(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid-padding stride-1 convolution of (B,H,W,Cin) with (Kh,Kw,Cin,Cout).

    Computed by im2col: each output pixel's Kh x Kw x Cin window becomes
    one row of a contiguous (B*H'*W', Kh*Kw*Cin) matrix, which is
    multiplied once by the kernels flattened to (Kh*Kw*Cin, Cout).
    """
    if x.ndim != 4:
        raise ShapeError(f"conv input must be 4-d (B,H,W,C), got shape {x.shape}")
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be 4-d (Kh,Kw,Cin,Cout), got shape {kernels.shape}")
    b, h, w, cin = x.shape
    kh, kw, kcin, cout = kernels.shape
    if cin != kcin:
        raise ShapeError(
            f"input channel axis ({cin}) does not match kernel input channels ({kcin})"
        )
    if h < kh or w < kw:
        raise ShapeError(
            f"input spatial axes {h}x{w} smaller than kernel {kh}x{kw}"
        )
    if bias.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},), got {bias.shape}")
    # rows ordered (Kh, Kw, Cin) like the kernels
    cols = _windows(x, kh, kw).reshape(-1, kh * kw * cin)
    out = cols @ kernels.reshape(-1, cout)
    out += bias
    return out.reshape(b, h - kh + 1, w - kw + 1, cout)


def conv2d_backward(x: Tensor, kernels: Tensor, dout: Tensor, need_dx: bool = True):
    """Gradients of a valid conv given upstream (B,H',W',Cout) gradient.

    Returns (dx, dkernels, dbias).  The kernel gradient is one product of
    the transposed im2col matrix of ``x``, rebuilt as :func:`conv2d_batch`
    builds it, with the upstream gradient flattened to (B*H'*W', Cout).
    The input gradient is one product per kernel offset, spread back over
    that offset's shifted window.  With ``need_dx=False`` the input
    gradient is not computed and ``dx`` is None; the kernel and bias
    gradients are the same either way.
    """
    b, h, w, cin = x.shape
    kh, kw, _, cout = kernels.shape
    oh, ow = h - kh + 1, w - kw + 1

    dbias = dout.sum(axis=(0, 1, 2))
    dout_flat = dout.reshape(b * oh * ow, cout)
    cols = _windows(x, kh, kw).reshape(-1, kh * kw * cin)
    dkernels = (cols.T @ dout_flat).astype(dout.dtype, copy=False).reshape(kh, kw, cin, cout)
    del cols  # the copy is the size of the forward's im2col; free it before dx
    if not need_dx:
        return None, dkernels, dbias
    dx = np.zeros_like(x, dtype=dout.dtype)
    for dy in range(kh):
        for dx_ in range(kw):
            spread = (dout_flat @ kernels[dy, dx_].T).reshape(b, oh, ow, cin)
            dx[:, dy : dy + oh, dx_ : dx_ + ow, :] += spread
    return dx, dkernels, dbias


def maxpool2d_batch(x: Tensor, winners: bool = True):
    """2x2 stride-2 max pooling of (B,H,W,C); trailing odd row/col dropped.

    Returns (pooled, argmax) where argmax is a uint8 array holding the
    within-window winner index in {0,1,2,3} (row-major over the window)
    for the backward pass.  Ties go to the first maximum in that order.
    A NaN anywhere in a window makes its pooled value NaN.  Inference
    passes ``winners=False``: the winners, about half the work, are not
    computed and argmax is an empty uint8 array.
    """
    if x.ndim != 4:
        raise ShapeError(f"pool input must be 4-d (B,H,W,C), got shape {x.shape}")
    n, h, w, ch = x.shape
    if h < 2 or w < 2:
        raise ShapeError(f"pool input spatial axes {h}x{w} must be at least 2x2")
    oh, ow = h // 2, w // 2
    win = x[:, : 2 * oh, : 2 * ow, :].reshape(n, oh, 2, ow, 2, ch)
    # window corners  a b / c d
    a, b = win[:, :, 0, :, 0], win[:, :, 0, :, 1]
    c, d = win[:, :, 1, :, 0], win[:, :, 1, :, 1]
    # on a tie np.maximum returns its second operand, so the earlier corner
    # is passed second and the pooled value keeps its bits (signed zeros)
    top = np.maximum(b, a)
    bot = np.maximum(d, c)
    pooled = np.maximum(bot, top)
    if not winners:
        return pooled, np.empty(0, dtype=np.uint8)
    # strict comparisons keep the first maximum of each pair and of the two
    # rows; the high bit picks the row, the low bit the column within it
    hi = bot > top
    lo = b > a
    lo ^= (lo ^ (d > c)) & hi  # the bottom row's column where hi is set
    argmax = hi.view(np.uint8) << 1
    argmax |= lo.view(np.uint8)
    return pooled, argmax


def maxpool2d_backward(x_shape, argmax: Tensor, dout: Tensor) -> Tensor:
    """Scatter upstream gradient back to each window's argmax position.

    Each corner of every window receives ``dout`` times whether it won,
    so a non-winner gets ``dout * 0``: a zero with ``dout``'s sign, or NaN
    where ``dout`` is not finite.  A trailing odd row or column, which no
    window covers, is +0.
    """
    b, h, w, c = x_shape
    oh, ow = h // 2, w // 2
    # every element is written below unless a trailing odd row/col is left over
    dx = (np.zeros if h % 2 or w % 2 else np.empty)(x_shape, dtype=dout.dtype)
    # splitting the row and column axes is always a view, so the writes land in dx
    win = dx[:, : 2 * oh, : 2 * ow, :].reshape(b, oh, 2, ow, 2, c)
    for k in range(4):
        np.multiply(dout, argmax == k, out=win[:, :, k // 2, :, k % 2])
    return dx


def dense_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """x^T W + b for a single vector or a (B,N) batch."""
    n, m = weights.shape
    if x.shape[-1] != n:
        raise ShapeError(
            f"input length ({x.shape[-1]}) does not match weight rows ({n})"
        )
    if bias.shape != (m,):
        raise ShapeError(f"bias must have shape ({m},), got {bias.shape}")
    return x @ weights + bias


def dense_backward(x: Tensor, weights: Tensor, dout: Tensor):
    """Gradients for a (B,N) batch dense layer; returns (dx, dweights, dbias)."""
    dweights = x.T @ dout
    dbias = dout.sum(axis=0)
    dx = dout @ weights.T
    return dx, dweights, dbias


def relu(x: Tensor) -> Tensor:
    return np.maximum(x, 0)


def relu_backward(x: Tensor, dout: Tensor) -> Tensor:
    return dout * (x > 0)


def softmax(logits: Tensor) -> Tensor:
    """Exp-normalized probabilities over the last axis, max-subtracted."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
