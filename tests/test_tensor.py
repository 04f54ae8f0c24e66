import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grainforge import tensor
from grainforge.rng import Rng


def naive_conv(x, kernels, bias):
    """Quadruple-nested-loop convolution, the independence oracle."""
    h, w, cin = x.shape
    kh, kw, _, cout = kernels.shape
    out = np.zeros((h - kh + 1, w - kw + 1, cout))
    for y in range(out.shape[0]):
        for xx in range(out.shape[1]):
            for co in range(cout):
                acc = bias[co]
                for dy in range(kh):
                    for dx in range(kw):
                        for ci in range(cin):
                            acc += x[y + dy, xx + dx, ci] * kernels[dy, dx, ci, co]
                out[y, xx, co] = acc
    return out


def naive_conv_backward(x, kernels, dout):
    """Nested-loop float64 gradients of a batched valid conv: (dx, dkernels, dbias)."""
    x, kernels, dout = (np.asarray(a, dtype=np.float64) for a in (x, kernels, dout))
    n, h, w, cin = x.shape
    kh, kw, _, cout = kernels.shape
    dx, dk, db = np.zeros_like(x), np.zeros_like(kernels), np.zeros(cout)
    for i in range(n):
        for y in range(h - kh + 1):
            for xx in range(w - kw + 1):
                for co in range(cout):
                    g = dout[i, y, xx, co]
                    db[co] += g
                    for dy in range(kh):
                        for dx_ in range(kw):
                            for ci in range(cin):
                                dx[i, y + dy, xx + dx_, ci] += g * kernels[dy, dx_, ci, co]
                                dk[dy, dx_, ci, co] += g * x[i, y + dy, xx + dx_, ci]
    return dx, dk, db


def naive_pool(x):
    h, w, c = x.shape
    out = np.zeros((h // 2, w // 2, c))
    for i in range(h // 2):
        for j in range(w // 2):
            for ch in range(c):
                out[i, j, ch] = x[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, ch].max()
    return out


def naive_dense(x, weights, bias):
    n, m = weights.shape
    out = np.zeros(m)
    for j in range(m):
        acc = bias[j]
        for i in range(n):
            acc += x[i] * weights[i, j]
        out[j] = acc
    return out


class TestConv2d:
    def test_table_shape(self, rng):
        x = rng.normal(0, 1, (50, 50, 3))
        k = rng.normal(0, 1, (3, 3, 3, 32))
        out = tensor.conv2d_batch(x[None], k, np.zeros(32))[0]
        assert out.shape == (48, 48, 32)

    def test_single_pixel_identity(self):
        x = np.array([[[2.5]]])
        k = np.array([[[[3.0]]]])
        b = np.array([0.75])
        out = tensor.conv2d_batch(x[None], k, b)[0]
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(3.0 * 2.5 + 0.75)

    def test_matches_naive_loop(self, rng):
        x = rng.normal(0, 1, (5, 5, 2))
        k = rng.normal(0, 1, (3, 3, 2, 4))
        b = rng.normal(0, 1, (4,))
        out = tensor.conv2d_batch(x[None], k, b)[0]
        assert np.abs(out - naive_conv(x, k, b)).max() < 1e-12

    def test_all_small_shapes_match_naive(self, rng):
        for h in range(3, 9):
            for w in range(3, 9):
                for cin, cout in ((1, 1), (2, 3)):
                    x = rng.normal(0, 1, (h, w, cin))
                    k = rng.normal(0, 1, (3, 3, cin, cout))
                    b = rng.normal(0, 1, (cout,))
                    got = tensor.conv2d_batch(x[None], k, b)[0]
                    assert np.abs(got - naive_conv(x, k, b)).max() < 1e-12

    def test_channel_mismatch_names_axes(self, rng):
        x = rng.normal(0, 1, (5, 5, 2))
        k = rng.normal(0, 1, (3, 3, 3, 4))
        with pytest.raises(tensor.ShapeError, match="channel"):
            tensor.conv2d_batch(x[None], k, np.zeros(4))

    def test_too_small_input_rejected(self, rng):
        x = rng.normal(0, 1, (2, 5, 3))
        k = rng.normal(0, 1, (3, 3, 3, 4))
        with pytest.raises(tensor.ShapeError, match="smaller than kernel"):
            tensor.conv2d_batch(x[None], k, np.zeros(4))

    def test_linearity_with_zero_bias(self, rng):
        k = rng.normal(0, 1, (3, 3, 2, 3))
        zero = np.zeros(3)
        for _ in range(20):
            x1 = rng.normal(0, 1, (6, 6, 2))
            x2 = rng.normal(0, 1, (6, 6, 2))
            a, b = rng.uniform(-3, 3, 2)
            lhs = tensor.conv2d_batch((a * x1 + b * x2)[None], k, zero)[0]
            rhs = (
                a * tensor.conv2d_batch(x1[None], k, zero)[0]
                + b * tensor.conv2d_batch(x2[None], k, zero)[0]
            )
            assert np.abs(lhs - rhs).max() < 1e-10


    def test_strided_views_match_naive(self, rng):
        # the im2col view is built from the input's own strides
        base = rng.normal(0, 1, (3, 13, 11, 4))
        k = rng.normal(0, 1, (3, 3, 2, 3))
        b = rng.normal(0, 1, (3,))
        views = (base[:, ::2, 1:, 1::2], base[::2, 3:, :8, :2], np.asfortranarray(base)[..., :2])
        for x in views:
            got = tensor.conv2d_batch(x, k, b)
            for i in range(x.shape[0]):
                assert np.abs(got[i] - naive_conv(x[i], k, b)).max() < 1e-12

    @pytest.mark.parametrize("cin, cout", [(3, 32), (5, 4)])
    def test_backward_without_dx_keeps_kernel_gradients(self, rng, cin, cout):
        x = rng.normal(0, 1, (2, 9, 7, cin)).astype(np.float32)
        k = rng.normal(0, 0.2, (3, 3, cin, cout)).astype(np.float32)
        dout = rng.normal(0, 1, (2, 7, 5, cout)).astype(np.float32)
        dx, dk, db = tensor.conv2d_backward(x, k, dout)
        none, dk_only, db_only = tensor.conv2d_backward(x, k, dout, need_dx=False)
        assert none is None and dx.shape == x.shape
        assert np.array_equal(dk_only, dk) and np.array_equal(db_only, db)

    @pytest.mark.parametrize("hw, cin, cout", [((6, 7), 3, 32), ((5, 5), 32, 64)])
    def test_float32_matches_float64_oracle(self, rng, hw, cin, cout):
        # the channel counts of the first two convs of both networks; float32
        # products summed in BLAS order stay within 1e-5 of the largest output
        x = rng.normal(0, 1, (*hw, cin)).astype(np.float32)
        k = rng.normal(0, 0.2, (3, 3, cin, cout)).astype(np.float32)
        b = rng.normal(0, 1, (cout,)).astype(np.float32)
        got = tensor.conv2d_batch(x[None], k, b)[0]
        assert got.dtype == np.float32
        want = naive_conv(x.astype(np.float64), k.astype(np.float64), b.astype(np.float64))
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


class TestConv2dBackward:
    @staticmethod
    def assert_matches_oracle(x, k, dout, atol=1e-12, rtol=0.0):
        """Each gradient within atol + rtol * its largest oracle value, with and without dx."""
        want = naive_conv_backward(x, k, dout)
        for need_dx in (True, False):
            got = tensor.conv2d_backward(x, k, dout, need_dx=need_dx)
            assert (got[0] is None) == (not need_dx)
            for g, ref in zip(got, want):
                if g is not None:
                    assert g.dtype == dout.dtype and g.shape == ref.shape
                    assert np.abs(g - ref).max() <= atol + rtol * np.abs(ref).max()

    def test_all_small_shapes_match_naive(self, rng):
        for h in range(3, 9):
            for w in range(3, 9):
                for cin, cout in ((1, 1), (2, 3), (3, 32)):
                    x = rng.normal(0, 1, (2, h, w, cin))
                    k = rng.normal(0, 1, (3, 3, cin, cout))
                    dout = rng.normal(0, 1, (2, h - 2, w - 2, cout))
                    self.assert_matches_oracle(x, k, dout)

    def test_strided_views_match_naive(self, rng):
        # the im2col matrix of the kernel gradient is built from the input's own strides
        base = rng.normal(0, 1, (3, 13, 11, 4))
        k = rng.normal(0, 1, (3, 3, 2, 3))
        views = (base[:, ::2, 1:, 1::2], base[::2, 3:, :8, :2], np.asfortranarray(base)[..., :2])
        for x in views:
            b, h, w, _ = x.shape
            dout = rng.normal(0, 1, (b, h - 2, w - 2, 3))
            self.assert_matches_oracle(x, k, dout)

    @pytest.mark.parametrize("hw, cin, cout", [((6, 7), 3, 32), ((5, 5), 32, 64)])
    def test_float32_matches_float64_oracle(self, rng, hw, cin, cout):
        # float32 gradients stay within 1e-5 of each gradient's largest oracle value
        x = rng.normal(0, 1, (2, *hw, cin)).astype(np.float32)
        k = rng.normal(0, 0.2, (3, 3, cin, cout)).astype(np.float32)
        dout = rng.normal(0, 1, (2, hw[0] - 2, hw[1] - 2, cout)).astype(np.float32)
        self.assert_matches_oracle(x, k, dout, atol=0.0, rtol=1e-5)


class TestMaxPool:
    def test_table_shape(self, rng):
        x = rng.normal(0, 1, (48, 48, 32))
        out = tensor.maxpool2d_batch(x[None])[0][0]
        assert out.shape == (24, 24, 32)

    def test_constant_input(self):
        x = np.full((6, 6, 2), 3.25)
        out = tensor.maxpool2d_batch(x[None])[0][0]
        assert np.all(out == 3.25)

    def test_matches_window_scan(self, rng):
        x = rng.normal(0, 1, (6, 6, 1))
        out = tensor.maxpool2d_batch(x[None])[0][0]
        assert np.array_equal(out, naive_pool(x))

    def test_all_small_shapes_match_scan(self, rng):
        for h in range(2, 9):
            for w in range(2, 9):
                x = rng.normal(0, 1, (h, w, 2))
                out = tensor.maxpool2d_batch(x[None])[0][0]
                assert np.array_equal(out, naive_pool(x)), (h, w)

    def test_backward_routes_to_argmax(self, rng):
        x = rng.normal(0, 1, (1, 4, 4, 1))
        pooled, argmax = tensor.maxpool2d_batch(x)
        dout = np.ones_like(pooled)
        dx = tensor.maxpool2d_backward(x.shape, argmax, dout)
        # each window contributes exactly one gradient, at its max
        assert dx.sum() == pooled.size
        assert np.all((dx > 0) == (x == np.repeat(np.repeat(pooled, 2, 1), 2, 2)))


    def test_ties_go_to_first_maximum(self):
        # every 2x2 window over {0, 1}, then an all-equal negative window,
        # side by side along the width
        windows = [np.array(bits, dtype=float).reshape(2, 2) for bits in np.ndindex(2, 2, 2, 2)]
        windows.append(np.full((2, 2), -1.5))
        x = np.concatenate(windows, axis=1)[None, :, :, None]
        pooled, argmax = tensor.maxpool2d_batch(x)
        assert argmax.dtype == np.uint8
        first = [int(np.argmax(win.reshape(-1))) for win in windows]
        assert argmax[0, 0, :, 0].tolist() == first
        assert pooled[0, 0, :, 0].tolist() == [win.max() for win in windows]
        dout = np.arange(1.0, len(windows) + 1)[None, None, :, None]
        dx = tensor.maxpool2d_backward(x.shape, argmax, dout)
        for j in range(len(windows)):
            want = np.zeros(4)
            want[first[j]] = j + 1.0
            assert np.array_equal(dx[0, :, 2 * j : 2 * j + 2, 0].reshape(-1), want), j

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_in_any_corner_pools_to_nan(self, dtype):
        x = np.zeros((4, 2, 2, 2), dtype=dtype)
        for corner in range(4):
            x[corner, corner // 2, corner % 2, 0] = np.nan
        pooled, _ = tensor.maxpool2d_batch(x)
        assert np.all(np.isnan(pooled[:, 0, 0, 0]))
        assert np.array_equal(pooled[:, 0, 0, 1], np.zeros(4, dtype=dtype))


    def test_without_winners_pools_the_same_bytes(self, rng):
        tie_heavy = rng.integers(-1, 2, (3, 9, 8, 4)).astype(np.float32)
        nan = rng.normal(0, 1, (2, 6, 6, 3))
        nan[0, 1, 2, 0] = nan[1, 5, 5, 2] = np.nan
        for x in (rng.normal(0, 1, (2, 7, 10, 3)), tie_heavy, -np.abs(tie_heavy), nan):
            pooled, argmax = tensor.maxpool2d_batch(x)
            lean, none = tensor.maxpool2d_batch(x, winners=False)
            assert lean.dtype == pooled.dtype and lean.tobytes() == pooled.tobytes()
            assert none.dtype == np.uint8 and none.nbytes == 0 and argmax.nbytes > 0


class TestDense:
    def test_table_shape(self, rng):
        x = rng.normal(0, 1, (7744,))
        w = rng.normal(0, 1, (7744, 32))
        out = tensor.dense_forward(x, w, np.zeros(32))
        assert out.shape == (32,)

    def test_identity_weights(self, rng):
        x = rng.normal(0, 1, (5,))
        out = tensor.dense_forward(x, np.eye(5), np.zeros(5))
        assert np.array_equal(out, x)

    def test_matches_scalar_loop(self, rng):
        x = rng.normal(0, 1, (8,))
        w = rng.normal(0, 1, (8, 3))
        b = rng.normal(0, 1, (3,))
        out = tensor.dense_forward(x, w, b)
        assert np.abs(out - naive_dense(x, w, b)).max() < 1e-12

    def test_length_mismatch(self, rng):
        with pytest.raises(tensor.ShapeError, match="weight rows"):
            tensor.dense_forward(np.zeros(4), rng.normal(0, 1, (5, 2)), np.zeros(2))


class TestActivations:
    def test_relu_definition(self):
        assert np.array_equal(tensor.relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])

    def test_softmax_uniform(self):
        out = tensor.softmax(np.zeros(5))
        assert np.allclose(out, 0.2, atol=1e-15)

    def test_softmax_shift_invariance(self, rng):
        for _ in range(20):
            z = rng.normal(0, 3, (7,))
            c = float(rng.uniform(-10, 10))
            d = np.abs(tensor.softmax(z) - tensor.softmax(z + c)).max()
            assert d < 1e-12

    @given(
        st.lists(st.floats(min_value=-15, max_value=15), min_size=2, max_size=10)
    )
    @settings(max_examples=200)
    def test_softmax_is_probability_vector(self, logits):
        # logit spread capped at 30: past ~36 the largest probability rounds
        # to exactly 1.0 at float64 and strict openness cannot hold
        out = tensor.softmax(np.array(logits))
        assert np.all(out > 0) and np.all(out < 1)
        assert abs(out.sum() - 1.0) < 1e-12


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = Rng(987654321).random(10_000)
        b = Rng(987654321).random(10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).random(100), Rng(2).random(100))

    def test_children_are_stable_and_distinct(self):
        base = Rng(7)
        assert np.array_equal(Rng(7).child("x").random(50), base.child("x").random(50))
        assert not np.array_equal(base.child("x").random(50), base.child("y").random(50))

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)
