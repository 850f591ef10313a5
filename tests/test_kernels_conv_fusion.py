"""Tests for im2col lowering, blocked transpose, and fused epilogues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    add_bias,
    bias_gelu,
    bias_layernorm,
    bias_layernorm_reference,
    blocked_transpose,
    col2im,
    conv2d_gemm,
    conv_output_shape,
    dropout_residual_layernorm,
    dropout_residual_layernorm_reference,
    gelu,
    im2col,
    layernorm,
)
from repro.kernels.im2col import lower_filters


def reference_conv2d(x, w, bias=None, stride=1, padding=0):
    """Direct (slow) convolution for cross-checking."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh, ow = conv_output_shape(h, wd, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, o, oh, ow))
    for b in range(n):
        for f in range(o):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, f, i, j] = (patch * w[f]).sum()
    if bias is not None:
        out += bias[None, :, None, None]
    return out


class TestIm2col:
    def test_output_shape(self):
        assert conv_output_shape(8, 8, 3, 3) == (6, 6)
        assert conv_output_shape(8, 8, 3, 3, stride=2) == (3, 3)
        assert conv_output_shape(8, 8, 3, 3, padding=1) == (8, 8)

    def test_output_shape_validation(self):
        with pytest.raises(ValueError):
            conv_output_shape(2, 2, 5, 5)
        with pytest.raises(ValueError):
            conv_output_shape(8, 8, 0, 3)

    def test_im2col_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        cols = im2col(x, 3, 3)
        assert cols.shape == (2 * 3 * 3, 3 * 3 * 3)

    def test_im2col_values_simple(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 2)
        np.testing.assert_array_equal(cols[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[-1], [10, 11, 14, 15])

    def test_conv_matches_direct(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0)]:
            np.testing.assert_allclose(
                conv2d_gemm(x, w, b, stride, pad),
                reference_conv2d(x, w, b, stride, pad),
                atol=1e-10,
            )

    def test_conv_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d_gemm(np.ones((1, 3, 5, 5)), np.ones((2, 4, 3, 3)))

    def test_conv_bias_shape(self):
        with pytest.raises(ValueError):
            conv2d_gemm(np.ones((1, 1, 5, 5)), np.ones((2, 1, 3, 3)), np.ones(3))

    def test_lower_filters_shape(self):
        w = np.arange(2 * 3 * 2 * 2, dtype=float).reshape(2, 3, 2, 2)
        lw = lower_filters(w)
        assert lw.shape == (12, 2)
        np.testing.assert_array_equal(lw[:, 0], w[0].ravel())

    def test_col2im_adjoint_property(self):
        """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 6, 6))
        kh = kw = 3
        cols = im2col(x, kh, kw, stride=1, padding=1)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kh, kw, stride=1, padding=1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_shape_check(self):
        with pytest.raises(ValueError):
            col2im(np.ones((5, 5)), (1, 1, 4, 4), 2, 2)


class TestTranspose:
    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        for shape in [(5, 7), (64, 64), (130, 70), (1, 9)]:
            a = rng.standard_normal(shape)
            np.testing.assert_array_equal(blocked_transpose(a), a.T)

    def test_result_contiguous(self):
        a = np.ones((100, 50))
        assert blocked_transpose(a).flags["C_CONTIGUOUS"]

    def test_validation(self):
        with pytest.raises(ValueError):
            blocked_transpose(np.ones(5))
        with pytest.raises(ValueError):
            blocked_transpose(np.ones((2, 2)), block=0)


class TestFusion:
    def test_add_bias(self):
        x = np.zeros((2, 3))
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(add_bias(x, b), np.tile(b, (2, 1)))

    def test_add_bias_shape_check(self):
        with pytest.raises(ValueError):
            add_bias(np.ones((2, 3)), np.ones(2))

    def test_gelu_known_values(self):
        assert gelu(np.array(0.0)) == pytest.approx(0.0)
        assert gelu(np.array(100.0)) == pytest.approx(100.0, rel=1e-6)
        assert gelu(np.array(-100.0)) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gelu_cube_equals_pow_on_dyadic_inputs(self, dtype):
        # the cube is evaluated as x*x*x; on dyadic inputs it and the x**3
        # it replaced are both exact, so the primitive and the fused
        # epilogue each agree bit for bit with their x**3 formulas
        x = (np.arange(-256, 257) / 32.0).astype(dtype)
        c = np.sqrt(2.0 / np.pi)
        old = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        np.testing.assert_array_equal(gelu(x), old)
        old_fused = x**3
        old_fused *= 0.044715
        old_fused += x
        old_fused *= c
        np.tanh(old_fused, out=old_fused)
        old_fused += 1.0
        old_fused *= 0.5 * x
        got = bias_gelu(x[None, :], np.zeros(x.size, dtype=dtype))[0]
        np.testing.assert_array_equal(got, old_fused)

    def test_layernorm_standardises(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 16)) * 5 + 3
        out = layernorm(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_affine(self):
        x = np.array([[1.0, 2.0, 3.0]])
        gamma = np.array([2.0, 2.0, 2.0])
        beta = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            layernorm(x, gamma, beta), 2 * layernorm(x) + 1, atol=1e-12
        )

    def test_fused_equals_composed(self):
        """The fusion correctness claim: fused == composition of unfused."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 32))
        b = rng.standard_normal(32)
        gamma = rng.standard_normal(32)
        beta = rng.standard_normal(32)
        np.testing.assert_allclose(bias_gelu(x, b), gelu(add_bias(x, b)), atol=1e-12)
        np.testing.assert_allclose(
            bias_layernorm(x, b, gamma, beta),
            layernorm(add_bias(x, b), gamma, beta),
            atol=1e-12,
        )


class TestLayerNormMemoryOrder:
    """Equal values in C and Fortran order give equal LayerNorm bits.

    ``tw_gemm`` returns a Fortran-ordered view and ``tw_gemm_reference`` a
    C-ordered array; numpy sums a row in memory order, so the row
    statistics are taken on a C-ordered array in all four functions.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_c_and_f_order_equal_bits(self, dtype, p):
        rng = np.random.default_rng(11)
        gamma = rng.standard_normal(300)
        beta = rng.standard_normal(300)
        for _ in range(20):
            x = rng.standard_normal((8, 300)).astype(dtype)
            bias = rng.standard_normal(300)
            res = rng.standard_normal((8, 300)).astype(dtype)
            xf, resf = np.asfortranarray(x), np.asfortranarray(res)
            for fn, args, args_f in (
                (bias_layernorm, (x, bias, gamma, beta), (xf, bias, gamma, beta)),
                (bias_layernorm_reference, (x, bias, gamma, beta), (xf, bias, gamma, beta)),
                (
                    dropout_residual_layernorm,
                    (x, res, gamma, beta, p, 5),
                    (xf, resf, gamma, beta, p, 5),
                ),
                (
                    dropout_residual_layernorm_reference,
                    (x, res, gamma, beta, p, 5),
                    (xf, resf, gamma, beta, p, 5),
                ),
            ):
                np.testing.assert_array_equal(fn(*args), fn(*args_f), err_msg=fn.__name__)
                # mixed layouts too: a Fortran activation with a C residual
                np.testing.assert_array_equal(
                    fn(*args), fn(xf, *args[1:]), err_msg=fn.__name__
                )

    @pytest.mark.parametrize("dtype, rows", [(np.float64, 300), (np.float32, 600)])
    def test_blocked_sum_past_the_cache_keeps_the_bits(self, dtype, rows):
        """A Fortran input too large for the one-shot transposing write is
        summed in blocks, ragged edges included, with the C-ordered bits."""
        from repro.kernels import fusion

        rng = np.random.default_rng(13)
        x = rng.standard_normal((rows, 1000)).astype(dtype)
        assert x.nbytes > fusion._SUM_BLOCKED_BYTES
        assert rows % fusion._SUM_BLOCK and 1000 % fusion._SUM_BLOCK
        bias, gamma = rng.standard_normal(1000), rng.standard_normal(1000)
        res = rng.standard_normal((rows, 1000)).astype(dtype)
        xf, resf = np.asfortranarray(x), np.asfortranarray(res)
        want = bias_layernorm(x, bias, gamma)
        np.testing.assert_array_equal(bias_layernorm(xf, bias, gamma), want)
        if dtype == np.float64:
            np.testing.assert_array_equal(bias_layernorm_reference(x, bias, gamma), want)
        want = dropout_residual_layernorm(x, res, gamma)
        for args in ((xf, resf), (xf, res), (x, resf)):
            np.testing.assert_array_equal(dropout_residual_layernorm(*args, gamma), want)

    def test_fused_equals_reference_across_layouts_float64(self):
        """A Fortran GEMM output through the fused epilogue equals a
        C-ordered one through the oracle, bit for bit."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 300))
        bias, res = rng.standard_normal(300), rng.standard_normal((8, 300))
        xf = np.asfortranarray(x)
        np.testing.assert_array_equal(
            bias_layernorm(xf, bias), bias_layernorm_reference(x, bias)
        )
        np.testing.assert_array_equal(
            dropout_residual_layernorm(xf, res),
            dropout_residual_layernorm_reference(x, res),
        )


@given(
    st.integers(1, 3), st.integers(1, 3),
    st.integers(3, 8), st.integers(1, 3),
    st.integers(1, 2), st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_conv_gemm_property(n, c, hw, o, stride, pad, seed):
    rng = np.random.default_rng(seed)
    kh = kw = min(3, hw)
    x = rng.standard_normal((n, c, hw, hw))
    w = rng.standard_normal((o, c, kh, kw))
    np.testing.assert_allclose(
        conv2d_gemm(x, w, stride=stride, padding=pad),
        reference_conv2d(x, w, stride=stride, padding=pad),
        atol=1e-9,
    )
