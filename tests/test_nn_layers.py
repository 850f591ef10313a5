"""Tests for functional ops, layers, attention, losses and optimizers."""

import numpy as np
import pytest

from repro.kernels.fusion import gelu as np_gelu
from repro.kernels.fusion import layernorm as np_layernorm
from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import (
    Conv2d,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    LSTMCell,
    MaxPool2d,
    Module,
    Sequential,
)
from repro.nn.loss import cross_entropy, sequence_cross_entropy
from repro.nn.optimizer import SGD, Adam
from repro.nn.tensor import Tensor

from tests.test_nn_tensor import numerical_grad


class TestFunctional:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 7)))
        out = F.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_linear_is_affine_in_gemm_orientation(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data)
        np.testing.assert_array_equal(F.linear(x, w).data, x.data @ w.data)
        out.sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 5.0))
        np.testing.assert_allclose(w.grad, x.data.sum(axis=0)[:, None] * np.ones((1, 3)))

    def test_softmax_stability(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = F.softmax(x)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((3, 5)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12
        )

    def test_gelu_matches_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 4))
        np.testing.assert_allclose(F.gelu(Tensor(x)).data, np_gelu(x), atol=1e-12)

    def test_layer_norm_matches_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 8))
        np.testing.assert_allclose(
            F.layer_norm(Tensor(x)).data, np_layernorm(x), atol=1e-9
        )

    def test_softmax_gradcheck(self):
        rng = np.random.default_rng(4)
        x_data = rng.standard_normal((3, 4))
        x = Tensor(x_data.copy(), requires_grad=True)
        (F.softmax(x) * Tensor(np.arange(12.0).reshape(3, 4))).sum().backward()

        def f(v):
            e = np.exp(v - v.max(axis=-1, keepdims=True))
            s = e / e.sum(axis=-1, keepdims=True)
            return (s * np.arange(12.0).reshape(3, 4)).sum()

        np.testing.assert_allclose(x.grad, numerical_grad(f, x_data.copy()), atol=1e-5)

    def test_layer_norm_gradcheck(self):
        rng = np.random.default_rng(5)
        x_data = rng.standard_normal((2, 6))
        x = Tensor(x_data.copy(), requires_grad=True)
        F.layer_norm(x).sum().backward()

        def f(v):
            mu = v.mean(axis=-1, keepdims=True)
            var = v.var(axis=-1, keepdims=True)
            return ((v - mu) / np.sqrt(var + 1e-5)).sum()

        np.testing.assert_allclose(x.grad, numerical_grad(f, x_data.copy()), atol=1e-4)

    def test_dropout_eval_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_dropout_train_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        # inverted dropout preserves expectation
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(2)), 1.0, True, np.random.default_rng(0))


class TestModules:
    def test_linear_shapes_and_grad(self):
        rng = np.random.default_rng(0)
        lin = Linear(6, 4, rng=rng)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        out = lin(x)
        assert out.shape == (3, 4)
        out.sum().backward()
        assert lin.weight.grad.shape == (6, 4)
        assert lin.bias.grad.shape == (4,)

    def test_linear_no_bias(self):
        lin = Linear(3, 2, bias=False, rng=np.random.default_rng(0))
        assert lin.bias is None
        assert lin(Tensor(np.ones((1, 3)))).shape == (1, 2)

    def test_linear_validation(self):
        with pytest.raises(ValueError):
            Linear(0, 4)

    def test_module_parameter_registry(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(4, 4, rng=np.random.default_rng(0))
                self.b = Linear(4, 2, rng=np.random.default_rng(1))

            def forward(self, x):
                return self.b(self.a(x))

        net = Net()
        params = list(net.parameters())
        assert len(params) == 4  # 2 weights + 2 biases
        assert sum(p.size for p in params) == 4 * 4 + 4 + 4 * 2 + 2

    def test_named_modules_dotted_depth_first(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.enc = Sequential(Linear(4, 4), Dropout(0.1))
                self.head = Linear(4, 2)

            def forward(self, x):
                return self.head(self.enc(x))

        names = [(n, type(m).__name__) for n, m in Net().named_modules("net")]
        assert names == [
            ("net", "Net"),
            ("net.enc", "Sequential"),
            ("net.enc.step0", "Linear"),
            ("net.enc.step1", "Dropout"),
            ("net.head", "Linear"),
        ]
        assert next(Net().named_modules())[0] == "Net"

    def test_module_shared_parameter_deduplicated(self):
        class Tied(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(4, 4, rng=np.random.default_rng(0))
                self.b = self.a  # shared

            def forward(self, x):
                return self.b(self.a(x))

        assert len(list(Tied().parameters())) == 2

    def test_train_eval_recursive(self):
        net = Sequential(Linear(4, 4), Dropout(0.5))
        net.eval()
        assert not net.steps[1].training
        net.train()
        assert net.steps[1].training

    def test_zero_grad(self):
        lin = Linear(3, 3, rng=np.random.default_rng(0))
        lin(Tensor(np.ones((2, 3)))).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_embedding_forward(self):
        emb = Embedding(10, 4, rng=np.random.default_rng(0))
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_embedding_range_check(self):
        emb = Embedding(4, 2)
        with pytest.raises(ValueError):
            emb(np.array([7]))

    def test_layernorm_module(self):
        ln = LayerNorm(8)
        out = ln(Tensor(np.random.default_rng(0).standard_normal((3, 8))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)

    def test_sequential(self):
        net = Sequential(
            Linear(4, 8, rng=np.random.default_rng(0)),
            Linear(8, 2, rng=np.random.default_rng(1)),
        )
        assert net(Tensor(np.ones((5, 4)))).shape == (5, 2)


class TestConvPool:
    def test_conv_matches_reference_kernel(self):
        from repro.kernels.im2col import conv2d_gemm

        rng = np.random.default_rng(0)
        conv = Conv2d(3, 5, 3, stride=1, padding=1, rng=rng)
        x = rng.standard_normal((2, 3, 8, 8))
        out = conv(Tensor(x))
        # rebuild OIHW filters from the lowered weight
        w_oihw = conv.weight.data.T.reshape(5, 3, 3, 3)
        expected = conv2d_gemm(x, w_oihw, conv.bias.data, 1, 1)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_conv_input_gradcheck(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(2, 3, 2, rng=rng)
        x_data = rng.standard_normal((1, 2, 4, 4))
        x = Tensor(x_data.copy(), requires_grad=True)
        conv(x).sum().backward()
        w, b = conv.weight.data, conv.bias.data

        def f(v):
            from repro.kernels.im2col import im2col

            cols = im2col(v, 2, 2, 1, 0)
            return (cols @ w + b).sum()

        np.testing.assert_allclose(x.grad, numerical_grad(f, x_data.copy()), atol=1e-5)

    def test_conv_weight_grad_shape(self):
        conv = Conv2d(2, 4, 3, rng=np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).standard_normal((2, 2, 5, 5)))
        conv(x).sum().backward()
        assert conv.weight.grad.shape == (2 * 3 * 3, 4)

    def test_conv_validation(self):
        with pytest.raises(ValueError):
            Conv2d(0, 1, 3)
        conv = Conv2d(2, 2, 3)
        with pytest.raises(ValueError):
            conv(Tensor(np.ones((1, 3, 8, 8))))  # wrong channels

    def test_maxpool_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(Tensor(x))
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_grad_routes_to_max(self):
        x_data = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        x = Tensor(x_data, requires_grad=True)
        MaxPool2d(2)(x).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(x.grad[0, 0], expected)

    def test_maxpool_validation(self):
        with pytest.raises(ValueError):
            MaxPool2d(0)
        with pytest.raises(ValueError):
            MaxPool2d(3)(Tensor(np.ones((1, 1, 4, 4))))


class TestAttention:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        mha = MultiHeadSelfAttention(16, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 16)))
        assert mha(x).shape == (2, 5, 16)

    def test_padding_mask_blocks_positions(self):
        rng = np.random.default_rng(1)
        mha = MultiHeadSelfAttention(8, 2, rng=rng)
        x_data = rng.standard_normal((1, 4, 8))
        mask = np.array([[False, False, True, True]])
        out_masked = mha(Tensor(x_data), mask)
        # changing a masked position's content must not affect the output
        # at unmasked positions
        x2 = x_data.copy()
        x2[0, 3] += 10.0
        out_masked2 = mha(Tensor(x2), mask)
        np.testing.assert_allclose(
            out_masked.data[:, :2], out_masked2.data[:, :2], atol=1e-10
        )

    def test_gradients_flow(self):
        rng = np.random.default_rng(2)
        mha = MultiHeadSelfAttention(8, 2, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        mha(x).sum().backward()
        assert x.grad is not None
        for w in mha.projection_weights():
            assert w.grad is not None

    def test_projection_weights_count(self):
        mha = MultiHeadSelfAttention(8, 2)
        assert len(mha.projection_weights()) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)  # not divisible
        mha = MultiHeadSelfAttention(8, 2)
        with pytest.raises(ValueError):
            mha(Tensor(np.ones((1, 3, 6))))
        with pytest.raises(ValueError):
            mha(Tensor(np.ones((1, 3, 8))), np.ones((2, 3), dtype=bool))


class TestLSTM:
    def test_step_shapes(self):
        rng = np.random.default_rng(0)
        cell = LSTMCell(6, 8, rng=rng)
        h, c = cell.init_state(3)
        x = Tensor(rng.standard_normal((3, 6)))
        h2, c2 = cell(x, (h, c))
        assert h2.shape == (3, 8) and c2.shape == (3, 8)

    def test_gradients_through_time(self):
        rng = np.random.default_rng(1)
        cell = LSTMCell(4, 4, rng=rng)
        h, c = cell.init_state(2)
        for _ in range(5):
            x = Tensor(rng.standard_normal((2, 4)))
            h, c = cell(x, (h, c))
        h.sum().backward()
        assert cell.w_ih.grad is not None
        assert cell.w_hh.grad is not None

    def test_forget_bias_initialised_to_one(self):
        cell = LSTMCell(4, 4)
        hs = 4
        np.testing.assert_array_equal(cell.bias.data[hs : 2 * hs], np.ones(4))

    def test_gemm_weights(self):
        cell = LSTMCell(4, 8)
        ws = cell.gemm_weights()
        assert ws[0].shape == (4, 32) and ws[1].shape == (8, 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMCell(0, 4)


class TestLoss:
    def test_cross_entropy_known_value(self):
        logits = Tensor(np.array([[np.log(3.0), 0.0]]))
        # softmax = [0.75, 0.25]; CE(label 0) = -log 0.75
        loss = cross_entropy(logits, np.array([0]))
        assert loss.item() == pytest.approx(-np.log(0.75))

    def test_cross_entropy_gradcheck(self):
        rng = np.random.default_rng(0)
        logits_data = rng.standard_normal((4, 5))
        labels = np.array([0, 2, 4, 1])
        logits = Tensor(logits_data.copy(), requires_grad=True)
        cross_entropy(logits, labels).backward()

        def f(v):
            shifted = v - v.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return -logp[np.arange(4), labels].mean()

        np.testing.assert_allclose(
            logits.grad, numerical_grad(f, logits_data.copy()), atol=1e-5
        )

    def test_label_smoothing_increases_loss_on_confident_model(self):
        logits = Tensor(np.array([[10.0, -10.0]]))
        plain = cross_entropy(logits, np.array([0])).item()
        smooth = cross_entropy(logits, np.array([0]), label_smoothing=0.2).item()
        assert smooth > plain

    def test_cross_entropy_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.ones((2, 3))), np.array([0]))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.ones((2, 3))), np.array([0, 5]))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.ones(3)), np.array([0]))

    def test_sequence_cross_entropy_ignores_padding(self):
        logits = Tensor(np.zeros((1, 3, 4)), requires_grad=True)
        labels = np.array([[1, 2, 0]])  # last is pad
        loss = sequence_cross_entropy(logits, labels, pad_id=0)
        assert loss.item() == pytest.approx(np.log(4.0))
        loss.backward()
        # padded position receives no gradient
        np.testing.assert_allclose(logits.grad[0, 2], 0.0)

    def test_sequence_cross_entropy_validation(self):
        with pytest.raises(ValueError):
            sequence_cross_entropy(Tensor(np.ones((2, 3))), np.ones((2, 3), dtype=int))


class TestOptimizers:
    def _quadratic_descent(self, opt_cls, **kw):
        target = np.array([3.0, -2.0])
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = opt_cls([p], **kw)
        for _ in range(300):
            opt.zero_grad()
            ((p - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-2)

    def test_sgd_converges(self):
        self._quadratic_descent(SGD, lr=0.1)

    def test_sgd_momentum_converges(self):
        self._quadratic_descent(SGD, lr=0.05, momentum=0.9)

    def test_adam_converges(self):
        self._quadratic_descent(Adam, lr=0.1)

    def test_mask_freezes_pruned_weights(self):
        p = Tensor(np.ones(4), requires_grad=True)
        opt = SGD([p], lr=0.5)
        mask = np.array([True, False, True, False])
        opt.set_mask(p, mask)
        np.testing.assert_allclose(p.data, [1, 0, 1, 0])
        for _ in range(3):
            opt.zero_grad()
            (p * Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).sum().backward()
            opt.step()
        assert p.data[1] == 0.0 and p.data[3] == 0.0
        assert p.data[0] != 1.0  # unmasked entries still learn

    def test_mask_shape_check(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = SGD([p], lr=0.1)
        with pytest.raises(ValueError):
            opt.set_mask(p, np.ones(3, dtype=bool))

    def test_weight_decay(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert p.data[0] < 10.0  # decay shrinks even with zero task grad

    def test_validation(self):
        p = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=-1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            Adam([p], lr=0.1, betas=(1.0, 0.9))
