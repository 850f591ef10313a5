"""Gradient-check tests for the autodiff engine.

Every op's analytic gradient is validated against central finite
differences — the ground truth for the whole nn stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, no_grad


def numerical_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        hi = f(x)
        x[i] = old - eps
        lo = f(x)
        x[i] = old
        g[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(op, *shapes, seed=0, atol=1e-5):
    """Compare autodiff and numerical gradients of sum(op(xs))."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) * 0.5 + 0.75 for s in shapes]  # keep >0-ish
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    out.sum().backward()
    for i, (t, a) in enumerate(zip(tensors, arrays)):
        def f(x, i=i):
            args = [Tensor(arr) for arr in arrays]
            args[i] = Tensor(x)
            return op(*args).sum().item()

        num = numerical_grad(f, a.copy())
        np.testing.assert_allclose(t.grad, num, atol=atol, err_msg=f"operand {i}")


class TestArithmeticGrads:
    def test_add(self):
        check_grad(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_grad(lambda a, b: a + b, (3, 4), (4,))
        check_grad(lambda a, b: a + b, (2, 3, 4), (3, 1))

    def test_mul(self):
        check_grad(lambda a, b: a * b, (3, 4), (3, 4))

    def test_mul_broadcast(self):
        check_grad(lambda a, b: a * b, (3, 4), (1, 4))

    def test_sub_neg(self):
        check_grad(lambda a, b: a - b, (2, 3), (2, 3))
        check_grad(lambda a: -a, (4,))

    def test_div(self):
        check_grad(lambda a, b: a / b, (3, 3), (3, 3))

    def test_pow(self):
        check_grad(lambda a: a**3, (3, 2))
        check_grad(lambda a: a**0.5, (4,))

    def test_matmul(self):
        check_grad(lambda a, b: a @ b, (3, 4), (4, 5))

    def test_matmul_batched(self):
        check_grad(lambda a, b: a @ b, (2, 3, 4), (2, 4, 5))

    def test_matmul_broadcast_rhs(self):
        check_grad(lambda a, b: a @ b, (2, 3, 4), (4, 5))

    def test_scalar_coercion(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = (2.0 * t + 1.0 - 0.5) / 2.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 1.0])


class TestNonlinearityGrads:
    def test_exp(self):
        check_grad(lambda a: a.exp(), (3, 3))

    def test_log(self):
        check_grad(lambda a: (a * a + 1.0).log(), (3, 3))

    def test_tanh(self):
        check_grad(lambda a: a.tanh(), (3, 3))

    def test_sigmoid(self):
        check_grad(lambda a: a.sigmoid(), (3, 3))

    def test_relu(self):
        # avoid kink at 0 by shifting
        check_grad(lambda a: (a + 5.0).relu() + (a - 5.0).relu(), (3, 3))

    def test_sqrt(self):
        check_grad(lambda a: (a * a + 1.0).sqrt(), (2, 2))


class TestShapeGrads:
    def test_sum_all(self):
        check_grad(lambda a: a.sum() * Tensor(np.ones(())), (3, 4))

    def test_sum_axis(self):
        check_grad(lambda a: a.sum(axis=0), (3, 4))
        check_grad(lambda a: a.sum(axis=1, keepdims=True), (3, 4))
        check_grad(lambda a: a.sum(axis=(0, 2)), (2, 3, 4))

    def test_mean(self):
        check_grad(lambda a: a.mean(axis=-1), (3, 4))
        check_grad(lambda a: a.mean(), (5,))

    def test_reshape(self):
        check_grad(lambda a: a.reshape(6, 2) @ Tensor(np.ones((2, 3))), (3, 4))

    def test_transpose(self):
        check_grad(lambda a: a.T @ Tensor(np.ones((3, 2))), (3, 4))
        check_grad(lambda a: a.transpose(1, 0, 2).sum(axis=0), (2, 3, 4))

    def test_getitem(self):
        check_grad(lambda a: a[1:, :2] * 3.0, (3, 4))

    def test_concat(self):
        check_grad(lambda a, b: Tensor.concat([a, b], axis=1), (2, 3), (2, 2))

    def test_masked_fill(self):
        mask = np.array([[True, False], [False, True]])
        check_grad(lambda a: a.masked_fill(mask, -9.0), (2, 2))


class TestEmbedding:
    def test_gather_and_scatter(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        ids = np.array([[0, 2], [2, 3]])
        out = Tensor.embedding(table, ids)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        # row 2 gathered twice -> grad 2, rows 0/3 once, row 1 never
        np.testing.assert_allclose(table.grad[:, 0], [1, 0, 2, 1])

    def test_rejects_float_ids(self):
        table = Tensor(np.ones((4, 3)), requires_grad=True)
        with pytest.raises(TypeError):
            Tensor.embedding(table, np.array([0.5]))


class TestEngine:
    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        out = a * b  # 6 x^2 -> d/dx = 12x = 18
        out.backward()
        np.testing.assert_allclose(x.grad, [18.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()  # iterative DFS must not overflow
        np.testing.assert_allclose(x.grad, np.ones(4))

    def test_no_grad_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_item_and_props(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert Tensor(3.5).item() == 3.5
        assert "shape" in repr(t)

    def test_explicit_seed_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 4.0
        y.backward(np.full((2, 2), 0.5))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 2.0))


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_composite_gradcheck_property(m, k, n, seed):
    """Random composite expression: matmul + tanh + mean."""
    rng = np.random.default_rng(seed)
    a_data = rng.standard_normal((m, k))
    b_data = rng.standard_normal((k, n))
    a = Tensor(a_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    ((a @ b).tanh().mean()).backward()

    def f_a(x):
        return np.tanh(x @ b_data).mean()

    num = numerical_grad(f_a, a_data.copy())
    np.testing.assert_allclose(a.grad, num, atol=1e-5)
