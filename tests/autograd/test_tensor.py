"""Tests for the Tensor class: graph mechanics, arithmetic, matmul, mean."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad

OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
}


class TestConstruction:
    def test_wraps_lists_as_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)

    def test_copy_semantics_from_tensor(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        b.data[0] = 99.0
        # Construction from a tensor re-wraps the same buffer contents.
        assert b.data[0] == 99.0

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_scalar(self):
        assert Tensor([[3.5]]).item() == 3.5

    def test_item_nonscalar_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (1, 1, 1)])
    def test_item_of_any_one_element_shape(self, shape):
        assert Tensor(np.full(shape, -2.25)).item() == -2.25

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.bool_, np.float32])
    def test_casts_to_float64(self, dtype):
        t = Tensor(np.ones((2, 3), dtype=dtype))
        assert t.data.dtype == np.float64
        assert np.array_equal(t.data, np.ones((2, 3)))

    def test_python_scalar_is_zero_dimensional(self):
        t = Tensor(3.0)
        assert t.shape == () and t.ndim == 0

    def test_ndim_follows_shape(self):
        assert Tensor(np.zeros((2, 3, 4))).ndim == 3

    def test_numpy_returns_a_copy(self):
        t = Tensor([1.0, 2.0])
        out = t.numpy()
        out[0] = 50.0
        assert t.data[0] == 1.0

    def test_grad_starts_empty(self):
        assert Tensor([1.0], requires_grad=True).grad is None

    def test_requires_grad_is_dropped_inside_no_grad(self):
        with no_grad():
            assert not Tensor([1.0], requires_grad=True).requires_grad


class TestBackwardMechanics:
    def test_simple_chain(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x * x   # d/dx x³ = 3x²
        y.backward()
        assert np.isclose(x.grad, 12.0)

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * 2 + x * 5
        y.backward()
        assert np.isclose(x.grad, 7.0)

    def test_diamond_graph(self):
        x = Tensor(2.0, requires_grad=True)
        a = x * 3
        b = x + 1
        y = a * b   # y = 3x(x+1) = 3x² + 3x, dy/dx = 6x + 3 = 15
        y.backward()
        assert np.isclose(x.grad, 15.0)

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_seed_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(np.array([1.0, 10.0]))
        assert np.allclose(x.grad, [3.0, 30.0])

    def test_backward_on_nongrad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_zero_grad(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_seed_broadcasts_to_output_shape(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        (x * 4.0).backward(0.5)
        assert np.allclose(x.grad, np.full((2, 3), 2.0))

    def test_seed_may_be_a_tensor(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(Tensor([2.0, -1.0]))
        assert np.allclose(x.grad, [6.0, -3.0])

    def test_seed_of_incompatible_shape_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones(3))

    def test_leaf_grad_does_not_alias_the_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        seed = np.array([1.0, 1.0])
        (x + 0.0).backward(seed)
        seed[0] = 100.0
        assert np.allclose(x.grad, [1.0, 1.0])

    def test_shared_node_is_backpropagated_once(self):
        # z = y + y with y = 2x: dz/dx = 4.  Running y's backward once per
        # consumer (instead of once with the summed gradient) would give 8.
        x = Tensor(1.0, requires_grad=True)
        y = x * 2
        (y + y).backward()
        assert np.isclose(y.grad, 2.0)
        assert np.isclose(x.grad, 4.0)

    def test_node_waits_for_all_consumers(self):
        # a feeds out directly and through b; a's backward must run after b's
        # has added its share: d/dx (2x + 3·2x) = 8.
        x = Tensor(1.0, requires_grad=True)
        a = x * 2
        b = a * 3
        (a + b).backward()
        assert np.isclose(a.grad, 4.0)
        assert np.isclose(x.grad, 8.0)

    def test_backward_from_intermediate_node(self):
        x = Tensor(2.0, requires_grad=True)
        mid = x * 5
        out = mid * mid
        mid.backward()
        assert np.isclose(x.grad, 5.0)
        assert out.grad is None

    def test_off_path_nodes_get_no_grad(self):
        x = Tensor(2.0, requires_grad=True)
        unused = x * 7
        (x * 3).backward()
        assert unused.grad is None
        assert np.isclose(x.grad, 3.0)

    def test_deep_chain_does_not_overflow(self):
        # The topological sort is iterative; 5000-deep chains must work.
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()
        assert x.grad is not None


class TestNoGrad:
    def test_no_grad_disables_taping(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            assert not (x * 2).requires_grad
        assert (x * 2).requires_grad

    def test_nested_no_grad_restores_the_outer_state(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (x * 2).requires_grad
        assert (x * 2).requires_grad

    def test_values_are_the_same_without_the_tape(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        taped = ((x @ w) * x.mean() - w.mean()).data
        with no_grad():
            untaped = ((x @ w) * x.mean() - w.mean()).data
        np.testing.assert_array_equal(taped, untaped)

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert (Tensor(1.0, requires_grad=True) * 2).requires_grad


class TestArithmetic:
    def test_add_sub_mul_values(self):
        a, b = Tensor([4.0, 9.0]), Tensor([2.0, 3.0])
        assert np.allclose((a + b).data, [6, 12])
        assert np.allclose((a - b).data, [2, 6])
        assert np.allclose((a * b).data, [8, 27])

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_non_tensor_operands_are_wrapped(self, op):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        apply = OPS[op]
        for other in (2.0, [1.0, -1.0], np.array([[0.5], [2.0]])):
            out = apply(a, other)
            assert isinstance(out, Tensor) and out.requires_grad
            np.testing.assert_array_equal(out.data, apply(a.data, np.asarray(other)))

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_broadcast_values_match_numpy(self, op):
        rng = np.random.default_rng(5)
        apply = OPS[op]
        for left, right in (((2, 3, 4), (4,)), ((3, 1), (1, 5)), ((), (2, 2))):
            a, b = rng.normal(size=left), rng.normal(size=right)
            np.testing.assert_array_equal(apply(Tensor(a), Tensor(b)).data, apply(a, b))


class TestMatmul:
    def test_matrix_matrix(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.allclose((a @ b).data, [[17.0], [39.0]])

    def test_batched(self):
        a = Tensor(np.ones((4, 2, 3)))
        b = Tensor(np.ones((4, 3, 5)))
        assert (a @ b).shape == (4, 2, 5)

    def test_broadcast_batch(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((4, 3, 5)))
        assert (a @ b).shape == (4, 2, 5)

    def test_method_equals_operator(self):
        rng = np.random.default_rng(0)
        a, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2)))
        np.testing.assert_array_equal(a.matmul(b).data, (a @ b).data)

    def test_accepts_ndarray_operand(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a @ np.full((3, 1), 2.0)
        assert np.allclose(out.data, 6.0)
        out.backward(np.ones((2, 1)))
        assert np.allclose(a.grad, 2.0)

    def test_inner_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 5)))

    @pytest.mark.parametrize("a_shape,b_shape", [((), ()), ((3,), (3, 2)), ((2, 3), (3,))])
    def test_matmul_rejects_fewer_than_two_dims(self, a_shape, b_shape):
        with pytest.raises(ValueError):
            Tensor(np.ones(a_shape)) @ Tensor(np.ones(b_shape))


class TestReductions:
    def test_mean_value(self):
        assert Tensor([[1.0, 2.0], [3.0, 6.0]]).mean().item() == 3.0

    def test_mean_gradient_divides(self):
        x = Tensor(np.ones((4,)), requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, [0.25] * 4)

    def test_mean_is_zero_dimensional(self):
        out = Tensor(np.ones((2, 3, 4))).mean()
        assert out.shape == () and out.item() == 1.0

    def test_mean_gradient_scales_with_the_seed(self):
        x = Tensor(np.zeros((2, 5)), requires_grad=True)
        x.mean().backward(3.0)
        assert np.allclose(x.grad, np.full((2, 5), 0.3))
