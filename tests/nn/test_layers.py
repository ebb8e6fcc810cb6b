"""Linear, the tanh activation, the sequential container and the initializer."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.nn import init


class TestLinear:
    def test_shapes(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_matches_manual_computation(self):
        layer = nn.Linear(2, 2, rng=np.random.default_rng(1))
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_gradients_match_finite_differences(self, numeric_grad):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(4, 3))
        target = np.random.default_rng(4).normal(size=(4, 2))
        x_t = Tensor(x, requires_grad=True)
        F.mse_loss(layer(x_t), target).backward()
        numeric = numeric_grad(lambda v: F.mse_loss(layer(Tensor(v)), target).item(), x)
        np.testing.assert_allclose(x_t.grad, numeric, rtol=1e-5, atol=1e-8)
        for param in (layer.weight, layer.bias):
            analytic = param.grad.copy()
            saved = param.data

            def loss(v, param=param):
                param.data = v
                return F.mse_loss(layer(Tensor(x)), target).item()

            numeric = numeric_grad(loss, saved)
            param.data = saved
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)

    @pytest.mark.parametrize("sizes", [(3, 0), (3, -2), (-1, 2)])
    def test_rejects_any_nonpositive_size(self, sizes):
        with pytest.raises(ValueError):
            nn.Linear(*sizes)

    def test_weight_is_in_by_out_and_bias_starts_at_zero(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        assert layer.weight.shape == (4, 3)
        np.testing.assert_array_equal(layer.bias.data, np.zeros(3))

    def test_parameters_are_weight_then_bias(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        assert [name for name, _ in layer.named_parameters()] == ["weight", "bias"]

    def test_weights_follow_the_generator(self):
        a = nn.Linear(5, 4, rng=np.random.default_rng(7))
        b = nn.Linear(5, 4, rng=np.random.default_rng(7))
        c = nn.Linear(5, 4, rng=np.random.default_rng(8))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        assert not np.array_equal(a.weight.data, c.weight.data)

    def test_bias_is_added_to_every_row(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        layer.bias.data = np.array([1.5, -0.5])
        out = layer(Tensor(np.zeros((4, 3))))
        np.testing.assert_array_equal(out.data, np.tile([1.5, -0.5], (4, 1)))

    def test_repr_names_the_sizes(self):
        assert repr(nn.Linear(4, 3)) == "Linear(in_features=4, out_features=3)"

    def test_batched_leading_dims(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((7, 5, 4))))
        assert out.shape == (7, 5, 3)


class TestActivationsAndContainers:
    def test_sequential_applies_in_order(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(0)), nn.Tanh())
        out = model(Tensor(np.ones((1, 2))))
        assert np.all(np.abs(out.data) <= 1.0)

    def test_sequential_iter(self):
        model = nn.Sequential(nn.Linear(2, 3, rng=np.random.default_rng(0)), nn.Tanh())
        assert [type(m).__name__ for m in model] == ["Linear", "Tanh"]

    def test_sequential_registers_parameters(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(0)), nn.Tanh())
        assert [name for name, _ in model.named_parameters()] == ["layer0.weight", "layer0.bias"]

    def test_tanh_values(self):
        values = np.linspace(-2, 2, 9)
        assert np.allclose(nn.Tanh()(Tensor(values)).data, np.tanh(values))

    def test_tanh_has_no_parameters(self):
        assert list(nn.Tanh().parameters()) == []

    def test_tanh_module_gradient(self):
        x = Tensor(np.linspace(-2, 2, 5), requires_grad=True)
        nn.Tanh()(x).backward(np.ones(5))
        np.testing.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2)

    def test_sequential_forward_equals_the_chain(self):
        rng = np.random.default_rng(0)
        first, second = nn.Linear(3, 4, rng=rng), nn.Linear(4, 2, rng=rng)
        model = nn.Sequential(first, nn.Tanh(), second)
        x = Tensor(rng.normal(size=(5, 3)))
        np.testing.assert_array_equal(model(x).data, second(F.tanh(first(x))).data)

    def test_empty_sequential_is_the_identity(self):
        x = Tensor(np.arange(3.0))
        assert nn.Sequential()(x) is x

    def test_nested_sequential_parameter_names(self):
        inner = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(0)))
        model = nn.Sequential(inner, nn.Tanh())
        assert [name for name, _ in model.named_parameters()] == [
            "layer0.layer0.weight", "layer0.layer0.bias"
        ]


class TestInit:
    def test_xavier_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((100, 50), rng)
        bound = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.all(np.abs(w) <= bound)

    @pytest.mark.parametrize("shape", [(10, 9), (9, 9), (6, 5), (5, 4), (1, 1)])
    def test_xavier_uniform_bound_per_layer_shape(self, shape):
        w = init.xavier_uniform(shape, np.random.default_rng(3))
        assert w.shape == shape
        assert np.all(np.abs(w) <= np.sqrt(6.0 / sum(shape)))

    def test_xavier_uniform_variance(self):
        # U(-b, b) with b = sqrt(6 / (fan_in + fan_out)) has variance 2 / (fan_in + fan_out).
        w = init.xavier_uniform((400, 200), np.random.default_rng(0))
        assert np.isclose(w.var(), 2.0 / 600, rtol=0.02)
        assert abs(w.mean()) < 1e-3

    def test_xavier_uniform_draws_from_the_given_generator(self):
        rng = np.random.default_rng(11)
        first = init.xavier_uniform((4, 3), rng)
        second = init.xavier_uniform((4, 3), rng)
        np.testing.assert_array_equal(first, init.xavier_uniform((4, 3), np.random.default_rng(11)))
        assert not np.array_equal(first, second)
