"""Module system: registration, traversal, state dicts, the call protocol."""

import numpy as np
import pytest

from repro import nn


class TwoLayer(nn.Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.fc1 = nn.Linear(3, 4, rng=rng)
        self.fc2 = nn.Linear(4, 2, rng=rng)
        self.scale = nn.Parameter(np.ones(1))

    def forward(self, x):
        from repro.autograd import functional as F

        return self.fc2(F.tanh(self.fc1(x))) * self.scale


class TestRegistration:
    def test_parameters_discovered_recursively(self):
        model = TwoLayer()
        names = dict(model.named_parameters())
        assert set(names) == {
            "scale", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"
        }

    def test_own_parameters_come_before_submodules(self):
        assert [name for name, _ in TwoLayer().named_parameters()] == [
            "scale", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"
        ]

    def test_parameters_matches_named_parameters(self):
        model = TwoLayer()
        assert list(model.parameters()) == [p for _, p in model.named_parameters()]

    def test_reassigning_an_attribute_replaces_the_parameter(self):
        model = TwoLayer()
        replacement = nn.Parameter(np.full(1, 3.0))
        model.scale = replacement
        assert dict(model.named_parameters())["scale"] is replacement
        assert sum(1 for _ in model.parameters()) == 5

    def test_plain_tensors_and_arrays_are_not_registered(self):
        from repro.autograd import Tensor

        model = nn.Module()
        model.buffer = np.zeros(3)
        model.constant = Tensor(np.zeros(3), requires_grad=True)
        model.weight = nn.Parameter(np.zeros(2))
        assert [name for name, _ in model.named_parameters()] == ["weight"]

    def test_parameter_is_a_leaf_tensor(self):
        from repro.autograd import Tensor

        p = nn.Parameter([1, 2])
        assert isinstance(p, Tensor)
        assert p.data.dtype == np.float64
        assert p.grad is None and p._parents == ()

    def test_parameters_always_require_grad(self):
        from repro.autograd import no_grad

        with no_grad():
            p = nn.Parameter(np.zeros(3))
        assert p.requires_grad


class TestState:
    def test_state_dict_roundtrip(self):
        model_a, model_b = TwoLayer(), TwoLayer()
        model_b.fc1.weight.data += 1.0
        model_b.load_state_dict(model_a.state_dict())
        assert np.allclose(model_b.fc1.weight.data, model_a.fc1.weight.data)

    def test_state_dict_is_a_copy(self):
        model = TwoLayer()
        state = model.state_dict()
        state["fc1.weight"] += 100.0
        assert not np.allclose(model.fc1.weight.data, state["fc1.weight"])

    def test_load_rejects_missing_keys(self):
        model = TwoLayer()
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_state_dict_keys_follow_named_parameters(self):
        model = TwoLayer()
        assert list(model.state_dict()) == [name for name, _ in model.named_parameters()]

    def test_load_rejects_unexpected_keys(self):
        model = TwoLayer()
        state = model.state_dict()
        state["fc3.weight"] = np.zeros((2, 2))
        with pytest.raises(KeyError, match="fc3.weight"):
            model.load_state_dict(state)

    def test_load_copies_the_values(self):
        model = TwoLayer()
        state = model.state_dict()
        model.load_state_dict(state)
        state["scale"][0] = 42.0
        assert model.scale.data[0] == 1.0

    def test_load_casts_to_float64(self):
        model = TwoLayer()
        state = model.state_dict()
        state["scale"] = np.array([2], dtype=np.int64)
        model.load_state_dict(state)
        assert model.scale.data.dtype == np.float64 and model.scale.data[0] == 2.0

    def test_load_rejects_wrong_shape(self):
        model = TwoLayer()
        state = model.state_dict()
        state["scale"] = np.zeros(7)
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestCallProtocol:
    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(1)

    def test_call_passes_positional_and_keyword_arguments(self):
        class Echo(nn.Module):
            def forward(self, *args, **kwargs):
                return args, kwargs

        assert Echo()(1, 2, scale=3) == ((1, 2), {"scale": 3})
