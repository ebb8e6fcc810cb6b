"""Saving and loading trained pNN designs."""

import numpy as np
import pytest

from repro.core import ConductanceConfig, PrintedNeuralNetwork
from repro.core.serialization import load_pnn, save_pnn
from repro.surrogate import AnalyticSurrogate


@pytest.fixture
def surrogates():
    return (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


@pytest.fixture
def pnn(surrogates):
    return PrintedNeuralNetwork(
        [4, 3, 2], surrogates, rng=np.random.default_rng(0)
    )


class TestRoundTrip:
    def test_outputs_identical_after_reload(self, pnn, surrogates, tmp_path):
        path = save_pnn(pnn, tmp_path / "design.npz")
        restored = load_pnn(path, surrogates)
        x = np.random.default_rng(1).uniform(size=(6, 4))
        assert np.allclose(pnn.snapshot().forward(x), restored.snapshot().forward(x))

    def test_structure_preserved(self, surrogates, tmp_path):
        original = PrintedNeuralNetwork(
            [3, 5, 2], surrogates,
            conductance=ConductanceConfig(g_min=0.02, g_max=5.0),
            per_neuron_activation=True,
            activation_on_output=False,
            rng=np.random.default_rng(2),
        )
        path = save_pnn(original, tmp_path / "design.npz")
        restored = load_pnn(path, surrogates)
        assert restored.layer_sizes == [3, 5, 2]
        assert restored.layers[0].activation.n_circuits == 5
        assert restored.layers[-1].apply_activation is False
        assert restored.layers[0].conductance.g_min == 0.02

    def test_fingerprint_guard(self, pnn, surrogates, tmp_path):
        path = save_pnn(pnn, tmp_path / "design.npz", surrogates=surrogates)
        # Same surrogates: loads.
        load_pnn(path, surrogates, strict_fingerprint=True)
        # Different calibration: rejected.
        other = (
            AnalyticSurrogate("ptanh"),
            AnalyticSurrogate("negweight"),
        )
        other[0].scale = other[0].scale * 2.0
        with pytest.raises(ValueError, match="surrogate mismatch"):
            load_pnn(path, other, strict_fingerprint=True)

    def test_fingerprint_missing_rejected_in_strict_mode(self, pnn, surrogates, tmp_path):
        path = save_pnn(pnn, tmp_path / "design.npz")   # no fingerprint
        with pytest.raises(ValueError, match="without a surrogate fingerprint"):
            load_pnn(path, surrogates, strict_fingerprint=True)

    def test_nn_bundle_fingerprint(self, tiny_bundle, tmp_path):
        pnn = PrintedNeuralNetwork([2, 3, 2], tiny_bundle, rng=np.random.default_rng(3))
        path = save_pnn(pnn, tmp_path / "design.npz", surrogates=tiny_bundle)
        restored = load_pnn(path, tiny_bundle, strict_fingerprint=True)
        x = np.random.default_rng(4).uniform(size=(3, 2))
        assert np.allclose(pnn.snapshot().forward(x), restored.snapshot().forward(x))
