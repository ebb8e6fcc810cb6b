"""Saving and loading trained pNN designs.

The design-only archive (``save_design``/``load_design``) is what the
result cache stores; the self-contained snapshot
(``save_params``/``load_params``) is what ``cli export`` reads.
"""

import numpy as np
import pytest

from repro.core import ConductanceConfig, PrintedNeuralNetwork, snapshot_params
from repro.core.serialization import load_design, load_params, save_design, save_params
from repro.surrogate import AnalyticSurrogate


@pytest.fixture
def surrogates():
    return (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


@pytest.fixture
def params(surrogates):
    return snapshot_params(PrintedNeuralNetwork(
        [4, 3, 2], surrogates, rng=np.random.default_rng(0)
    ))


class TestRoundTrip:
    def test_outputs_identical_after_reload(self, params, surrogates, tmp_path):
        path = save_design(params, tmp_path / "design.npz", surrogates)
        restored = load_design(path, surrogates)
        x = np.random.default_rng(1).uniform(size=(6, 4))
        np.testing.assert_array_equal(params.forward(x), restored.forward(x))

    def test_structure_preserved(self, surrogates, tmp_path):
        original = snapshot_params(PrintedNeuralNetwork(
            [3, 5, 2], surrogates,
            conductance=ConductanceConfig(g_min=0.02, g_max=5.0),
            per_neuron_activation=True,
            activation_on_output=False,
            rng=np.random.default_rng(2),
        ))
        path = save_design(original, tmp_path / "design.npz", surrogates)
        restored = load_design(path, surrogates)
        assert restored.layer_sizes == (3, 5, 2)
        assert restored.per_neuron_activation is True
        assert restored.activation_on_output is False
        assert restored.layers[0].act_omega.shape[0] == 5
        assert restored.layers[-1].apply_activation is False
        # θ is stored after the printable-conductance projection.
        for kept, loaded in zip(original.layers, restored.layers):
            np.testing.assert_array_equal(kept.theta, loaded.theta)

    def test_fingerprint_guard(self, params, surrogates, tmp_path):
        design = save_design(params, tmp_path / "design.npz", surrogates)
        snapshot = save_params(params, tmp_path / "params.npz", surrogates=surrogates)
        # Same surrogates: loads.
        load_design(design, surrogates)
        load_params(snapshot, surrogates, strict_fingerprint=True)
        # Different calibration: rejected by both loaders.
        other = (
            AnalyticSurrogate("ptanh"),
            AnalyticSurrogate("negweight"),
        )
        other[0].scale = other[0].scale * 2.0
        with pytest.raises(ValueError, match="surrogate mismatch"):
            load_design(design, other)
        with pytest.raises(ValueError, match="surrogate mismatch"):
            load_params(snapshot, other, strict_fingerprint=True)

    def test_fingerprint_missing_rejected_in_strict_mode(self, params, surrogates, tmp_path):
        path = save_params(params, tmp_path / "design.npz")   # no fingerprint
        with pytest.raises(ValueError, match="without a surrogate fingerprint"):
            load_params(path, surrogates, strict_fingerprint=True)
        # load_design re-attaches live surrogates, so it always checks.
        with pytest.raises(ValueError, match="without a surrogate fingerprint"):
            load_design(path, surrogates)

    def test_nn_bundle_fingerprint(self, tiny_bundle, tmp_path):
        params = snapshot_params(
            PrintedNeuralNetwork([2, 3, 2], tiny_bundle, rng=np.random.default_rng(3))
        )
        design = save_design(params, tmp_path / "design.npz", tiny_bundle)
        snapshot = save_params(params, tmp_path / "params.npz", surrogates=tiny_bundle)
        x = np.random.default_rng(4).uniform(size=(3, 2))
        # A fingerprinted save_params archive also loads as a design.
        for restored in (load_design(design, tiny_bundle), load_design(snapshot, tiny_bundle)):
            assert restored.content_digest() == params.content_digest()
            np.testing.assert_array_equal(params.forward(x), restored.forward(x))
