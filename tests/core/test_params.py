"""PNNParams snapshots: immutability, decoupling, versioned serialization."""

import numpy as np
import pytest

from repro.core import (
    PNN_PARAMS_VERSION,
    PNNParams,
    PrintedNeuralNetwork,
    load_params,
    save_params,
    snapshot_params,
    surrogate_fingerprint,
)
from repro.core.params import LayerParams, SurrogateParams


def make_pnn(surrogates, seed=0, sizes=(4, 3, 3), per_neuron=False):
    return PrintedNeuralNetwork(
        list(sizes), surrogates, per_neuron_activation=per_neuron,
        rng=np.random.default_rng(seed),
    )


class TestSnapshot:
    def test_structure(self, analytic_surrogates):
        params = snapshot_params(make_pnn(analytic_surrogates, per_neuron=True))
        assert isinstance(params, PNNParams)
        assert params.layer_sizes == (4, 3, 3)
        assert params.per_neuron_activation
        assert len(params.layers) == 2
        assert params.layers[0].theta.shape == (6, 3)
        assert params.layers[0].act_omega.shape == (3, 7)   # per-neuron: one per output
        assert params.layers[0].neg_omega.shape == (1, 7)
        assert params.act_surrogate.backend == "analytic"

    def test_mlp_surrogate_snapshot(self, tiny_bundle):
        params = snapshot_params(make_pnn(tiny_bundle))
        assert params.act_surrogate.backend == "mlp"
        assert len(params.act_surrogate.weights) == len(params.act_surrogate.biases)
        assert params.act_surrogate.weights[0].shape[0] == 10   # ratio-extended ω
        assert params.act_surrogate.weights[-1].shape[1] == 4   # η1..η4

    def test_arrays_are_frozen(self, analytic_surrogates):
        params = snapshot_params(make_pnn(analytic_surrogates))
        with pytest.raises(ValueError):
            params.layers[0].theta[0, 0] = 1.0

    def test_decoupled_from_later_training(self, analytic_surrogates):
        pnn = make_pnn(analytic_surrogates, seed=3)
        params = snapshot_params(pnn)
        theta_before = params.layers[0].theta.copy()
        for layer in pnn.layers:
            layer.theta += 0.1
            layer.w_act += 0.1
            layer.w_neg += 0.1
        np.testing.assert_array_equal(params.layers[0].theta, theta_before)

    def test_snapshot_of_a_snapshot_is_itself(self, analytic_surrogates):
        # The one snapshot entry point: every caller that accepts a live
        # network or a design passes either straight to snapshot_params.
        params = snapshot_params(make_pnn(analytic_surrogates))
        assert snapshot_params(params) is params

    def test_content_digest_tracks_content(self, analytic_surrogates):
        a = snapshot_params(make_pnn(analytic_surrogates, seed=1))
        b = snapshot_params(make_pnn(analytic_surrogates, seed=1))
        c = snapshot_params(make_pnn(analytic_surrogates, seed=2))
        assert a.content_digest() == b.content_digest()
        assert a.content_digest() != c.content_digest()

    def test_version_refusal(self, analytic_surrogates):
        params = snapshot_params(make_pnn(analytic_surrogates))
        with pytest.raises(ValueError, match="version"):
            PNNParams(
                layer_sizes=params.layer_sizes,
                per_neuron_activation=params.per_neuron_activation,
                activation_on_output=params.activation_on_output,
                layers=params.layers,
                act_surrogate=params.act_surrogate,
                neg_surrogate=params.neg_surrogate,
                version=PNN_PARAMS_VERSION + 1,
            )


class TestValidation:
    def test_layer_shape_mismatch(self, analytic_surrogates):
        params = snapshot_params(make_pnn(analytic_surrogates))
        with pytest.raises(ValueError, match="does not match"):
            PNNParams(
                layer_sizes=(5, 3, 3),          # wrong input width
                per_neuron_activation=params.per_neuron_activation,
                activation_on_output=params.activation_on_output,
                layers=params.layers,
                act_surrogate=params.act_surrogate,
                neg_surrogate=params.neg_surrogate,
            )

    def test_surrogate_backend_requirements(self):
        with pytest.raises(ValueError, match="scale and shift"):
            SurrogateParams(kind="ptanh", backend="analytic")
        with pytest.raises(ValueError, match="weights/biases"):
            SurrogateParams(kind="ptanh", backend="mlp")

    def test_layer_omega_shape(self):
        with pytest.raises(ValueError, match="act_omega"):
            LayerParams(
                theta=np.zeros((4, 2)),
                act_omega=np.zeros((1, 6)),
                neg_omega=np.zeros((1, 7)),
                apply_activation=True,
            )


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("fixture_name", ["analytic_surrogates", "tiny_bundle"])
    def test_exact_roundtrip(self, request, tmp_path, fixture_name):
        surrogates = request.getfixturevalue(fixture_name)
        pnn = make_pnn(surrogates, seed=5, per_neuron=True)
        params = snapshot_params(pnn)
        path = save_params(params, tmp_path / "design.npz", surrogates=surrogates)

        loaded = load_params(path, surrogates, strict_fingerprint=True)
        assert loaded.content_digest() == params.content_digest()
        x = np.random.default_rng(8).uniform(0.0, 1.0, size=(7, 4))
        np.testing.assert_array_equal(loaded.predict(x), params.predict(x))

    def test_fingerprint_strictness(self, tmp_path, analytic_surrogates, tiny_bundle):
        params = snapshot_params(make_pnn(analytic_surrogates))
        path = save_params(params, tmp_path / "d.npz", surrogates=analytic_surrogates)
        with pytest.raises(ValueError, match="mismatch"):
            load_params(path, tiny_bundle, strict_fingerprint=True)
        # Non-strict load ignores provenance (snapshot is self-contained).
        loaded = load_params(path, tiny_bundle, strict_fingerprint=False)
        assert loaded.content_digest() == params.content_digest()
        # A snapshot saved without surrogates has no fingerprint to check.
        unsigned = save_params(params, tmp_path / "unsigned.npz")
        with pytest.raises(ValueError, match="without a surrogate fingerprint"):
            load_params(unsigned, analytic_surrogates, strict_fingerprint=True)

    def test_refuses_legacy_module_state(self, tmp_path, analytic_surrogates, pnn_state):
        # Archives written before the snapshots held the raw module state.
        pnn = make_pnn(analytic_surrogates)
        path = tmp_path / "legacy.npz"
        np.savez(path, layer_sizes=np.asarray(pnn.layer_sizes),
                 **{f"param.{name}": value for name, value in pnn_state(pnn).items()})
        with pytest.raises(ValueError, match="not a PNNParams snapshot") as info:
            load_params(path, analytic_surrogates)
        assert str(path) in str(info.value)

    def test_fingerprint_recorded(self, tmp_path, analytic_surrogates):
        params = snapshot_params(make_pnn(analytic_surrogates))
        path = save_params(params, tmp_path / "d.npz", surrogates=analytic_surrogates)
        with np.load(path) as archive:
            assert "params_version" in archive.files
            recorded = bytes(archive["surrogate_fingerprint"]).decode()
        assert recorded == surrogate_fingerprint(analytic_surrogates)
