"""The snapshot kernel path against recordings of the taped Module path.

A frozen :class:`~repro.core.params.PNNParams` snapshot evaluated through
:mod:`repro.core.kernels` must produce the output voltages the taped
autograd network produced — across variation levels, activation sharing
modes and both surrogate backends — and Monte-Carlo evaluation must be
invariant to the compute chunk size ``batch_mc``.

The taped path is gone; its outputs are kept in
``golden/taped_reference.json`` as ``float.hex`` strings.  Recipe, run on
the commit before the taped path was deleted:

- ``forward/{analytic|mlp}/{shared|per_neuron}/{ε}``: ``make_pnn`` below
  (the ``analytic_surrogates`` / ``tiny_bundle`` fixture), inputs
  ``default_rng(42).uniform(0, 1, (11, 4))``, then
  ``PrintedNeuralNetwork.forward(x, variation=VariationModel(ε, seed=5),
  n_mc=4 if ε > 0 else 1)`` under ``no_grad``;
- ``mc/sample_block`` and ``mc/nominal``: ``evaluate_mc_autograd`` of the
  ``trained_blob_pnn`` fixture on the blob validation split, at ε = 0.1,
  ``n_test = 2·SAMPLE_BLOCK + 3``, ``seed = 4``,
  ``batch_mc = SAMPLE_BLOCK``, and at ε = 0.

The tolerances are the ones the live comparison used: 1e-9 on voltages,
exact equality on accuracies.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    SAMPLE_BLOCK,
    PrintedNeuralNetwork,
    TrainConfig,
    evaluate_mc,
    kernels,
    snapshot_params,
    train_pnn,
)
from repro.core.variation import VariationModel

#: The taped path's recorded outputs (see the module docstring).
TAPED = json.loads((Path(__file__).parent / "golden" / "taped_reference.json").read_text())

#: The property-test tolerance of the live comparison this replaces.
TOLERANCE = 1e-9


def recorded(entry):
    return np.array([float.fromhex(h) for h in entry["hex"]]).reshape(entry["shape"])


def make_pnn(surrogates, per_neuron, sizes=(4, 3, 3), seed=7):
    pnn = PrintedNeuralNetwork(
        list(sizes), surrogates, per_neuron_activation=per_neuron,
        rng=np.random.default_rng(seed),
    )
    # Nudge parameters off the init point so the test is non-degenerate.
    nudge = np.random.default_rng(1)
    for layer in pnn.layers:
        layer.theta, layer.w_act, layer.w_neg = (
            array + 0.05 * nudge.standard_normal(array.shape)
            for array in (layer.theta, layer.w_act, layer.w_neg)
        )
    return pnn


class TestForwardEquivalence:
    """Kernel ``network_forward`` vs the recorded Module forward, same ε stream."""

    @pytest.mark.parametrize("per_neuron", [False, True])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.10])
    def test_analytic_surrogate(self, analytic_surrogates, per_neuron, epsilon):
        self._check(analytic_surrogates, "analytic", per_neuron, epsilon)

    @pytest.mark.parametrize("per_neuron", [False, True])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.10])
    def test_nn_surrogate(self, tiny_bundle, per_neuron, epsilon):
        self._check(tiny_bundle, "mlp", per_neuron, epsilon)

    @staticmethod
    def _check(surrogates, name, per_neuron, epsilon):
        pnn = make_pnn(surrogates, per_neuron)
        params = snapshot_params(pnn)
        x = np.random.default_rng(42).uniform(0.0, 1.0, size=(11, 4))
        n_mc = 4 if epsilon > 0 else 1

        kernel_out = kernels.network_forward(
            params, x, variation=VariationModel(epsilon, seed=5), n_mc=n_mc
        )
        sharing = "per_neuron" if per_neuron else "shared"
        module_out = recorded(TAPED[f"forward/{name}/{sharing}/{epsilon}"])

        assert kernel_out.shape == module_out.shape == (n_mc, 11, 3)
        assert np.abs(kernel_out - module_out).max() <= TOLERANCE

    def test_predict_delegates_to_kernels(self, analytic_surrogates):
        pnn = make_pnn(analytic_surrogates, per_neuron=False)
        x = np.random.default_rng(3).uniform(0.0, 1.0, size=(9, 4))
        np.testing.assert_array_equal(
            pnn.predict(x, variation=VariationModel(0.1, seed=2), n_mc=3),
            snapshot_params(pnn).predict(x, variation=VariationModel(0.1, seed=2), n_mc=3),
        )


@pytest.fixture(scope="module")
def trained_blob_pnn(blob_data):
    """A briefly-trained network so MC accuracies actually vary with ε."""
    from repro.surrogate import AnalyticSurrogate

    x_train, y_train, x_val, y_val = blob_data

    pnn = PrintedNeuralNetwork(
        [2, 3, 2],
        (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight")),
        rng=np.random.default_rng(13),
    )
    config = TrainConfig(max_epochs=60, patience=60, epsilon=0.0, seed=13)
    train_pnn(pnn, x_train, y_train, x_val, y_val, config)
    return pnn


class TestChunkInvariance:
    """``evaluate_mc`` must be exactly invariant to ``batch_mc``."""

    def test_batch_mc_does_not_change_results(self, trained_blob_pnn, blob_data):
        _, _, x_val, y_val = blob_data
        params = snapshot_params(trained_blob_pnn)
        reference = evaluate_mc(
            params, x_val, y_val, epsilon=0.1, n_test=23, seed=11, batch_mc=20,
        )
        # Non-degenerate: variation must actually move some accuracies.
        assert len(set(reference.accuracies.tolist())) > 1
        for batch_mc in (1, 7, 23, 64):
            other = evaluate_mc(
                params, x_val, y_val, epsilon=0.1, n_test=23, seed=11,
                batch_mc=batch_mc,
            )
            np.testing.assert_array_equal(other.accuracies, reference.accuracies)

    def test_matches_taped_recording_at_sample_block(
        self, trained_blob_pnn, blob_data
    ):
        # At batch_mc == SAMPLE_BLOCK both paths consumed the variation
        # stream in identical blocks, so agreement is bit-for-bit.
        _, _, x_val, y_val = blob_data
        kernel = evaluate_mc(
            trained_blob_pnn, x_val, y_val, epsilon=0.1,
            n_test=2 * SAMPLE_BLOCK + 3, seed=4, batch_mc=SAMPLE_BLOCK,
        )
        taped = [float.fromhex(h) for h in TAPED["mc/sample_block"]]
        np.testing.assert_array_equal(kernel.accuracies, taped)

    def test_nominal_matches_taped_recording(self, trained_blob_pnn, blob_data):
        _, _, x_val, y_val = blob_data
        kernel = evaluate_mc(trained_blob_pnn, x_val, y_val, epsilon=0.0)
        taped = [float.fromhex(h) for h in TAPED["mc/nominal"]]
        np.testing.assert_array_equal(kernel.accuracies, taped)
