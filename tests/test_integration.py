"""End-to-end integration tests across all subsystems.

These mirror the paper's full pipeline at reduced scale: circuit simulation
→ surrogate training → pNN co-training → Monte-Carlo evaluation → export.
"""

import numpy as np
import pytest

from repro.core import (
    PrintedNeuralNetwork,
    TrainConfig,
    VariationModel,
    evaluate_mc,
    train_pnn,
)
from repro.datasets import load_splits
from repro.exporting import design_report, export_netlist_text
from repro.surrogate.design_space import DESIGN_SPACE

# Full-pipeline runs at reduced scale; excluded from the fast tier.
pytestmark = pytest.mark.slow


class TestFullPipelineWithTrainedSurrogate:
    """Uses the session-scoped tiny NN bundle (real sim → fit → train)."""

    def test_pnn_with_nn_surrogate_trains_on_blobs(self, tiny_bundle, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = PrintedNeuralNetwork([2, 3, 2], tiny_bundle, rng=np.random.default_rng(1))
        config = TrainConfig(max_epochs=300, patience=300, seed=1)
        result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        accuracy = evaluate_mc(pnn, x_val, y_val, epsilon=0.0)
        assert accuracy.mean >= 0.85
        assert result.best_val_loss < result.history[0][2]

    def test_variation_aware_beats_nominal_in_robustness(self, tiny_bundle, blob_data):
        """The paper's core claim at miniature scale: variation-aware
        training yields a lower accuracy spread under fabrication noise."""
        x_train, y_train, x_val, y_val = blob_data
        results = {}
        for eps_train in (0.0, 0.15):
            pnn = PrintedNeuralNetwork(
                [2, 3, 2], tiny_bundle, rng=np.random.default_rng(3)
            )
            config = TrainConfig(
                epsilon=eps_train, n_mc_train=8, max_epochs=250, patience=250, seed=3
            )
            train_pnn(pnn, x_train, y_train, x_val, y_val, config)
            results[eps_train] = evaluate_mc(
                pnn, x_val, y_val, epsilon=0.15, n_test=40, seed=9
            )
        # Robustness (std) must improve; mean must not collapse.
        assert results[0.15].std <= results[0.0].std + 0.02
        assert results[0.15].mean >= results[0.0].mean - 0.05

    def test_learned_omega_moves_from_reference(self, tiny_bundle, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = PrintedNeuralNetwork([2, 3, 2], tiny_bundle, rng=np.random.default_rng(4))
        reference = pnn.snapshot().layers[0].act_omega
        config = TrainConfig(max_epochs=150, patience=150, seed=4)
        train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        learned = pnn.snapshot().layers[0].act_omega
        assert not np.allclose(reference, learned)
        assert DESIGN_SPACE.contains(learned[0], atol=1e-6)


class TestDatasetToExportFlow:
    def test_real_dataset_end_to_end(self, analytic_surrogates):
        splits = load_splits("acute_inflammation", seed=1)
        pnn = PrintedNeuralNetwork(
            [splits.n_features, 3, splits.n_classes],
            analytic_surrogates,
            rng=np.random.default_rng(1),
        )
        config = TrainConfig(max_epochs=200, patience=200, seed=1)
        train_pnn(pnn, splits.x_train, splits.y_train, splits.x_val, splits.y_val, config)
        accuracy = evaluate_mc(pnn, splits.x_test, splits.y_test, epsilon=0.0)
        # The rule-based dataset is learnable well above the 55% majority rate.
        assert accuracy.mean > 0.7

        report = design_report(pnn)
        assert report.total_printed_resistors > 0
        netlist = export_netlist_text(pnn)
        assert ".end" in netlist

    def test_mc_evaluation_consistent_with_manual_loop(self, analytic_surrogates):
        splits = load_splits("iris", seed=0, max_train=50)
        pnn = PrintedNeuralNetwork(
            [splits.n_features, 3, splits.n_classes],
            analytic_surrogates,
            rng=np.random.default_rng(0),
        )
        accuracy = evaluate_mc(pnn, splits.x_test, splits.y_test, epsilon=0.05,
                               n_test=10, seed=5)
        # Manual recomputation with the same variation stream.
        variation = VariationModel(0.05, seed=5)
        manual = []
        predictions = pnn.predict(splits.x_test, variation=variation, n_mc=10)
        manual = (predictions == splits.y_test).mean(axis=1)
        assert np.allclose(np.sort(accuracy.accuracies), np.sort(manual))


class TestReproducibility:
    def test_same_seed_same_training_trajectory(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        losses = []
        for _ in range(2):
            pnn = PrintedNeuralNetwork(
                [2, 3, 2], analytic_surrogates, rng=np.random.default_rng(7)
            )
            config = TrainConfig(max_epochs=30, patience=30, epsilon=0.05,
                                 n_mc_train=4, seed=7)
            result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
            losses.append([h[1] for h in result.history])
        assert np.allclose(losses[0], losses[1])
