"""Ablation: NN surrogate (the paper's choice) vs. analytic surrogate.

The analytic surrogate is training-free but first-order; the NN surrogate
is fitted on circuit simulations.  This bench compares the accuracy of the
resulting pNNs and the surrogates' own prediction error.
"""

import numpy as np

from benchmarks.conftest import save_and_print
from repro.core import PrintedNeuralNetwork, TrainConfig, evaluate_mc, train_pnn
from repro.datasets import load_splits
from repro.surrogate import AnalyticSurrogate, build_surrogate_dataset

DATASET = "iris"


def test_ablation_surrogate_kind(benchmark, output_dir, profile, bundle):
    splits = load_splits(DATASET, seed=0, max_train=profile.max_train)
    analytic = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))

    def run(surrogates):
        pnn = PrintedNeuralNetwork(
            [splits.n_features, profile.hidden, splits.n_classes],
            surrogates,
            rng=np.random.default_rng(4),
        )
        config = TrainConfig(
            epsilon=0.05, n_mc_train=profile.n_mc_train,
            max_epochs=profile.max_epochs, patience=profile.patience, seed=4,
        )
        train_pnn(pnn, splits.x_train, splits.y_train, splits.x_val, splits.y_val, config)
        return evaluate_mc(
            pnn, splits.x_test, splits.y_test, epsilon=0.05,
            n_test=profile.n_test, seed=4,
        )

    benchmark.pedantic(lambda: run(analytic), rounds=1, iterations=1)

    nn_result = run(bundle)
    analytic_result = run(analytic)

    # Surrogate fidelity on a fresh simulated sample.
    reference = build_surrogate_dataset("ptanh", n_points=64, sweep_points=21, seed=17)
    nn_error = np.mean((bundle.ptanh.eta_from_omega(reference.omega) - reference.eta) ** 2)
    calibrated = AnalyticSurrogate("ptanh").calibrate(reference)
    analytic_error = np.mean((calibrated.eta_from_omega(reference.omega) - reference.eta) ** 2)

    lines = [
        f"dataset: {DATASET}, ϵ = 5% (variation-aware training)",
        f"  NN surrogate pNN accuracy      : {nn_result}",
        f"  analytic surrogate pNN accuracy: {analytic_result}",
        f"  η prediction MSE — NN: {nn_error:.3e}, analytic (calibrated): {analytic_error:.3e}",
    ]
    save_and_print(output_dir, "ablation_surrogate", "\n".join(lines))
