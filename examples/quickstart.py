"""Quickstart: design a printed neuromorphic classifier for Iris.

Trains a pNN with learnable nonlinear circuits and variation-aware training
(the paper's proposed configuration), evaluates it under 10% printing
variation, and prints the resulting printable design.

Run:  python examples/quickstart.py  [--fast]
"""

import argparse

import numpy as np

from repro import get_default_bundle
from repro.core import PrintedNeuralNetwork, TrainConfig, train_pnn, evaluate_mc
from repro.datasets import load_splits
from repro.exporting import design_report
from repro.surrogate import AnalyticSurrogate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use the analytic surrogate and a small budget (no bundle build)",
    )
    args = parser.parse_args()

    if args.fast:
        surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
        epochs, patience = 400, 200
    else:
        print("Loading (or building) the NN surrogate bundle ...")
        surrogates = get_default_bundle(verbose=True)
        epochs, patience = 1500, 400

    splits = load_splits("iris", seed=1)
    print(f"\nDataset: iris, {splits.sizes()} train/val/test, {splits.n_classes} classes")

    pnn = PrintedNeuralNetwork(
        [splits.n_features, 3, splits.n_classes],
        surrogates,
        rng=np.random.default_rng(1),
    )
    n_params = sum(
        array.size for layer in pnn.layers for array in (layer.theta, layer.w_act, layer.w_neg)
    )
    print(f"pNN topology {splits.n_features}-3-{splits.n_classes}, "
          f"{n_params} learnable parameters")

    config = TrainConfig(
        epsilon=0.10,            # variation-aware training at 10%
        n_mc_train=10,
        max_epochs=epochs,
        patience=patience,
        seed=1,
    )
    print("Training (variation-aware, ϵ = 10%) ...")
    result = train_pnn(
        pnn, splits.x_train, splits.y_train, splits.x_val, splits.y_val, config
    )
    print(f"best epoch {result.best_epoch}, validation loss {result.best_val_loss:.4f}")

    nominal = evaluate_mc(pnn, splits.x_test, splits.y_test, epsilon=0.0)
    varied = evaluate_mc(pnn, splits.x_test, splits.y_test, epsilon=0.10, n_test=100, seed=7)
    print(f"\ntest accuracy, nominal circuit:      {nominal}")
    print(f"test accuracy under 10% variation:   {varied}")

    print("\n--- printable design ---")
    print(design_report(pnn).summary())


if __name__ == "__main__":
    main()
