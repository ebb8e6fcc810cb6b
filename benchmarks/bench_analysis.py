"""Analysis benches: design cost and component sensitivity.

Not a table in the paper, but the quantities its argument rests on: device
counts ("an analog neuron needs fewer than ten transistors", Sec. II-B) and
which components the learned behaviour is sensitive to.
"""

import numpy as np

from benchmarks.conftest import save_and_print
from repro.analysis import estimate_cost, eta_sensitivity, variation_attribution
from repro.analysis.sensitivity import format_sensitivity
from repro.core import PrintedNeuralNetwork, TrainConfig, train_pnn
from repro.datasets import load_splits

DATASET = "iris"


def test_analysis_cost_and_sensitivity(benchmark, output_dir, profile, bundle):
    splits = load_splits(DATASET, seed=0, max_train=profile.max_train)
    pnn = PrintedNeuralNetwork(
        [splits.n_features, profile.hidden, splits.n_classes],
        bundle,
        rng=np.random.default_rng(8),
    )
    config = TrainConfig(
        epsilon=0.10, n_mc_train=profile.n_mc_train,
        max_epochs=profile.max_epochs, patience=profile.patience, seed=8,
    )
    train_pnn(pnn, splits.x_train, splits.y_train, splits.x_val, splits.y_val, config)

    cost = benchmark(lambda: estimate_cost(pnn))

    lines = [f"trained design for {DATASET} ({splits.n_features}-{profile.hidden}-"
             f"{splits.n_classes}):", "", cost.summary(), ""]

    # The paper's device-count argument: fewer than ten transistors per neuron.
    n_neurons = profile.hidden + splits.n_classes
    lines.append(
        f"transistors per neuron: {cost.n_transistors / n_neurons:.1f} "
        "(the paper's analog-vs-digital argument: < 10)"
    )
    assert cost.n_transistors / n_neurons < 10

    omega = pnn.snapshot().layers[0].act_omega[0]
    lines.append("")
    lines.append("η sensitivity to relative component changes (layer 0 activation):")
    lines.append(format_sensitivity(eta_sensitivity(pnn.act_surrogate, omega)))

    lines.append("")
    lines.append("accuracy attribution of 10% variation per component group:")
    for result in variation_attribution(
        pnn, splits.x_test, splits.y_test, epsilon=0.10,
        n_test=max(10, profile.n_test // 4), seed=8,
    ):
        lines.append(
            f"  {result.group:>10s}: {result.mean:.3f} ± {result.std:.3f} "
            f"(drop {result.accuracy_drop:+.3f})"
        )
    save_and_print(output_dir, "analysis_cost_sensitivity", "\n".join(lines))
