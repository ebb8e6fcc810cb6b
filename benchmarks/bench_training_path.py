"""Kernel training engine vs. the autograd training loop.

Times a variation-aware training run (ε = 0.1, ``n_mc = 20`` — the paper's
Sec. III-C Monte-Carlo expected loss, the dominant cost of reproducing
Table II) through both ``train_pnn`` engines on the same data, seeds and
variation streams:

- ``engine="autograd"`` — the original path: a fresh dynamic tape over the
  full MC batch every epoch, Tensor-wrapped Adam state, an eager
  state-dict snapshot per epoch;
- ``engine="kernel"`` — a one-lane run of the lane training loop
  (:func:`repro.core.lanes.train_pnn_lanes`): hand-derived backward
  kernels over raw parameter arrays (:mod:`repro.core.grad_kernels`),
  preallocated workspaces, lazy best-state snapshots.

Both engines consume the identical RNG streams and produce per-epoch loss
histories equal to ≤ 1e-9 relative (asserted below); the headline number is
the speedup, which the PR's acceptance criteria require to be ≥ 2×.
"""

import numpy as np

from benchmarks._record import best_time
from benchmarks.conftest import save_and_print
from repro.core import PrintedNeuralNetwork, TrainConfig, train_pnn
from repro.datasets import load_splits
from repro.experiments.runner import default_surrogates

EPSILON = 0.1
N_MC = 20
EPOCHS = 40
REPEATS = 5


def _make_pnn(splits):
    return PrintedNeuralNetwork(
        [splits.n_features, 3, splits.n_classes], default_surrogates(),
        rng=np.random.default_rng(1),
    )


def _train(splits, config, engine):
    pnn = _make_pnn(splits)
    result = train_pnn(
        pnn, splits.x_train, splits.y_train, splits.x_val, splits.y_val,
        config, engine=engine,
    )
    return result


def test_training_path_speedup(output_dir):
    splits = load_splits("iris", seed=0, max_train=50)
    config = TrainConfig(
        max_epochs=EPOCHS, patience=EPOCHS, epsilon=EPSILON, n_mc_train=N_MC, seed=1
    )

    autograd = _train(splits, config, "autograd")
    kernel = _train(splits, config, "kernel")
    reference = np.array([(t, v) for _, t, v in autograd.history])
    fast = np.array([(t, v) for _, t, v in kernel.history])
    np.testing.assert_allclose(fast, reference, rtol=1e-9, atol=0)

    t_autograd = best_time(lambda: _train(splits, config, "autograd"), repeats=REPEATS)
    t_kernel = best_time(lambda: _train(splits, config, "kernel"), repeats=REPEATS)
    speedup = t_autograd / t_kernel

    lines = [
        f"Variation-aware training, iris ({len(splits.x_train)} train samples), "
        f"ϵ={EPSILON}, n_mc={N_MC}, {EPOCHS} epochs, best of {REPEATS}:",
        f"  autograd engine      : {t_autograd * 1e3:8.2f} ms",
        f"  kernel engine        : {t_kernel * 1e3:8.2f} ms",
        f"  speedup              : {speedup:8.2f}x",
        f"  histories ≤1e-9 rel. : True "
        f"(best val loss {kernel.best_val_loss:.6f} @ epoch {kernel.best_epoch})",
    ]
    save_and_print(output_dir, "training_path", "\n".join(lines))
    assert speedup >= 2.0, f"kernel engine only {speedup:.2f}x faster (need ≥ 2x)"
