"""Training the surrogate MLPs (Sec. III-A c).

The dataset is split 70/20/10 into train/validation/test (the paper's
split); the network is trained with Adam on the MSE of the normalized η̃,
with early stopping on the validation loss and restoration of the best
epoch's weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.optim import Adam, EarlyStopping
from repro.surrogate.dataset_builder import SurrogateDataset
from repro.surrogate.features import FeatureNormalizer, extend_with_ratios
from repro.surrogate.model import PAPER_LAYER_WIDTHS, SurrogateMLP


@dataclass
class SurrogateTrainingResult:
    """Trained surrogate with its normalizers and quality metrics."""

    model: SurrogateMLP
    input_normalizer: FeatureNormalizer
    eta_normalizer: FeatureNormalizer
    train_mse: float
    val_mse: float
    test_mse: float
    r2_per_eta: np.ndarray
    history: List[Tuple[int, float, float]] = field(default_factory=list)
    splits: Dict[str, np.ndarray] = field(default_factory=dict)


def split_indices(
    n: int, rng: np.random.Generator, fractions: Sequence[float] = (0.7, 0.2, 0.1)
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random 70/20/10 train/validation/test split of ``range(n)``."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to one")
    order = rng.permutation(n)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


def r_squared(prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-output coefficient of determination."""
    ss_res = ((prediction - target) ** 2).sum(axis=0)
    ss_tot = ((target - target.mean(axis=0)) ** 2).sum(axis=0) + 1e-12
    return 1.0 - ss_res / ss_tot


def train_surrogate(
    dataset: SurrogateDataset,
    widths: Sequence[int] = PAPER_LAYER_WIDTHS,
    max_epochs: int = 3000,
    patience: int = 300,
    lr: float = 1e-3,
    seed: int = 0,
) -> SurrogateTrainingResult:
    """Train one surrogate MLP on a (ω, η) dataset.

    Full-batch Adam: the datasets are a few thousand points.
    """
    rng = np.random.default_rng(seed)
    features = extend_with_ratios(dataset.omega)
    input_normalizer = FeatureNormalizer.fit(features)
    eta_normalizer = FeatureNormalizer.fit(dataset.eta)
    x = input_normalizer.normalize(features)
    y = eta_normalizer.normalize(dataset.eta)

    train_idx, val_idx, test_idx = split_indices(len(dataset), rng)
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]
    x_test, y_test = x[test_idx], y[test_idx]

    model = SurrogateMLP(widths=widths, rng=rng)
    optimizer = Adam(model.parameters(), lr=lr)
    stopper = EarlyStopping(patience=patience)
    history: List[Tuple[int, float, float]] = []

    x_train_t, x_val_t = Tensor(x_train), Tensor(x_val)
    for epoch in range(max_epochs):
        optimizer.zero_grad()
        loss = F.mse_loss(model(x_train_t), y_train)
        loss.backward()
        optimizer.step()
        # The row-weighted mean over the training batch; ``loss * n / n`` can
        # differ from ``loss`` in the last bit, and histories keep that bit.
        train_loss = loss.item() * len(x_train) / len(x_train)

        with no_grad():
            val_loss = F.mse_loss(model(x_val_t), y_val).item()
        history.append((epoch, train_loss, val_loss))
        stopper.update(val_loss, epoch, state_fn=model.state_dict)
        if stopper.should_stop:
            break

    if stopper.best_state is not None:
        model.load_state_dict(stopper.best_state)

    with no_grad():
        pred_train = model(x_train_t).numpy()
        pred_val = model(x_val_t).numpy()
        pred_test = model(Tensor(x_test)).numpy() if len(x_test) else pred_val

    return SurrogateTrainingResult(
        model=model,
        input_normalizer=input_normalizer,
        eta_normalizer=eta_normalizer,
        train_mse=float(((pred_train - y_train) ** 2).mean()),
        val_mse=float(((pred_val - y_val) ** 2).mean()),
        test_mse=float(((pred_test - y_test) ** 2).mean()) if len(x_test) else float("nan"),
        r2_per_eta=r_squared(pred_test, y_test) if len(x_test) else r_squared(pred_val, y_val),
        history=history,
        splits={"train": train_idx, "val": val_idx, "test": test_idx},
    )
