"""Early stopping on a validation metric.

The paper stops training when the validation loss has not improved for a
*patience* number of epochs (5000 in the paper; configurable here) and keeps
the parameters of the best epoch.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np


class EarlyStopping:
    """Track a minimized metric and signal when patience is exhausted.

    Parameters
    ----------
    patience:
        Number of consecutive non-improving epochs tolerated before
        :attr:`should_stop` becomes ``True``.
    """

    def __init__(self, patience: int = 5000):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best_value: float = np.inf
        self.best_epoch: int = -1
        self.best_state: Any = None
        self.epochs_since_best: int = 0

    def update(
        self,
        value: float,
        epoch: int,
        state_fn: Optional[Callable[[], Any]] = None,
    ) -> bool:
        """Record an epoch result; return ``True`` if it is a new best.

        ``state_fn`` is called *only* on new-best epochs and its result kept
        as :attr:`best_state` — the vast majority of epochs during a long
        patience plateau then pay nothing for best-state tracking.
        """
        if value < self.best_value:
            self.best_value = float(value)
            self.best_epoch = epoch
            self.best_state = state_fn() if state_fn is not None else None
            self.epochs_since_best = 0
            return True
        self.epochs_since_best += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.epochs_since_best >= self.patience
