"""Early stopping: best-value tracking, patience and lazy best-state capture."""

import numpy as np
import pytest

from repro.optim import EarlyStopping


class TestEarlyStopping:
    def test_initial_state(self):
        stopper = EarlyStopping(patience=4)
        assert stopper.best_value == np.inf and stopper.best_epoch == -1
        assert stopper.best_state is None and stopper.epochs_since_best == 0
        assert not stopper.should_stop

    def test_default_patience_is_the_papers(self):
        assert EarlyStopping().patience == 5000

    def test_tracks_best(self):
        stopper = EarlyStopping(patience=3)
        assert stopper.update(1.0, epoch=0)
        assert not stopper.update(1.5, epoch=1)
        assert stopper.update(0.5, epoch=2)
        assert stopper.best_epoch == 2
        assert stopper.best_value == 0.5

    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0, epoch=0)
        stopper.update(1.1, epoch=1)
        assert not stopper.should_stop
        stopper.update(1.2, epoch=2)
        assert stopper.should_stop

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0, 0)
        stopper.update(1.1, 1)
        stopper.update(0.9, 2)
        stopper.update(1.0, 3)
        assert not stopper.should_stop

    def test_equal_value_is_not_an_improvement(self):
        stopper = EarlyStopping(patience=10)
        stopper.update(1.0, 0)
        assert not stopper.update(1.0, 1)
        assert stopper.best_epoch == 0

    def test_keeps_best_state(self):
        stopper = EarlyStopping(patience=5)
        stopper.update(1.0, 0, state_fn=lambda: {"w": np.array([1.0])})
        stopper.update(2.0, 1, state_fn=lambda: {"w": np.array([2.0])})
        assert stopper.best_state["w"][0] == 1.0

    def test_rejects_bad_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    def test_rejects_negative_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=-3)

    def test_patience_one_stops_at_the_first_non_improvement(self):
        stopper = EarlyStopping(patience=1)
        stopper.update(1.0, 0)
        stopper.update(0.8, 1)
        assert not stopper.should_stop
        stopper.update(0.8, 2)
        assert stopper.should_stop

    def test_counts_consecutive_non_improving_epochs(self):
        stopper = EarlyStopping(patience=10)
        for epoch, value in enumerate([1.0, 2.0, 3.0, 0.5, 0.6, 0.7, 0.8]):
            stopper.update(value, epoch)
        assert stopper.epochs_since_best == 3
        assert stopper.best_epoch == 3

    def test_without_state_fn_no_state_is_kept(self):
        stopper = EarlyStopping(patience=3)
        stopper.update(1.0, 0, state_fn=lambda: {"w": np.ones(1)})
        stopper.update(0.5, 1)
        assert stopper.best_state is None
        assert stopper.best_epoch == 1

    def test_keeps_the_object_state_fn_returns(self):
        snapshot = {"w": np.zeros(2)}
        stopper = EarlyStopping(patience=3)
        stopper.update(1.0, 0, state_fn=lambda: snapshot)
        assert stopper.best_state is snapshot

    def test_nan_is_never_an_improvement(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(float("nan"), 0)
        assert not stopper.update(float("nan"), 1)
        assert stopper.should_stop
        assert stopper.best_epoch == -1 and stopper.best_state is None

    def test_best_value_is_a_python_float(self):
        stopper = EarlyStopping(patience=3)
        stopper.update(np.float64(0.25), 0)
        assert type(stopper.best_value) is float and stopper.best_value == 0.25

    def test_lazy_state_fn_called_only_on_improvement(self):
        calls = []

        def snapshot():
            calls.append(len(calls))
            return {"w": np.array([float(len(calls))])}

        stopper = EarlyStopping(patience=10)
        assert stopper.update(1.0, 0, state_fn=snapshot)      # best → snapshot
        assert not stopper.update(2.0, 1, state_fn=snapshot)  # worse → skipped
        assert not stopper.update(1.5, 2, state_fn=snapshot)  # worse → skipped
        assert stopper.update(0.5, 3, state_fn=snapshot)      # best → snapshot
        assert calls == [0, 1]
        assert stopper.best_state["w"][0] == 2.0
