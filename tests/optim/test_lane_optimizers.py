"""Lane-stacked optimizer state vs per-lane serial optimizers, bit for bit.

Adam's update is elementwise, so one stacked step over a
``(L, ...)`` parameter must equal ``L`` independent per-lane steps exactly
(no tolerance).  ``compact(keep)`` is a gather: surviving lanes' moments
are byte-identical before and after, so a run that compacts mid-stream
still finishes bitwise equal to the serial lanes that ran start to end.
"""

import numpy as np
import pytest

from repro.optim import Adam, LaneAdam, RawParameter


def lane_grads(rng, n_lanes, shape, steps):
    """Deterministic per-step, per-lane gradients ``(steps, L, *shape)``."""
    return rng.normal(size=(steps, n_lanes, *shape))


def run_stacked(opt_cls, data, grads, keep_at=None, keep=None, **kwargs):
    """Run a stacked optimizer, optionally compacting after ``keep_at`` steps.

    Returns the final stacked data (in surviving-lane order when compacted).
    """
    param = RawParameter(data.copy())
    optimizer = opt_cls([{"params": [param], "lr": 0.05}], **kwargs)
    lanes = list(range(data.shape[0]))
    for step, grad in enumerate(grads):
        if keep_at is not None and step == keep_at:
            param.data = param.data[keep]
            optimizer.compact(keep)
            lanes = [lanes[i] for i in keep]
        param.grad = grad[lanes]
        optimizer.step()
    return param.data, lanes


def run_serial(opt_cls, data, grads, lane, steps=None, **kwargs):
    """Run one lane's slice through the serial optimizer."""
    param = RawParameter(data[lane].copy())
    optimizer = opt_cls([{"params": [param], "lr": 0.05}], **kwargs)
    for grad in grads[:steps]:
        param.grad = grad[lane]
        optimizer.step()
    return param.data


@pytest.mark.parametrize(
    "stacked_cls,serial_cls,kwargs",
    [
        (LaneAdam, Adam, {}),
    ],
)
class TestStackedEqualsSerial:
    def test_stacked_step_equals_per_lane_steps(self, stacked_cls, serial_cls, kwargs):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(4, 3, 5))
        grads = lane_grads(rng, 4, (3, 5), steps=7)
        stacked, lanes = run_stacked(stacked_cls, data, grads, **kwargs)
        for position, lane in enumerate(lanes):
            serial = run_serial(serial_cls, data, grads, lane, **kwargs)
            np.testing.assert_array_equal(stacked[position], serial)

    def test_compact_preserves_survivor_state(self, stacked_cls, serial_cls, kwargs):
        """Compact after 3 of 8 steps; survivors must still match serial."""
        rng = np.random.default_rng(23)
        data = rng.normal(size=(5, 2, 4))
        grads = lane_grads(rng, 5, (2, 4), steps=8)
        keep = [0, 2, 4]
        stacked, lanes = run_stacked(
            stacked_cls, data, grads, keep_at=3, keep=keep, **kwargs
        )
        assert lanes == keep
        for position, lane in enumerate(lanes):
            serial = run_serial(serial_cls, data, grads, lane, **kwargs)
            np.testing.assert_array_equal(stacked[position], serial)


class TestCompactBookkeeping:
    def test_adam_step_counter_survives_compaction(self):
        param = RawParameter(np.zeros((3, 2)))
        optimizer = LaneAdam([{"params": [param], "lr": 0.05}])
        for _ in range(4):
            param.grad = np.ones((3, 2))
            optimizer.step()
        state = optimizer._state[id(param)]
        assert state["step"] == 4
        param.data = param.data[[0, 2]]
        optimizer.compact([0, 2])
        state = optimizer._state[id(param)]
        assert state["step"] == 4                 # survivors stepped 4 times
        assert state["m"].shape == (2, 2)
        assert state["v"].shape == (2, 2)

    def test_compact_before_first_step_is_noop(self):
        param = RawParameter(np.zeros((3, 2)))
        optimizer = LaneAdam([{"params": [param], "lr": 0.05}])
        optimizer.compact([0, 1])                 # no state yet; must not raise

