"""Batched transfer-curve sweeps vs. the recorded scalar sweeps.

The reference curves were recorded from the deleted one-``solve_dc``-per-
step sweep (recipe in ``tests/surrogate/test_characterization_reference.py``).
"""

import numpy as np
import pytest

from repro.circuits import (
    ptanh_param_batch,
    ptanh_stamp_plan,
    simulate_negweight_curve,
    simulate_negweight_curve_batch,
    simulate_ptanh_curve,
    simulate_ptanh_curve_batch,
)
from repro.spice import ConvergenceError
from repro.surrogate.sampling import sample_design_points


def assert_matches_recorded_curves(kind, seed, curve_batch, curve_one, recorded):
    omegas = sample_design_points(12, seed=seed)
    for n_points in (21, 41):
        xs_b, ys_b, ok = curve_batch(omegas, n_points=n_points)
        assert ok.all()
        assert np.array_equal(xs_b, recorded[f"curves/{kind}/{n_points}/v_in"])
        assert np.array_equal(ys_b, recorded[f"curves/{kind}/{n_points}/v_out"])
        # A batch of one equals its row in the larger batch.
        for lane in (0, 5, 11):
            xs, ys = curve_one(omegas[lane], n_points=n_points)
            assert np.array_equal(xs, xs_b)
            assert np.array_equal(ys, ys_b[lane])


class TestBatchedCurves:
    def test_ptanh_batch_is_bitwise_identical_to_scalar(self, characterization_reference):
        assert_matches_recorded_curves(
            "ptanh", 7, simulate_ptanh_curve_batch, simulate_ptanh_curve,
            characterization_reference,
        )

    def test_negweight_batch_is_bitwise_identical_to_scalar(
        self, characterization_reference
    ):
        assert_matches_recorded_curves(
            "negweight", 9, simulate_negweight_curve_batch, simulate_negweight_curve,
            characterization_reference,
        )

    def test_single_curve_raises_when_its_lane_fails(self, monkeypatch):
        """A batch of one reports a failed lane as ConvergenceError."""
        from repro.circuits import ptanh

        def failing(omega_batch, n_points, model):
            xs = np.linspace(0.0, 1.0, n_points)
            return xs, np.full((len(omega_batch), n_points), np.nan), np.zeros(
                len(omega_batch), dtype=bool
            )

        monkeypatch.setattr(ptanh, "simulate_ptanh_curve_batch", failing)
        with pytest.raises(ConvergenceError):
            ptanh.simulate_ptanh_curve(sample_design_points(1, seed=7)[0])

    def test_single_curve_rejects_a_batch(self):
        with pytest.raises(ValueError, match="R1, R2"):
            simulate_ptanh_curve(sample_design_points(2, seed=7))

    def test_negweight_curves_are_negative_and_falling(self):
        omegas = sample_design_points(4, seed=1)
        _, ys, ok = simulate_negweight_curve_batch(omegas, n_points=11)
        assert ok.all()
        assert (ys <= 0).all()

    def test_batch_results_do_not_depend_on_batch_composition(self):
        """A lane's curve must not change when its batch mates change."""
        omegas = sample_design_points(8, seed=4)
        _, full, _ = simulate_ptanh_curve_batch(omegas, n_points=9)
        _, half, _ = simulate_ptanh_curve_batch(omegas[::2], n_points=9)
        assert np.array_equal(full[::2], half)

    def test_plan_is_cached_per_model(self):
        assert ptanh_stamp_plan() is ptanh_stamp_plan()


class TestParamBatchValidation:
    def test_omega_batch_shape_enforced(self):
        plan = ptanh_stamp_plan()
        with pytest.raises(ValueError, match=r"\(B, 7\)"):
            ptanh_param_batch(np.ones(7), plan)

    def test_nonpositive_resistances_rejected(self):
        plan = ptanh_stamp_plan()
        bad = np.ones((2, 7))
        bad[1, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            ptanh_param_batch(bad, plan)

    def test_geometry_broadcast_to_both_transistors(self):
        plan = ptanh_stamp_plan()
        omegas = np.array([[200.0, 80.0, 1e5, 4e4, 1e5, 123.0, 45.0]])
        params = ptanh_param_batch(omegas, plan)
        assert params.widths.shape == (1, plan.n_egts)
        assert (params.widths == 123.0).all()
        assert (params.lengths == 45.0).all()
