"""Analytic fallback surrogate: structure, differentiability, calibration."""

import numpy as np
import pytest

from repro.core.grad_kernels import surrogate_eta_bwd, surrogate_eta_fwd
from repro.core.params import snapshot_surrogate
from repro.surrogate import AnalyticSurrogate
from repro.surrogate.sampling import sample_design_points


def assert_vjp_matches_finite_differences(surrogate, omega, numeric_grad):
    """``surrogate_eta_bwd`` of the surrogate's snapshot vs central differences.

    Steps are relative: ω mixes resistances (~1e5 Ω) with lengths (~10 µm).
    """
    snapshot = snapshot_surrogate(surrogate)
    _, ctx = surrogate_eta_fwd(omega, snapshot)
    analytic = surrogate_eta_bwd(np.ones((len(omega), 4)), ctx, snapshot)
    numeric = numeric_grad(
        lambda u: surrogate.eta_from_omega(u * omega).sum(), np.ones_like(omega)
    ) / omega
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-9 * np.abs(analytic).max())


class TestAnalyticSurrogate:
    def test_output_shape(self):
        surrogate = AnalyticSurrogate("ptanh")
        omega = sample_design_points(5, seed=0)
        assert surrogate.eta_from_omega(omega).shape == (5, 4)

    def test_batched_shapes(self):
        surrogate = AnalyticSurrogate("ptanh")
        omega = np.tile(sample_design_points(2, seed=0), (3, 1, 1))
        assert surrogate.eta_from_omega(omega).shape == (3, 2, 4)

    def test_differentiable(self, numeric_grad):
        surrogate = AnalyticSurrogate("ptanh")
        omega = sample_design_points(3, seed=1)
        assert_vjp_matches_finite_differences(surrogate, omega, numeric_grad)

    def test_steepness_positive_and_bounded(self):
        surrogate = AnalyticSurrogate("ptanh")
        eta = surrogate.eta_from_omega(sample_design_points(50, seed=2))
        assert np.all(eta[:, 3] >= 0.5) and np.all(eta[:, 3] <= 200.0)

    def test_wider_transistor_steeper_curve(self):
        surrogate = AnalyticSurrogate("ptanh")
        base = np.array([200, 80, 100e3, 40e3, 100e3, 300.0, 50.0])
        wide = base.copy(); wide[5] = 800.0; wide[6] = 10.0
        eta_base = surrogate.eta_from_omega(base[None])[0]
        eta_wide = surrogate.eta_from_omega(wide[None])[0]
        assert eta_wide[3] > eta_base[3]

    def test_stronger_divider_moves_trip_point_right(self):
        surrogate = AnalyticSurrogate("ptanh")
        base = np.array([200, 150, 100e3, 40e3, 100e3, 500.0, 30.0])
        attenuated = base.copy(); attenuated[1] = 30.0   # smaller k1
        assert (
            surrogate.eta_from_omega(attenuated[None])[0][2]
            > surrogate.eta_from_omega(base[None])[0][2]
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            AnalyticSurrogate("sigmoid")


class TestCalibration:
    def test_calibration_reduces_error(self, ptanh_dataset):
        surrogate = AnalyticSurrogate("ptanh")
        raw_error = np.mean(
            (surrogate.eta_from_omega(ptanh_dataset.omega) - ptanh_dataset.eta) ** 2
        )
        surrogate.calibrate(ptanh_dataset)
        calibrated_error = np.mean(
            (surrogate.eta_from_omega(ptanh_dataset.omega) - ptanh_dataset.eta) ** 2
        )
        assert calibrated_error <= raw_error

    def test_calibration_requires_matching_kind(self, ptanh_dataset):
        with pytest.raises(ValueError):
            AnalyticSurrogate("negweight").calibrate(ptanh_dataset)

    def test_calibration_is_affine_per_output(self, ptanh_dataset):
        surrogate = AnalyticSurrogate("ptanh").calibrate(ptanh_dataset)
        assert surrogate.scale.shape == (4,)
        assert surrogate.shift.shape == (4,)
