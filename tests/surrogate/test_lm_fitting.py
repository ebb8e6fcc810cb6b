"""Levenberg-Marquardt and the η extraction (Fig. 4 left).

The optimizer is the lockstep :func:`levenberg_marquardt_batch`; each case
runs at B = 1 and at B = 3 problems with different data per lane, with
analytic Jacobians, and scipy's ``least_squares`` is the external
reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from repro.surrogate.fitting import (
    ETA_BOUNDS_HIGH,
    ETA_BOUNDS_LOW,
    canonicalize_eta,
    fit_ptanh,
    initial_guess_batch,
    ptanh_curve,
    ptanh_curve_batch,
    ptanh_jacobian_batch,
)
from repro.surrogate.lm import levenberg_marquardt_batch

BATCH_SIZES = pytest.mark.parametrize("batch", [1, 3])


class TestLevenbergMarquardt:
    @BATCH_SIZES
    def test_solves_linear_least_squares(self, batch):
        design = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        solutions = np.array([[1.0, 2.0], [-3.0, 0.5], [4.0, 4.0]])[:batch]
        targets = solutions @ design.T

        result = levenberg_marquardt_batch(
            lambda x, lanes: x @ design.T - targets[lanes],
            np.zeros((batch, 2)),
            lambda x, lanes: np.broadcast_to(design, (len(x), 3, 2)),
        )
        assert result.converged.all()
        assert np.allclose(result.x, solutions, atol=1e-8)

    @BATCH_SIZES
    def test_rosenbrock_valley(self, batch):
        def residual(x, lanes):
            return np.stack([10.0 * (x[:, 1] - x[:, 0] ** 2), 1.0 - x[:, 0]], axis=1)

        def jacobian(x, lanes):
            jac = np.zeros((len(x), 2, 2))
            jac[:, 0, 0] = -20.0 * x[:, 0]
            jac[:, 0, 1] = 10.0
            jac[:, 1, 0] = -1.0
            return jac

        starts = np.array([[-1.2, 1.0], [0.0, 0.0], [2.0, 3.0]])[:batch]
        result = levenberg_marquardt_batch(residual, starts, jacobian, max_iter=500)
        assert np.allclose(result.x, 1.0, atol=1e-6)

    @BATCH_SIZES
    def test_analytic_jacobian_used(self, batch):
        calls = {"n": 0}
        targets = np.array([3.0, -1.0, 0.25])[:batch, None] * np.ones((batch, 2))

        def jacobian(x, lanes):
            calls["n"] += 1
            return np.broadcast_to(np.eye(2), (len(x), 2, 2))

        result = levenberg_marquardt_batch(
            lambda x, lanes: x - targets[lanes], np.zeros((batch, 2)), jacobian
        )
        assert calls["n"] > 0
        assert np.allclose(result.x, targets)

    @BATCH_SIZES
    def test_matches_scipy_on_tanh_fit(self, batch):
        rng = np.random.default_rng(0)
        true_etas = np.array([
            [0.5, 0.4, 0.45, 6.0],
            [0.3, 0.2, 0.6, 12.0],
            [0.6, 0.25, 0.35, 3.0],
        ])[:batch]
        v_in = np.linspace(0, 1, 41)
        targets = ptanh_curve_batch(true_etas, v_in) + rng.normal(0, 1e-3, size=(batch, 41))
        x0 = initial_guess_batch(v_in, targets)

        ours = levenberg_marquardt_batch(
            lambda e, lanes: ptanh_curve_batch(e, v_in) - targets[lanes],
            x0,
            lambda e, lanes: ptanh_jacobian_batch(e, v_in),
        )
        for b in range(batch):
            scipy_fit = least_squares(lambda e: ptanh_curve(e, v_in) - targets[b], x0[b])
            assert ours.cost[b] == pytest.approx(scipy_fit.cost, rel=1e-3, abs=1e-9)
            assert np.allclose(ours.x[b], scipy_fit.x, atol=1e-3)


class TestPtanhJacobian:
    @given(
        eta1=st.floats(0.0, 1.0), eta2=st.floats(-0.5, 0.5),
        eta3=st.floats(0.0, 1.0), eta4=st.floats(0.5, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_jacobian_matches_finite_difference(self, eta1, eta2, eta3, eta4):
        eta = np.array([eta1, eta2, eta3, eta4])
        v_in = np.linspace(0, 1, 11)
        jac = ptanh_jacobian_batch(eta[None, :], v_in)[0]
        for j in range(4):
            h = 1e-7 * max(1.0, abs(eta[j]))
            shifted = eta.copy()
            shifted[j] += h
            numeric = (ptanh_curve(shifted, v_in) - ptanh_curve(eta, v_in)) / h
            assert np.allclose(jac[:, j], numeric, atol=1e-5)


class TestFitPtanh:
    @given(
        eta1=st.floats(0.3, 0.7), eta2=st.floats(0.15, 0.45),
        eta3=st.floats(0.25, 0.75), eta4=st.floats(2.0, 15.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovers_known_parameters(self, eta1, eta2, eta3, eta4):
        true_eta = np.array([eta1, eta2, eta3, eta4])
        v_in = np.linspace(0, 1, 41)
        fit = fit_ptanh(v_in, ptanh_curve(true_eta, v_in))
        assert fit.rmse < 1e-6
        assert np.allclose(fit.eta, true_eta, rtol=1e-2, atol=1e-3)

    def test_negated_form_recovers_inv(self):
        true_eta = np.array([0.6, 0.3, 0.5, 5.0])
        v_in = np.linspace(0, 1, 41)
        inv_curve = -ptanh_curve(true_eta, v_in)   # Eq. 3
        fit = fit_ptanh(v_in, inv_curve, negated=True)
        assert np.allclose(fit.eta, true_eta, atol=1e-4)

    def test_noise_tolerance(self):
        rng = np.random.default_rng(1)
        true_eta = np.array([0.5, 0.35, 0.5, 6.0])
        v_in = np.linspace(0, 1, 41)
        noisy = ptanh_curve(true_eta, v_in) + rng.normal(0, 5e-3, 41)
        fit = fit_ptanh(v_in, noisy)
        assert np.allclose(fit.eta, true_eta, atol=0.05)
        assert fit.rmse < 0.01

    def test_flat_curve_flagged_not_tanh_like(self):
        """A flat curve has no swing, so the builder's swing gate drops it."""
        v_in = np.linspace(0, 1, 21)
        fit = fit_ptanh(v_in, np.full(21, 0.95))
        assert fit.swing == 0.0 < 0.02            # build_surrogate_dataset's min_swing
        assert fit.rmse < 1e-12                   # a flat fit is exact: only swing flags it
        assert fit.eta[1] == 0.0

    def test_bounds_checked(self):
        assert np.all(ETA_BOUNDS_LOW < ETA_BOUNDS_HIGH)
        fit = fit_ptanh(np.linspace(0, 1, 21), np.linspace(0.1, 0.9, 21))
        assert fit.in_bounds == (
            np.all(fit.eta >= ETA_BOUNDS_LOW) and np.all(fit.eta <= ETA_BOUNDS_HIGH)
        )

    def test_canonicalize_resolves_sign_ambiguity(self):
        eta = np.array([0.5, 0.3, 0.5, -4.0])
        canonical = canonicalize_eta(eta)
        assert canonical[3] > 0
        v = np.linspace(0, 1, 9)
        assert np.allclose(ptanh_curve(eta, v), ptanh_curve(canonical, v))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_ptanh(np.ones(3), np.ones(3))          # too few points
        with pytest.raises(ValueError):
            fit_ptanh(np.ones(10), np.ones(9))          # length mismatch
