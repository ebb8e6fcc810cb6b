"""Surrogate bundles: differentiable ω → η map and (de)serialization."""

import numpy as np
import pytest

from repro.core.grad_kernels import surrogate_eta_bwd, surrogate_eta_fwd
from repro.core.params import snapshot_surrogate
from repro.surrogate.io import bundle_cache_path, load_bundle, save_bundle
from repro.surrogate.pipeline import build_surrogate_bundle
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


class TestCircuitSurrogate:
    def test_eta_shapes(self, tiny_bundle):
        omega = sample_design_points(6, seed=0)
        eta = tiny_bundle.ptanh.eta_from_omega(omega)
        assert eta.shape == (6, 4)

    def test_eta_batched_shapes(self, tiny_bundle):
        omega = np.tile(sample_design_points(2, seed=0), (5, 1, 1))
        eta = tiny_bundle.ptanh.eta_from_omega(omega)
        assert eta.shape == (5, 2, 4)

    def test_differentiable_wrt_omega(self, tiny_bundle, numeric_grad):
        omega = sample_design_points(3, seed=1)
        assert_vjp_matches_finite_differences(tiny_bundle.ptanh, omega, numeric_grad)

    def test_predictions_near_simulated_truth(self, tiny_bundle, ptanh_dataset):
        """The trained surrogate must beat a constant predictor clearly."""
        predicted = tiny_bundle.ptanh.eta_from_omega(ptanh_dataset.omega)
        truth = ptanh_dataset.eta
        residual = ((predicted - truth) ** 2).mean(axis=0)
        baseline = truth.var(axis=0) + 1e-12
        # Average skill across the four η outputs (the session fixture is a
        # deliberately tiny surrogate; the paper-scale bundle reaches ~0.05).
        assert (residual / baseline).mean() < 0.85

    def test_bundle_lookup(self, tiny_bundle):
        assert tiny_bundle.surrogate("ptanh") is tiny_bundle.ptanh
        assert tiny_bundle.surrogate("negweight") is tiny_bundle.negweight
        with pytest.raises(KeyError):
            tiny_bundle.surrogate("other")


class TestBundleIO:
    def test_save_load_round_trip(self, tiny_bundle, tmp_path):
        path = save_bundle(tiny_bundle, tmp_path / "bundle.npz")
        restored = load_bundle(path)
        omega = sample_design_points(5, seed=2)
        assert np.allclose(
            restored.ptanh.eta_from_omega(omega), tiny_bundle.ptanh.eta_from_omega(omega)
        )
        assert np.allclose(
            restored.negweight.eta_from_omega(omega), tiny_bundle.negweight.eta_from_omega(omega)
        )
        assert np.allclose(restored.space.lower, tiny_bundle.space.lower)

    def test_cache_path_deterministic(self, tmp_path):
        a = bundle_cache_path(tmp_path, 128, (10, 8, 4), 0)
        b = bundle_cache_path(tmp_path, 128, (10, 8, 4), 0)
        c = bundle_cache_path(tmp_path, 256, (10, 8, 4), 0)
        assert a == b and a != c

    def test_build_with_cache_reuses_file(self, tmp_path):
        kwargs = dict(
            n_points=32, sweep_points=15, widths=(10, 6, 4),
            max_epochs=20, patience=20, seed=0, cache_dir=tmp_path,
        )
        first = build_surrogate_bundle(**kwargs)
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        second = build_surrogate_bundle(**kwargs)
        omega = sample_design_points(3, seed=3)
        assert np.allclose(
            first.ptanh.eta_from_omega(omega), second.ptanh.eta_from_omega(omega)
        )
