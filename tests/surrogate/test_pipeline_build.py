"""build_surrogate_bundle: end-to-end pipeline behaviour."""

import numpy as np
import pytest

from repro.surrogate.pipeline import build_surrogate_bundle
from repro.surrogate.sampling import sample_design_points


@pytest.fixture(scope="module")
def mini_bundle(tmp_path_factory):
    return build_surrogate_bundle(
        n_points=48,
        sweep_points=15,
        widths=(10, 6, 4),
        max_epochs=40,
        patience=40,
        seed=1,
        cache_dir=tmp_path_factory.mktemp("bundle"),
    )


class TestBuildBundle:
    def test_contains_both_circuit_kinds(self, mini_bundle):
        assert mini_bundle.ptanh.kind == "ptanh"
        assert mini_bundle.negweight.kind == "negweight"

    def test_metrics_recorded(self, mini_bundle):
        assert np.isfinite(mini_bundle.ptanh.test_mse)
        assert np.isfinite(mini_bundle.negweight.test_mse)

    def test_eta_finite_across_design_space(self, mini_bundle):
        """Predictions stay finite everywhere (bounds need a trained bundle;
        the paper-scale check lives in the fig4 bench)."""
        omega = sample_design_points(12, seed=5)
        for surrogate in (mini_bundle.ptanh, mini_bundle.negweight):
            eta = surrogate.eta_from_omega(omega)
            assert eta.shape == (12, 4)
            assert np.all(np.isfinite(eta))

    def test_normalizers_cover_training_ranges(self, mini_bundle):
        normalizer = mini_bundle.ptanh.input_normalizer
        assert normalizer.minimum.shape == (10,)
        assert np.all(normalizer.span > 0)

    def test_verbose_build_prints_progress(self, tmp_path, capsys):
        build_surrogate_bundle(
            n_points=16, sweep_points=11, widths=(10, 5, 4),
            max_epochs=5, patience=5, seed=2, cache_dir=tmp_path, verbose=True,
        )
        out = capsys.readouterr().out
        assert "building dataset" in out and "training MLP" in out
