"""Lockstep η fitting and the dataset builder's chunked loop.

The builder's output is pinned to the recorded scalar reference loop in
``test_characterization_reference.py``; here it must not depend on the
chunk size, and its quality gates must keep and drop exactly at their
thresholds.
"""

import numpy as np
import pytest

from repro.surrogate import dataset_builder
from repro.surrogate.dataset_builder import BuildStats, build_surrogate_dataset
from repro.surrogate.fitting import (
    FitResult,
    fit_ptanh,
    fit_ptanh_batch,
    initial_guess_batch,
    ptanh_curve,
    ptanh_curve_batch,
    ptanh_jacobian_batch,
)
from repro.surrogate.lm import levenberg_marquardt_batch


class TestBatchedCurveEvaluation:
    def test_curve_batch_matches_scalar_rows(self):
        v_in = np.linspace(0, 1, 21)
        etas = np.array([[0.5, 0.4, 0.5, 8.0], [0.2, -0.1, 0.7, 30.0]])
        stacked = ptanh_curve_batch(etas, v_in)
        for b, eta in enumerate(etas):
            assert np.array_equal(stacked[b], ptanh_curve(eta, v_in))

    def test_jacobian_batch_matches_central_differences(self, numeric_grad):
        v_in = np.linspace(0, 1, 21)
        etas = np.array([[0.5, 0.4, 0.5, 8.0], [0.2, -0.1, 0.7, 30.0]])
        stacked = ptanh_jacobian_batch(etas, v_in)
        assert stacked.shape == (2, 21, 4)
        for b, eta in enumerate(etas):
            for i in range(len(v_in)):
                numeric = numeric_grad(
                    lambda e: ptanh_curve(e, v_in)[i], eta, step=1e-7
                )
                assert np.allclose(stacked[b, i], numeric, rtol=1e-6, atol=1e-7)

    def test_initial_guess_batch_matches_scalar_rows(self, characterization_reference):
        """Rows equal the recorded scalar start points (flat branch included)."""
        v_in = np.linspace(0, 1, 21)
        targets = np.stack([
            0.5 + 0.4 * np.tanh((v_in - 0.5) * 9.0),
            0.9 - 0.6 * np.tanh((v_in - 0.3) * 4.0),
            np.full(21, 0.73),                      # flat branch
        ])
        stacked = initial_guess_batch(v_in, targets)
        assert np.array_equal(stacked, characterization_reference["initial_guess"])
        assert np.array_equal(stacked[2, 1:], [0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "v_in, curve, raw, eta4",
        [
            # A straight line: steepest slope 0.1 over |η2| = 0.5.
            (np.linspace(0, 10, 21), lambda v: 0.1 * v, 0.2, 0.5),
            # A unit step: central difference 1 / (2 · 0.5 mV) over 0.5.
            (np.linspace(0, 0.01, 21), lambda v: (v >= 0.005).astype(float), 2000.0, 200.0),
        ],
        ids=["shallow-line", "unit-step"],
    )
    def test_initial_guess_batch_clips_the_steepness_start(self, v_in, curve, raw, eta4):
        """η4 starts at a bound of [0.5, 200] when the slope ratio leaves it."""
        targets = curve(v_in)[None, :]
        slopes = np.gradient(targets[0], v_in)
        assert np.isclose(np.abs(slopes).max() / 0.5, raw)
        (guess,) = initial_guess_batch(v_in, targets)
        assert guess[3] == eta4
        assert abs(guess[1]) == 0.5


class TestBatchedFit:
    def test_fit_batch_is_batch_size_invariant(self):
        """Batch-of-1 fits equal large-batch fits bit for bit."""
        v_in = np.linspace(0, 1, 33)
        rng = np.random.default_rng(3)
        etas = np.column_stack([
            rng.uniform(0.3, 0.7, 6),
            rng.uniform(0.1, 0.4, 6),
            rng.uniform(0.2, 0.8, 6),
            rng.uniform(2.0, 40.0, 6),
        ])
        curves = ptanh_curve_batch(etas, v_in) + 0.01 * rng.standard_normal((6, 33))
        together = fit_ptanh_batch(v_in, curves)
        for b in range(6):
            alone = fit_ptanh(v_in, curves[b])
            assert np.array_equal(alone.eta, together[b].eta)
            assert alone.rmse == together[b].rmse
            assert alone.swing == together[b].swing
            assert alone.converged == together[b].converged

    def test_negated_fit_batch_matches_scalar(self):
        v_in = np.linspace(0, 1, 33)
        curve = -(0.5 + 0.3 * np.tanh((v_in - 0.4) * 12.0))
        batch = fit_ptanh_batch(v_in, curve[None, :], negated=True)[0]
        alone = fit_ptanh(v_in, curve, negated=True)
        assert np.array_equal(alone.eta, batch.eta)

    def test_fit_batch_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(B, n\)"):
            fit_ptanh_batch(np.linspace(0, 1, 9), np.zeros(9))
        with pytest.raises(ValueError, match="at least 5"):
            fit_ptanh_batch(np.linspace(0, 1, 3), np.zeros((2, 3)))

    def test_lm_batch_requires_stacked_inputs(self):
        with pytest.raises(ValueError, match=r"\(B, k\)"):
            levenberg_marquardt_batch(
                lambda x, lanes: x, np.zeros(4), lambda x, lanes: x
            )

    def test_lm_batch_solves_independent_quadratics(self):
        targets = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 5.0]])

        def residual(x, lanes):
            return x - targets[lanes]

        def jacobian(x, lanes):
            return np.broadcast_to(np.eye(2), (len(x), 2, 2))

        result = levenberg_marquardt_batch(residual, np.zeros((3, 2)), jacobian)
        assert result.converged.all()
        assert np.allclose(result.x, targets, atol=1e-8)


@pytest.mark.slow
class TestBuilder:
    def test_results_are_chunk_size_invariant(self):
        reference = build_surrogate_dataset(
            "ptanh", n_points=40, sweep_points=21, seed=3, chunk_size=512
        )
        small_chunks = build_surrogate_dataset(
            "ptanh", n_points=40, sweep_points=21, seed=3, chunk_size=7
        )
        assert np.array_equal(reference.eta, small_chunks.eta)
        assert np.array_equal(reference.omega, small_chunks.omega)
        assert reference.stats == small_chunks.stats

    def test_stats_partition_the_sample(self):
        dataset = build_surrogate_dataset("ptanh", n_points=48, sweep_points=21, seed=3)
        stats = dataset.stats
        assert stats.n_sampled == 48
        assert stats.n_kept == len(dataset)
        assert stats.n_kept + stats.n_dropped == stats.n_sampled

    def test_progress_emits_final_tick(self):
        ticks = []
        build_surrogate_dataset(
            "ptanh",
            n_points=24,
            sweep_points=21,
            seed=3,
            chunk_size=10,
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert ticks[0] == (0, 24)
        assert ticks[-1] == (24, 24)
        done_values = [d for d, _ in ticks]
        assert done_values == sorted(done_values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown circuit kind"):
            build_surrogate_dataset("sigmoid", n_points=8)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            build_surrogate_dataset("ptanh", n_points=8, chunk_size=0)

    def test_failed_lanes_are_counted_in_batched_engine(self, monkeypatch):
        real = dataset_builder.simulate_curve_batch

        def flaky(omega_batch, kind, n_points, model):
            v_in, curves, ok = real(omega_batch, kind, n_points, model)
            ok = ok.copy()
            ok[0] = False
            return v_in, curves, ok

        monkeypatch.setattr(dataset_builder, "simulate_curve_batch", flaky)
        dataset = build_surrogate_dataset(
            "ptanh", n_points=24, sweep_points=21, seed=3, chunk_size=12,
        )
        assert dataset.stats.n_convergence_error == 2  # one per chunk
        assert dataset.stats.n_kept + dataset.stats.n_dropped == 24


class TestQualityGateThresholds:
    """The builder keeps a point exactly at a threshold and drops one ulp past it.

    The sweep and the fit are replaced by stand-ins that hand the builder
    chosen swings and RMSEs, one design per lane.
    """

    MIN_SWING = 0.02
    MAX_RMSE = 0.05
    ETA = np.array([0.5, 0.3, 0.5, 5.0])          # inside the η box

    def build(self, monkeypatch, swings, rmses, etas=None):
        n = len(swings)
        etas = [self.ETA] * n if etas is None else etas
        v_in = np.linspace(0.0, 1.0, 9)
        # Ramps from 0 to v_in[-1] = 1: lane i swings exactly swings[i].
        curves = np.asarray(swings)[:, None] * v_in[None, :]
        fitted = []

        def sweep(omega_batch, kind, n_points, model):
            assert len(omega_batch) == n
            return v_in, curves, np.ones(n, dtype=bool)

        def fit(v, rows, negated=False):
            lanes = [int(np.flatnonzero((curves == row).all(axis=1))[0]) for row in rows]
            fitted.extend(lanes)
            return [
                FitResult(eta=etas[lane], rmse=rmses[lane],
                          swing=float(swings[lane]), converged=True)
                for lane in lanes
            ]

        monkeypatch.setattr(dataset_builder, "simulate_curve_batch", sweep)
        monkeypatch.setattr(dataset_builder, "fit_ptanh_batch", fit)
        dataset = build_surrogate_dataset(
            "ptanh", n_points=n, seed=3, min_swing=self.MIN_SWING,
            max_rmse=self.MAX_RMSE,
        )
        return dataset, fitted

    def test_swing_exactly_at_threshold_is_kept(self, monkeypatch):
        swings = [self.MIN_SWING, np.nextafter(self.MIN_SWING, 0.0)]
        dataset, fitted = self.build(monkeypatch, swings, rmses=[0.0, 0.0])
        assert fitted == [0]                 # the low-swing lane is never fitted
        assert len(dataset) == 1
        assert dataset.stats == BuildStats(n_sampled=2, n_kept=1, n_low_swing=1)

    def test_rmse_exactly_at_threshold_is_kept(self, monkeypatch):
        rmses = [self.MAX_RMSE, np.nextafter(self.MAX_RMSE, 1.0)]
        dataset, fitted = self.build(monkeypatch, [0.6, 0.5], rmses)
        assert fitted == [0, 1]
        assert list(dataset.rmse) == [self.MAX_RMSE]
        assert dataset.stats == BuildStats(n_sampled=2, n_kept=1, n_high_rmse=1)

    def test_drops_land_in_priority_order(self, monkeypatch):
        """Swing before RMSE before the η box; each point in one bucket."""
        out_of_box = np.array([0.5, 0.3, 0.5, 1e3])
        etas = [self.ETA, self.ETA, out_of_box, out_of_box]
        swings = [0.6, np.nextafter(self.MIN_SWING, 0.0), 0.5, 0.4]
        rmses = [0.0, 1.0, np.nextafter(self.MAX_RMSE, 1.0), 0.0]
        dataset, fitted = self.build(monkeypatch, swings, rmses, etas=etas)
        assert fitted == [0, 2, 3]
        assert dataset.stats == BuildStats(
            n_sampled=4, n_kept=1, n_low_swing=1, n_high_rmse=1, n_out_of_bounds=1
        )
        assert np.array_equal(dataset.eta, [self.ETA])


class TestBuildStats:
    def test_dropped_sums_buckets(self):
        stats = BuildStats(
            n_sampled=10,
            n_kept=4,
            n_convergence_error=1,
            n_low_swing=2,
            n_high_rmse=2,
            n_out_of_bounds=1,
        )
        assert stats.n_dropped == 6
