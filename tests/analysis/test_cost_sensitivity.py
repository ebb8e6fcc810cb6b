"""Cost model and sensitivity analysis."""

import numpy as np
import pytest

from repro.analysis import (
    estimate_cost,
    eta_sensitivity,
    variation_attribution,
)
from repro.analysis.sensitivity import _SelectiveVariation, format_sensitivity
from repro.core import PrintedNeuralNetwork, TrainConfig, VariationModel, train_pnn
from repro.core.kernels import sample_layer_epsilons
from repro.exporting import deploy_report, design_report
from repro.surrogate import AnalyticSurrogate

#: ``variation_attribution`` per group as (mean, std) ``float.hex`` on the
#: designs of ``attribution_design``, recorded while the selective sampler
#: still told the groups apart by counting calls around the (θ, act, neg)
#: cycle.  Drawing by role must reproduce them exactly.
RECORDED_ATTRIBUTION = {
    ("analytic", False): {
        "theta": ("0x1.c28f5c28f5c2ap-1", "0x1.ff9719b5589a6p-6"),
        "activation": ("0x1.c666666666666p-1", "0x1.12c49dd0cc1edp-6"),
        "negweight": ("0x1.ccccccccccccdp-1", "0x0.0p+0"),
        "all": ("0x1.ca3d70a3d70a5p-1", "0x1.32843e22e3d01p-6"),
    },
    ("analytic", True): {
        "theta": ("0x1.d5c28f5c28f5bp-1", "0x1.e65f80540e197p-6"),
        "activation": ("0x1.bd70a3d70a3d8p-1", "0x1.3fe867550ee58p-4"),
        "negweight": ("0x1.dc28f5c28f5c3p-1", "0x1.eb851eb851ea6p-7"),
        "all": ("0x1.bd70a3d70a3d6p-1", "0x1.56155c7c0ba02p-4"),
    },
    ("mlp", True): {
        "theta": ("0x1.ccccccccccccep-1", "0x1.c0b1bee5a6d8bp-6"),
        "activation": ("0x1.c666666666666p-1", "0x1.1ee71dd3a9b5cp-4"),
        "negweight": ("0x1.c000000000000p-1", "0x0.0p+0"),
        "all": ("0x1.ca3d70a3d70a3p-1", "0x1.2cfe48e1d3e95p-5"),
    },
}


def attribution_design(surrogates, per_neuron):
    """A [3, 3, 2] network briefly trained on a linearly separable split."""
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(60, 3))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0.8).astype(np.int64)
    pnn = PrintedNeuralNetwork(
        [3, 3, 2], surrogates, per_neuron_activation=per_neuron, rng=np.random.default_rng(0)
    )
    train_pnn(
        pnn, x[:40], y[:40], x[40:], y[40:],
        TrainConfig(max_epochs=30, patience=30, epsilon=0.05, n_mc_train=4, seed=2),
    )
    return pnn


@pytest.fixture
def pnn():
    surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
    return PrintedNeuralNetwork([3, 3, 2], surrogates, rng=np.random.default_rng(0))


class TestCost:
    def test_counts_consistent_with_report(self, pnn):
        cost = estimate_cost(pnn)
        report = design_report(pnn)
        # Crossbar resistors plus 5 per nonlinear circuit instance.
        assert cost.n_resistors >= report.total_printed_resistors
        assert cost.n_transistors % 2 == 0        # two EGTs per circuit
        assert cost.n_transistors >= 2 * 2         # at least the activations

    def test_positive_area_and_power(self, pnn):
        cost = estimate_cost(pnn)
        assert cost.area_mm2 > 0
        assert cost.static_power_uw > 0

    def test_fewer_devices_when_no_negative_weights(self, pnn):
        for layer in pnn.layers:
            layer.theta = np.abs(layer.theta)
        cost = estimate_cost(pnn)
        assert cost.n_negweight_circuits == 0

    def test_summary_readable(self, pnn):
        text = estimate_cost(pnn).summary()
        assert "mm²" in text and "µW" in text


class TestRecordedStaticPower:
    """Power and area equal the one-point-solver recordings bit for bit.

    Each layer's circuits are one batched DC solve; the recipe is in the
    docstring of ``tests/spice/test_plan_batch.py`` (``cost/...``).
    """

    @staticmethod
    def design(name):
        surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
        if name == "shared":
            return PrintedNeuralNetwork([3, 3, 2], surrogates, rng=np.random.default_rng(0))
        return PrintedNeuralNetwork(
            [6, 3, 4], surrogates, per_neuron_activation=True, rng=np.random.default_rng(1)
        )

    @pytest.mark.parametrize("name", ["shared", "per_neuron"])
    def test_matches_recording(self, name, scalar_solver_reference):
        pnn = self.design(name)
        cost = estimate_cost(pnn)
        report = deploy_report(pnn, verify=False)
        assert cost.n_negweight_circuits > 0   # negation power is counted too
        for call, result in (("estimate_cost", cost), ("deploy_report", report)):
            for field in ("static_power_uw", "area_mm2"):
                recorded = scalar_solver_reference[f"cost/{name}/{call}/{field}"]
                assert getattr(result, field) == float(recorded), (call, field)

    def test_unconverged_circuit_draws_no_power(self, pnn, monkeypatch):
        """A circuit whose Newton iteration fails counts as 0 W."""
        from repro.analysis import cost as cost_module
        from repro.spice import solve_dc_batch

        def capped(*args, **kwargs):
            return solve_dc_batch(*args, max_iter=1, **kwargs)

        monkeypatch.setattr(cost_module, "solve_dc_batch", capped)
        report = design_report(pnn)
        act_power, neg_power = cost_module.layer_circuit_power(report.layers[0])
        assert np.all(act_power == 0.0) and neg_power == 0.0


class TestEtaSensitivity:
    def test_jacobian_shape(self, pnn):
        omega = pnn.snapshot().layers[0].act_omega[0]
        jacobian = eta_sensitivity(pnn.act_surrogate, omega)
        assert jacobian.shape == (4, 7)
        assert np.all(np.isfinite(jacobian))

    def test_matches_finite_difference(self, pnn):
        surrogate = pnn.act_surrogate
        omega = pnn.snapshot().layers[0].act_omega[0]
        jacobian = eta_sensitivity(surrogate, omega)
        # Check one representative entry: ∂η3/∂ln R2 (the divider ratio
        # directly shifts the trip point).
        h = 1e-5 * omega[1]
        plus, minus = omega.copy(), omega.copy()
        plus[1] += h
        minus[1] -= h
        numeric = (
            (surrogate.eta_from_omega(plus[None])[0, 2] - surrogate.eta_from_omega(minus[None])[0, 2])
            / (2 * h)
            * omega[1]
        )
        assert jacobian[2, 1] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_trip_point_dominated_by_divider(self, pnn):
        """η3 must be most sensitive to the input divider (R1/R2)."""
        surrogate = pnn.act_surrogate
        omega = pnn.snapshot().layers[0].act_omega[0]
        jacobian = np.abs(eta_sensitivity(surrogate, omega))
        divider_sensitivity = jacobian[2, 0] + jacobian[2, 1]
        assert divider_sensitivity > jacobian[2, 4]   # ≫ R5's influence

    def test_format_table(self, pnn):
        omega = pnn.snapshot().layers[0].act_omega[0]
        jacobian = eta_sensitivity(pnn.act_surrogate, omega)
        text = format_sensitivity(jacobian)
        assert "eta3" in text and "R1" in text


class TestVariationAttribution:
    def test_groups_covered(self, pnn):
        x = np.random.default_rng(0).uniform(size=(40, 3))
        y = np.random.default_rng(1).integers(0, 2, size=40)
        results = variation_attribution(pnn, x, y, epsilon=0.1, n_test=10, seed=0)
        assert [r.group for r in results] == ["theta", "activation", "negweight", "all"]

    def test_all_group_at_least_as_disruptive(self, pnn):
        x = np.random.default_rng(2).uniform(size=(60, 3))
        y = np.random.default_rng(3).integers(0, 2, size=60)
        results = {r.group: r for r in variation_attribution(
            pnn, x, y, epsilon=0.15, n_test=20, seed=1
        )}
        single_max = max(
            results[g].std for g in ("theta", "activation", "negweight")
        )
        assert results["all"].std >= single_max - 0.03

    def test_selective_variation_cycle(self):
        selective = _SelectiveVariation(0.1, "activation", seed=0)
        theta, act, neg = sample_layer_epsilons(selective, 3, (4, 2), 1, 1)
        assert np.all(theta.scale == 1.0)
        assert np.any(act.scale != 1.0)
        assert np.all(neg.scale == 1.0)
        # Only the group's draws consume the stream.
        np.testing.assert_array_equal(act.scale, VariationModel(0.1, seed=0).sample(3, (1, 7)))

    @pytest.mark.parametrize("surrogate,per_neuron", sorted(RECORDED_ATTRIBUTION))
    def test_matches_recording(self, analytic_surrogates, tiny_bundle, surrogate, per_neuron):
        surrogates = analytic_surrogates if surrogate == "analytic" else tiny_bundle
        pnn = attribution_design(surrogates, per_neuron)
        x = np.random.default_rng(0).uniform(size=(40, 3))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0.8).astype(np.int64)
        results = variation_attribution(pnn, x, y, epsilon=0.1, n_test=10, seed=0)
        assert {r.group: (r.mean.hex(), r.std.hex()) for r in results} == (
            RECORDED_ATTRIBUTION[(surrogate, per_neuron)]
        )

    def test_selective_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            _SelectiveVariation(0.1, "everything", seed=0)
