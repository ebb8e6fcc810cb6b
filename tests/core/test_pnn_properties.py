"""Property-based invariants of the printed network forward pass."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import KernelNetwork, PrintedNeuralNetwork, VariationModel, kernels
from repro.surrogate import AnalyticSurrogate

SURROGATES = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


def build_pnn(n_in, n_hidden, n_out, seed):
    return PrintedNeuralNetwork(
        [n_in, n_hidden, n_out], SURROGATES, rng=np.random.default_rng(seed)
    )


class TestForwardInvariants:
    @given(
        n_in=st.integers(1, 6),
        n_out=st.integers(2, 4),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_outputs_finite_and_rail_bounded(self, n_in, n_out, seed):
        """Activation outputs are η1 ± η2 — within ±2 V of the rails."""
        pnn = build_pnn(n_in, 3, n_out, seed)
        x = np.random.default_rng(seed).uniform(size=(8, n_in))
        out = pnn.snapshot().forward(x)
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) <= 2.0)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_all_zero_column_stays_finite(self, seed):
        """A column whose conductances all snap to zero must not blow up."""
        pnn = build_pnn(3, 3, 2, seed)
        pnn.layers[0].theta[:, 0] = 1e-9   # below the printable floor
        out = pnn.snapshot().forward(np.random.default_rng(seed).uniform(size=(4, 3)))
        assert np.all(np.isfinite(out))

    @given(seed=st.integers(0, 30), epsilon=st.sampled_from([0.05, 0.1, 0.2]))
    @settings(max_examples=15, deadline=None)
    def test_variation_forward_finite(self, seed, epsilon):
        pnn = build_pnn(3, 3, 2, seed)
        out = pnn.snapshot().forward(
            np.random.default_rng(seed).uniform(size=(5, 3)),
            variation=VariationModel(epsilon, seed=seed),
            n_mc=4,
        )
        assert np.all(np.isfinite(out))

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_forward_deterministic_without_variation(self, seed):
        pnn = build_pnn(2, 3, 2, seed)
        x = np.random.default_rng(seed).uniform(size=(6, 2))
        assert np.array_equal(pnn.snapshot().forward(x), pnn.snapshot().forward(x))

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_batch_rows_independent(self, seed):
        """Each row's output must not depend on the rest of the batch."""
        pnn = build_pnn(2, 3, 2, seed)
        x = np.random.default_rng(seed).uniform(size=(5, 2))
        design = pnn.snapshot()
        full = design.forward(x)[0]
        single = design.forward(x[2:3])[0, 0]
        assert np.allclose(full[2], single)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_crossbar_output_convex_for_positive_theta(self, seed):
        """With all-positive θ, V_z is a convex combination of inputs ∪ {0, 1}."""
        pnn = build_pnn(3, 3, 2, seed)
        layer = pnn.layers[0]
        layer.theta = np.abs(layer.theta)
        layer.apply_activation = False
        x = np.random.default_rng(seed).uniform(size=(1, 7, 3))
        design = pnn.snapshot()
        printed = design.layers[0]
        v_z, _ = kernels.layer_forward(
            x, printed.theta, printed.act_omega, printed.neg_omega, printed.apply_activation,
            design.act_surrogate, design.neg_surrogate,
        )
        assert np.all(v_z >= -1e-9)
        assert np.all(v_z <= 1.0 + 1e-9)

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_gradients_finite(self, seed):
        pnn = build_pnn(3, 3, 2, seed)
        net = KernelNetwork.from_pnn(pnn)
        x = np.random.default_rng(seed).uniform(size=(6, 3))
        y = np.random.default_rng(seed).integers(0, 2, size=6)
        _, grads = net.loss_and_grads(KernelNetwork.extract_arrays(pnn), x, y)
        for layer in grads:
            for grad in (layer.theta, layer.w_act, layer.w_neg):
                assert grad is not None
                assert np.all(np.isfinite(grad))
