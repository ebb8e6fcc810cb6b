"""Adam: convergence, parameter groups, state handling."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.nn.module import Parameter
from repro.optim import Adam, LaneAdam, RawParameter


def quadratic_loss(param: Parameter, target: np.ndarray) -> Tensor:
    return F.mse_loss(param, target)


def reference_adam(start, grads, lr, betas, eps):
    """Algorithm 1 of Kingma & Ba (2014), written out for one array."""
    beta1, beta2 = betas
    x, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def minimize(optimizer, param, target, steps=300):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = quadratic_loss(param, target)
        loss.backward()
        optimizer.step()
    return param.data


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(3))
        target = np.array([1.0, -2.0, 0.5])
        minimize(Adam([param], lr=0.05), param, target, steps=600)
        assert np.allclose(param.data, target, atol=1e-4)

    def test_first_step_size_is_lr(self):
        # Adam's bias correction makes the very first update ≈ lr·sign(grad).
        param = Parameter(np.array([0.0]))
        optimizer = Adam([param], lr=0.01)
        quadratic_loss(param, np.array([1.0])).backward()
        optimizer.step()
        assert np.isclose(abs(param.data[0]), 0.01, rtol=1e-6)

    def test_scale_invariance_of_updates(self):
        # Tiny but consistent gradients should still move parameters ~lr.
        p1, p2 = Parameter(np.array([0.0])), Parameter(np.array([0.0]))
        opt1, opt2 = Adam([p1], lr=0.01), Adam([p2], lr=0.01)
        for _ in range(10):
            for p, opt, scale in ((p1, opt1, 1.0), (p2, opt2, 1e-6)):
                opt.zero_grad()
                p.grad = np.array([scale])
                opt.step()
        # sqrt(v̂) ≈ 1e-6 is comparable to eps = 1e-8, costing ~1% step size.
        assert np.isclose(p1.data[0], p2.data[0], rtol=2e-2)

    def test_skips_params_without_grad(self):
        param = Parameter(np.ones(2))
        Adam([param], lr=0.1).step()  # no backward happened
        assert np.allclose(param.data, [1.0, 1.0])

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.999))

    def test_rejects_non_parameters(self):
        with pytest.raises(TypeError):
            Adam([Tensor(np.zeros(1), requires_grad=True)], lr=0.1)

    @pytest.mark.parametrize(
        "lr,betas,eps", [(1e-3, (0.9, 0.999), 1e-8), (0.05, (0.5, 0.9), 1e-4), (0.2, (0.0, 0.3), 1e-6)]
    )
    def test_matches_the_reference_update(self, lr, betas, eps):
        rng = np.random.default_rng(4)
        start = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(12)]
        param = Parameter(start)
        optimizer = Adam([param], lr=lr, betas=betas, eps=eps)
        for grad in grads:
            optimizer.zero_grad()
            param.grad = grad
            optimizer.step()
        np.testing.assert_allclose(
            param.data, reference_adam(start, grads, lr, betas, eps), rtol=1e-12, atol=1e-15)

    def test_zero_betas_take_sign_steps(self):
        param = Parameter(np.zeros(3))
        optimizer = Adam([param], lr=0.1, betas=(0.0, 0.0))
        param.grad = np.array([5.0, -0.01, 300.0])
        optimizer.step()
        np.testing.assert_allclose(param.data, [-0.1, 0.1, -0.1], rtol=1e-6)

    def test_each_parameter_counts_its_own_steps(self):
        # b gets a gradient only every other step; its bias correction must
        # use its own step count, not the optimizer's.
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        optimizer = Adam([a, b], lr=0.05)
        rng = np.random.default_rng(6)
        grads_a, grads_b = [], []
        for step in range(10):
            optimizer.zero_grad()
            a.grad = rng.normal(size=2)
            grads_a.append(a.grad)
            if step % 2:
                b.grad = rng.normal(size=2)
                grads_b.append(b.grad)
            optimizer.step()
        for param, grads in ((a, grads_a), (b, grads_b)):
            np.testing.assert_allclose(
                param.data, reference_adam(np.zeros(2), grads, 0.05, (0.9, 0.999), 1e-8),
                rtol=1e-12, atol=1e-15)

    def test_accepts_a_generator_of_parameters(self):
        # train_surrogate passes model.parameters(), a one-shot generator.
        params = [Parameter(np.zeros(2)), Parameter(np.zeros(3))]
        optimizer = Adam(p for p in params)
        assert optimizer.param_groups[0]["params"] == params
        for p in params:
            p.grad = np.ones_like(p.data)
        optimizer.step()
        assert all(np.all(p.data < 0) for p in params)

    def test_empty_parameter_list_steps_without_error(self):
        optimizer = Adam([], lr=0.1)
        optimizer.zero_grad()
        optimizer.step()
        assert [len(group["params"]) for group in optimizer.param_groups] == [0]

    @pytest.mark.parametrize("betas", [(-0.1, 0.999), (0.9, 1.0), (0.9, -0.5)])
    def test_rejects_betas_outside_the_unit_interval(self, betas):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=betas)


class TestParameterGroups:
    def test_per_group_learning_rates(self):
        fast = Parameter(np.array([0.0]))
        slow = Parameter(np.array([0.0]))
        optimizer = Adam(
            [{"params": [fast], "lr": 0.1}, {"params": [slow], "lr": 0.001}]
        )
        for _ in range(3):
            optimizer.zero_grad()
            loss = quadratic_loss(fast, np.array([1.0])) + quadratic_loss(
                slow, np.array([1.0])
            )
            loss.backward()
            optimizer.step()
        assert abs(fast.data[0]) > abs(slow.data[0]) * 10

    def test_groups_share_defaults(self):
        p = Parameter(np.zeros(1))
        optimizer = Adam([{"params": [p]}], lr=0.5)
        assert optimizer.param_groups[0]["lr"] == 0.5

    def test_groups_override_betas_and_eps(self):
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        optimizer = Adam(
            [{"params": [a]}, {"params": [b], "betas": (0.5, 0.9), "eps": 1e-3}], lr=0.05
        )
        assert optimizer.param_groups[0]["betas"] == (0.9, 0.999)
        assert optimizer.param_groups[1]["eps"] == 1e-3
        grads = [np.array([0.3, -1.0]), np.array([0.2, 0.4]), np.array([-0.1, 0.9])]
        for grad in grads:
            optimizer.zero_grad()
            a.grad, b.grad = grad.copy(), grad.copy()
            optimizer.step()
        np.testing.assert_allclose(
            a.data, reference_adam(np.zeros(2), grads, 0.05, (0.9, 0.999), 1e-8), rtol=1e-12)
        np.testing.assert_allclose(
            b.data, reference_adam(np.zeros(2), grads, 0.05, (0.5, 0.9), 1e-3), rtol=1e-12)

    def test_groups_reject_non_parameters(self):
        with pytest.raises(TypeError):
            Adam([{"params": [Parameter(np.zeros(1))]}, {"params": [np.zeros(1)]}])

    def test_zero_grad_covers_all_groups(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        optimizer = Adam([{"params": [a]}, {"params": [b]}], lr=0.1)
        a.grad = np.ones(1)
        b.grad = np.ones(1)
        optimizer.zero_grad()
        assert a.grad is None and b.grad is None


class TestRawParameter:
    """Graph-free parameters: the lane training engine's update targets."""

    def test_accepted_by_optimizers(self):
        raw = RawParameter(np.zeros(3))
        Adam([raw], lr=0.1)
        LaneAdam([{"params": [raw], "lr": 0.1}])

    def test_adam_updates_match_parameter_updates(self):
        # Identical hand-set gradients must produce identical trajectories
        # through the Tensor-wrapped and the raw array paths.
        taped = Parameter(np.array([0.3, -0.2]))
        raw = RawParameter(np.array([0.3, -0.2]))
        opt_taped = Adam([taped], lr=0.05)
        opt_raw = Adam([raw], lr=0.05)
        rng = np.random.default_rng(0)
        for _ in range(25):
            grad = rng.normal(size=2)
            opt_taped.zero_grad()
            opt_raw.zero_grad()
            taped.grad = grad.copy()
            raw.grad = grad.copy()
            opt_taped.step()
            opt_raw.step()
        np.testing.assert_array_equal(raw.data, taped.data)

    def test_none_grad_skipped(self):
        raw = RawParameter(np.ones(2))
        Adam([raw], lr=0.5).step()
        np.testing.assert_array_equal(raw.data, np.ones(2))

    def test_zero_grad_resets(self):
        raw = RawParameter(np.ones(2))
        raw.grad = np.ones(2)
        optimizer = Adam([raw], lr=0.1)
        optimizer.zero_grad()
        assert raw.grad is None
        assert raw.shape == (2,)
