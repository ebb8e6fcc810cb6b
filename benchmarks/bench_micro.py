"""Microbenchmarks of the substrates: circuit solver, autodiff, pNN kernels.

These track the per-operation costs that every experiment above is built
from; regressions here multiply through the whole harness.  The kernel
hot paths (transfer kernel, one MC-evaluation chunk, one training step)
are timed individually rather than only through end-to-end runs.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.circuits.ptanh import build_ptanh_netlist
from repro.core import PrintedNeuralNetwork, VariationModel, kernels, snapshot_params
from repro.core.evaluation import draw_variation_samples
from repro.core.grad_kernels import KernelNetwork, transfer_fwd
from repro.spice import solve_dc
from repro.surrogate import AnalyticSurrogate, sample_design_points

OMEGA = np.array([200.0, 80.0, 100e3, 40e3, 100e3, 500.0, 30.0])


def test_micro_mna_operating_point(benchmark):
    netlist = build_ptanh_netlist(OMEGA, vin=0.5)
    result = benchmark(lambda: solve_dc(netlist))
    assert 0.0 <= result.voltage("out") <= 1.0


def test_micro_autodiff_mlp_step(benchmark):
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.normal(size=(10, 32)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(32, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(128, 10)))

    def step():
        from repro.autograd import functional as F

        w1.zero_grad()
        w2.zero_grad()
        loss = (F.tanh(x @ w1) @ w2).mean()
        loss.backward()
        return loss

    benchmark(step)
    assert w1.grad is not None


@pytest.fixture(scope="module")
def pnn():
    surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
    return PrintedNeuralNetwork([8, 3, 3], surrogates, rng=np.random.default_rng(0))


def test_micro_surrogate_eta(benchmark):
    surrogate = AnalyticSurrogate("ptanh")
    omega = sample_design_points(64, seed=0)
    eta = benchmark(lambda: surrogate.eta_from_omega(omega))
    assert eta.shape == (64, 4)


def test_micro_variation_sampling(benchmark):
    model = VariationModel(0.1, seed=0)
    sample = benchmark(lambda: model.sample(20, (10, 3)))
    assert sample.shape == (20, 10, 3)


# --------------------------------------------------------------------- #
# per-kernel timings of the numpy hot paths                             #
# --------------------------------------------------------------------- #


def test_micro_transfer_kernel(benchmark):
    # Eq. 2/3 tanh transfer — the single hottest kernel of both paths.
    rng = np.random.default_rng(0)
    voltage = rng.uniform(0.0, 1.0, (20, 2048, 10))
    eta = rng.uniform(0.1, 1.0, (20, 1, 4))
    out = benchmark(lambda: transfer_fwd(voltage, eta, "ptanh")[0])
    assert out.shape == voltage.shape


def test_micro_eval_chunk(benchmark, pnn):
    # One batch_mc chunk of the MC-evaluation loop.
    params = snapshot_params(pnn)
    x = np.random.default_rng(1).uniform(size=(1024, 8))
    epsilons = draw_variation_samples(params, VariationModel(0.1, seed=4), n_test=20)
    out = benchmark(lambda: kernels.network_forward(params, x, epsilons=epsilons))
    assert out.shape == (20, 1024, 3)


def test_micro_train_step(benchmark, pnn):
    # One fwd+bwd kernel-engine step (loss + raw-parameter gradients).
    net = KernelNetwork.from_pnn(pnn)
    arrays = KernelNetwork.extract_arrays(pnn)
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(512, 8))
    y = rng.integers(0, 3, size=512)
    epsilons = draw_variation_samples(
        snapshot_params(pnn), VariationModel(0.1, seed=5), n_test=20
    )
    value, grads = benchmark(
        lambda: net.loss_and_grads(arrays, x, y, epsilons=epsilons)
    )
    assert np.isfinite(value) and grads[0].theta is not None
