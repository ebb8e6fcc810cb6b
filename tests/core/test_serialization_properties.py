"""Property test: any design round-trips through save/load bit-exactly."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import PrintedNeuralNetwork
from repro.core.serialization import load_pnn, save_pnn
from repro.surrogate import AnalyticSurrogate

SURROGATES = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


@given(
    n_in=st.integers(1, 6),
    n_hidden=st.integers(1, 5),
    n_out=st.integers(2, 5),
    per_neuron=st.booleans(),
    act_on_output=st.booleans(),
    seed=st.integers(0, 100),
)
@settings(max_examples=20, deadline=None)
def test_save_load_round_trip(tmp_path_factory, n_in, n_hidden, n_out,
                              per_neuron, act_on_output, seed):
    pnn = PrintedNeuralNetwork(
        [n_in, n_hidden, n_out], SURROGATES,
        per_neuron_activation=per_neuron,
        activation_on_output=act_on_output,
        rng=np.random.default_rng(seed),
    )
    path = tmp_path_factory.mktemp("designs") / "design.npz"
    save_pnn(pnn, path)
    restored = load_pnn(path, SURROGATES)

    for (name_a, param_a), (name_b, param_b) in zip(
        pnn.named_parameters(), restored.named_parameters()
    ):
        assert name_a == name_b
        assert np.array_equal(param_a.data, param_b.data)

    x = np.random.default_rng(seed + 1).uniform(size=(3, n_in))
    assert np.array_equal(pnn.snapshot().forward(x), restored.snapshot().forward(x))
