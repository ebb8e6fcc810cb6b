"""Property test: any design round-trips through both archive formats bit-exactly.

``save_params``/``load_params`` is the self-contained snapshot ``cli export``
reads; ``save_design``/``load_design`` is the design-only archive the result
cache stores.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PrintedNeuralNetwork, snapshot_params
from repro.core.serialization import load_design, load_params, save_design, save_params
from repro.surrogate import AnalyticSurrogate

SURROGATES = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))

FORMATS = {
    "params": lambda params, path: load_params(
        save_params(params, path, surrogates=SURROGATES), SURROGATES, strict_fingerprint=True
    ),
    "design": lambda params, path: load_design(
        save_design(params, path, SURROGATES), SURROGATES
    ),
}


@pytest.mark.parametrize("archive", sorted(FORMATS))
@given(
    n_in=st.integers(1, 6),
    n_hidden=st.integers(1, 5),
    n_out=st.integers(2, 5),
    per_neuron=st.booleans(),
    act_on_output=st.booleans(),
    seed=st.integers(0, 100),
)
@settings(max_examples=20, deadline=None)
def test_save_load_round_trip(tmp_path_factory, archive, n_in, n_hidden, n_out,
                              per_neuron, act_on_output, seed):
    params = snapshot_params(PrintedNeuralNetwork(
        [n_in, n_hidden, n_out], SURROGATES,
        per_neuron_activation=per_neuron,
        activation_on_output=act_on_output,
        rng=np.random.default_rng(seed),
    ))
    restored = FORMATS[archive](params, tmp_path_factory.mktemp("designs") / "design.npz")

    assert restored.layer_sizes == params.layer_sizes
    assert restored.per_neuron_activation == per_neuron
    assert restored.activation_on_output == act_on_output
    assert restored.content_digest() == params.content_digest()
    x = np.random.default_rng(seed + 1).uniform(size=(3, n_in))
    assert np.array_equal(restored.forward(x), params.forward(x))
