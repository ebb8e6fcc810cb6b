"""A printed layer is assembled in one place: ``repro.core.kernels.layer_forward``.

Training (``LaneNetwork.forward``), Monte-Carlo evaluation
(``network_forward``) and deploy verification all run that function, so
the Eq. 1 crossbar and the circuit η step have exactly one caller in the
package.  Every module under ``src/repro/`` is parsed, not imported (the
``callers`` fixture), so a second assembly fails here even when nothing
executes it.
"""

import pytest


@pytest.mark.parametrize("kernel", ["crossbar_fwd", "circuit_eta_fwd"])
def test_layer_is_assembled_once(kernel, callers):
    assert callers(kernel) == {"repro.core.kernels.layer_forward"}
