"""The DC operating point has one solver: ``repro.spice.batch.solve_dc_batch``.

Sweeps, surrogate datasets, deploy verification and the static-power
estimate all run it; a one-netlist solve is a batch of one.  Any second
Newton loop over EGTs would have to evaluate the device model, so the
kernel ``id_gm_gds`` may have only that caller.  Every module under
``src/repro/`` is parsed, not imported (the ``callers`` fixture), so a
second solver fails here even when nothing executes it.
"""

import importlib.util


def test_device_model_has_one_caller(callers):
    assert callers("id_gm_gds") == {"repro.spice.batch.solve_dc_batch"}


def test_no_one_point_solver_module():
    assert importlib.util.find_spec("repro.spice.mna") is None
