"""The SPICE characterization path against recorded scalar-path values.

The batched chain (``dc_sweep_batch`` → ``simulate_*_curve_batch`` →
``fit_ptanh_batch`` → the chunked loop of ``build_surrogate_dataset``) is
the only implementation of the paper's Fig. 3 pipeline.  It used to have a
one-design-at-a-time twin: a DC sweep doing one ``solve_dc`` per step, a
scalar dataset loop, and scalar Levenberg-Marquardt and initial-guess
helpers.  The batched chain matched that twin bit for bit; its values were
recorded as ``float.hex`` in ``golden/characterization_reference.json``
before it was deleted, and the tests compare against them exactly.

Recipe, run on the scalar path:

- ``dataset/<kind>/{omega,eta,rmse,stats}``:
  ``build_surrogate_dataset(kind, n_points=48, sweep_points=21, seed=3)``
  for ``kind`` in ptanh and negweight (the scalar loop; ``stats`` holds
  the six ``BuildStats`` counters).
- ``curves/<kind>/<n>/{v_in,v_out}``: ``simulate_<kind>_curve(omega,
  n_points=n)`` as a one-``solve_dc``-per-step sweep of each of the 12
  designs ``sample_design_points(12, seed=7)`` (ptanh) and
  ``sample_design_points(12, seed=9)`` (negweight), at n = 21 and 41.
  Checked in ``tests/circuits/test_batch_curves.py``.
- ``initial_guess``: the scalar geometry-based start point of the three
  curves of ``tests/surrogate/test_batch_build.py::
  test_initial_guess_batch_matches_scalar_rows``.
- ``figures/<call>``: :func:`arrays_sha256` of the arrays of
  ``figure2_series(5, 41, 3)`` and ``figure4_left(5)`` when both looped
  over single-curve scalar sweeps.

Do not loosen these comparisons: a failure means the sweep, the fit or
the filter chain changed its arithmetic.
"""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.experiments.figures import figure2_series, figure4_left
from repro.experiments.report import HEALTH_RULES, check_health
from repro.surrogate.dataset_builder import BuildStats, build_surrogate_dataset

KINDS = ("ptanh", "negweight")


def arrays_sha256(arrays):
    """sha256 over ``name, dtype, shape, bytes`` of each array, by name."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
        digest.update(name.encode())
        digest.update(array.dtype.str.encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def assert_matches_recording(dataset, recorded, kind):
    assert np.array_equal(dataset.omega, recorded[f"dataset/{kind}/omega"])
    assert np.array_equal(dataset.eta, recorded[f"dataset/{kind}/eta"])
    assert np.array_equal(dataset.rmse, recorded[f"dataset/{kind}/rmse"])
    assert dataset.stats == BuildStats(**recorded[f"dataset/{kind}/stats"])


@pytest.mark.parametrize("kind", KINDS)
def test_dataset_slice_matches_recording(kind, characterization_reference):
    dataset = build_surrogate_dataset(kind, n_points=48, sweep_points=21, seed=3)
    assert_matches_recording(dataset, characterization_reference, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_traced_build_matches_recording_and_converges(
    kind, characterization_reference, tmp_path
):
    """Telemetry never touches the numbers, and no batched lane fails.

    The traced build must equal the (untraced) recording, record at least
    one ``spice.solve_dc_batch`` event, drop no design for a Newton
    convergence failure and pass every health rule: a regression in
    batched Newton convergence fails here.
    """
    telemetry.enable(tmp_path / "tel")
    try:
        dataset = build_surrogate_dataset(
            kind, n_points=48, sweep_points=21, seed=3, chunk_size=16
        )
    finally:
        telemetry.disable()
    assert_matches_recording(dataset, characterization_reference, kind)

    events = telemetry.read_events(tmp_path / "tel")
    summary = telemetry.summarize_events(events)
    assert summary["events"]["spice.solve_dc_batch"] > 0
    assert summary["attrs"]["surrogate.build"]["n_convergence_error"]["sum"] == 0
    assert dict((rule.label, value) for rule, value in check_health(summary)) == {
        rule.label: 0 for rule in HEALTH_RULES
    }


def test_figure_series_match_recorded_digests(characterization_reference):
    fig2 = figure2_series(5, 41, 3)
    fig4 = figure4_left(5)
    assert arrays_sha256({
        "omegas": fig2.omegas,
        "v_in": fig2.v_in,
        "ptanh_curves": fig2.ptanh_curves,
        "negweight_curves": fig2.negweight_curves,
    }) == characterization_reference["figures/figure2_series(5, 41, 3)"]
    assert arrays_sha256({
        "v_in": fig4.v_in,
        "v_out": fig4.v_out,
        "eta": fig4.eta,
        "fitted": fig4.fitted,
        "rmse": fig4.rmse,
    }) == characterization_reference["figures/figure4_left(5)"]
