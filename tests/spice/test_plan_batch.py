"""Compiled stamp plans and the batched Newton-Raphson solver.

``solve_dc_batch`` is the only DC solver.  It replaced a one-point solver
(one netlist per call, the same float ops in the same order) that it
matched bit for bit.  That solver's outputs were recorded as ``float.hex``
in ``golden/scalar_solver_reference.json`` before it was deleted, and the
tests compare the batched lanes against them exactly.

Recipe, run on the one-point solver (``solve_dc(netlist)``: gmin 1e-12 S,
tolerance 1e-10 V, damping 0.5 V, ``max_iter=200``, every node starting
at 0.5 V unless warm-started) on ``build_ptanh_netlist(omega, vin)``,
with node voltages in ``ptanh_stamp_plan().nodes`` order (``nodes``) and
source currents in its ``source_names`` order (``source_names``):

- ``qmc24/voltages``: the node voltages of the 24 designs
  ``sample_design_points(24, seed=11)`` at ``vin=0``.
- ``qmc8/{voltages,source_currents,iterations}``: the 8 designs
  ``sample_design_points(8, seed=5)`` at ``vin=0``.
- ``vin/output``: the ``out`` voltage at ``OMEGA`` for ``vin`` in
  ``np.linspace(0, 1, 5)``.
- ``warm/{cold_iterations,warm_iterations,voltages}``: at ``OMEGA`` and
  ``vin=0``, the cold solve's iteration count, then the iteration count
  and node voltages of a solve warm-started from the cold voltages.
- ``capped/{cap,converged,voltages}``: the 12 designs
  ``sample_design_points(12, seed=2)`` solved with ``max_iter=cap``;
  ``cap`` is ``(min + max) // 2`` of their uncapped iteration counts,
  ``converged`` is False where the solve raised ``ConvergenceError``, and
  ``voltages`` holds the converged designs' rows in order.
- ``template/voltages``: ``_TEMPLATE_OMEGA`` at ``vin=0``.
- ``cost/<design>/<call>/{static_power_uw,area_mm2}``: ``estimate_cost(pnn)``
  and ``deploy_report(pnn, verify=False)`` when every nonlinear circuit's
  static power was one one-point solve at ``vin=0.5``, for ``shared =
  PrintedNeuralNetwork([3, 3, 2], ANALYTIC, rng=np.random.default_rng(0))``
  and ``per_neuron = PrintedNeuralNetwork([6, 3, 4], ANALYTIC,
  per_neuron_activation=True, rng=np.random.default_rng(1))``, where
  ``ANALYTIC = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))``.
  Checked in ``tests/analysis/test_cost_sensitivity.py``.

Do not loosen these comparisons: a failure means the solver changed its
arithmetic.
"""

import numpy as np
import pytest

from repro.circuits.ptanh import (
    PTANH_NODES,
    build_ptanh_netlist,
    ptanh_param_batch,
    ptanh_stamp_plan,
)
from repro.spice import (
    Netlist,
    ParamBatch,
    compile_netlist,
    solve_dc_batch,
)
from repro.spice.egt import EGTModel, id_gm_gds
from repro.surrogate.sampling import sample_design_points

OMEGA = np.array([200.0, 80.0, 100e3, 40e3, 100e3, 500.0, 30.0])


class TestCompileNetlist:
    def test_plan_mirrors_netlist_structure(self):
        netlist = build_ptanh_netlist(OMEGA)
        plan = compile_netlist(netlist)
        assert plan.nodes == tuple(netlist.nodes())
        assert plan.n_resistors == len(netlist.resistors)
        assert plan.n_sources == len(netlist.sources)
        assert plan.n_egts == len(netlist.transistors)
        assert plan.size == plan.n_nodes + plan.n_sources
        assert plan.resistor_names == tuple(r.name for r in netlist.resistors)

    def test_device_columns_follow_insertion_order(self):
        netlist = build_ptanh_netlist(OMEGA)
        plan = compile_netlist(netlist)
        for j, resistor in enumerate(netlist.resistors):
            assert plan.res_resistance[j] == resistor.resistance
            assert plan.res_a[j] == plan.node_index(resistor.node_a)
            assert plan.res_b[j] == plan.node_index(resistor.node_b)
        for k, egt in enumerate(netlist.transistors):
            assert plan.egt_d[k] == plan.node_index(egt.drain)
            assert plan.egt_g[k] == plan.node_index(egt.gate)
            assert plan.egt_s[k] == plan.node_index(egt.source)

    def test_ground_encodes_as_minus_one(self):
        plan = compile_netlist(build_ptanh_netlist(OMEGA))
        assert plan.node_index("0") == -1
        assert (plan.egt_s == -1).all()  # both EGT sources sit on ground

    def test_index_lookups_raise_for_unknown_names(self):
        plan = compile_netlist(build_ptanh_netlist(OMEGA))
        with pytest.raises(KeyError):
            plan.source_index("nope")
        with pytest.raises(KeyError):
            plan.resistor_index("nope")


class TestParamBatch:
    def test_batch_size_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent batch sizes"):
            ParamBatch(resistances=np.ones((3, 6)), widths=np.ones((2, 2)))

    def test_arrays_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="must be a"):
            ParamBatch(resistances=np.ones(6))

    def test_take_restricts_lanes(self):
        params = ParamBatch(
            resistances=np.arange(12.0).reshape(4, 3) + 1.0,
            widths=np.ones((4, 2)),
        )
        sub = params.take(np.array([0, 2]))
        assert sub.batch_size == 2
        assert np.array_equal(sub.resistances, params.resistances[[0, 2]])
        assert sub.lengths is None

    def test_empty_batch_has_no_size(self):
        assert ParamBatch().batch_size is None


class TestVectorizedEGTModel:
    """The EGT kernel's overdrive regimes and drain/source symmetry."""

    def test_all_overdrive_branches_covered(self):
        model = EGTModel()
        # z > 30 (strong on), z < -30 (deep off), and the smooth middle.
        vgs = np.array([model.v_threshold + 31 * model.phi,
                        model.v_threshold - 31 * model.phi,
                        model.v_threshold + 0.1])
        current, gm, gds = id_gm_gds(
            vgs, np.full(3, 0.5), model.k_prime * 500.0 / 30.0,
            model.v_threshold, model.phi, model.channel_lambda,
        )
        assert np.all(np.isfinite(current))
        assert current[0] > current[2] > current[1] >= 0.0

    def test_reverse_vds_symmetry(self):
        """vds < 0 swaps drain and source: I(vgs, -vds) = -I(vgs - vds, vds)."""
        model = EGTModel()
        beta = model.k_prime * 500.0 / 30.0
        args = (model.v_threshold, model.phi, model.channel_lambda)
        fwd, _, _ = id_gm_gds(0.9, 0.4, beta, *args)
        rev, _, _ = id_gm_gds(0.9 - 0.4, -0.4, beta, *args)
        assert rev == -fwd


class TestSolveDCBatchAgainstScalar:
    """Batched lanes equal the recorded one-point solver outputs exactly."""

    def test_plan_orders_match_recording(self, scalar_solver_reference):
        plan = ptanh_stamp_plan()
        assert list(plan.nodes) == scalar_solver_reference["nodes"]
        assert list(plan.source_names) == scalar_solver_reference["source_names"]

    def test_qmc_sample_matches_recorded_scalar_exactly(self, scalar_solver_reference):
        """Acceptance property over a Table-I QMC sample, at zero tolerance."""
        plan = ptanh_stamp_plan()
        params = ptanh_param_batch(sample_design_points(24, seed=11), plan)
        solution = solve_dc_batch(plan, params)
        assert solution.converged.all()
        assert np.array_equal(solution.voltages, scalar_solver_reference["qmc24/voltages"])

    def test_lanes_are_bitwise_identical_to_scalar(self, scalar_solver_reference):
        plan = ptanh_stamp_plan()
        params = ptanh_param_batch(sample_design_points(8, seed=5), plan)
        solution = solve_dc_batch(plan, params)
        assert np.array_equal(solution.voltages, scalar_solver_reference["qmc8/voltages"])
        assert np.array_equal(
            solution.source_currents, scalar_solver_reference["qmc8/source_currents"]
        )
        assert solution.iterations.tolist() == scalar_solver_reference["qmc8/iterations"]

    def test_vin_batch_overrides_per_lane(self, scalar_solver_reference):
        plan = ptanh_stamp_plan()
        omegas = np.broadcast_to(OMEGA, (5, 7))
        params = ptanh_param_batch(omegas, plan)
        vins = np.linspace(0.0, 1.0, 5)
        solution = solve_dc_batch(plan, params, vin_batch={"Vin": vins})
        out = solution.voltage(PTANH_NODES["output"])
        assert np.array_equal(out, scalar_solver_reference["vin/output"])
        # the curve should rise tanh-like with the input
        assert out[-1] > out[0]

    def test_warm_start_matches_scalar_warm_start(self, scalar_solver_reference):
        plan = ptanh_stamp_plan()
        omegas = np.broadcast_to(OMEGA, (3, 7))
        params = ptanh_param_batch(omegas, plan)
        cold = solve_dc_batch(plan, params)
        warm = solve_dc_batch(plan, params, initial=cold.voltages)
        assert (cold.iterations == scalar_solver_reference["warm/cold_iterations"]).all()
        assert (warm.iterations == scalar_solver_reference["warm/warm_iterations"]).all()
        for lane in range(3):
            assert np.array_equal(warm.voltages[lane], scalar_solver_reference["warm/voltages"])
        assert warm.iterations[0] < cold.iterations[0]

    def test_mixed_convergence_masks_match_scalar_outcomes(self, scalar_solver_reference):
        """Lanes whose one-point solve raised get converged=False and NaN rows."""
        plan = ptanh_stamp_plan()
        omegas = sample_design_points(12, seed=2)
        params = ptanh_param_batch(omegas, plan)
        iters = solve_dc_batch(plan, params).iterations
        assert iters.min() < iters.max(), "need heterogeneous iteration counts"
        cap = int((iters.min() + iters.max()) // 2)
        assert cap == scalar_solver_reference["capped/cap"]

        solution = solve_dc_batch(plan, params, max_iter=cap)
        converged = solution.converged
        assert converged.tolist() == scalar_solver_reference["capped/converged"]
        assert np.array_equal(
            solution.voltages[converged], scalar_solver_reference["capped/voltages"]
        )
        assert np.isnan(solution.voltages[~converged]).all()
        assert np.isnan(solution.source_currents[~converged]).all()

    def test_lane_converges_iff_it_needs_at_most_max_iter(self):
        """A cap fails exactly the lanes whose uncapped solve needs more."""
        plan = ptanh_stamp_plan()
        omegas = sample_design_points(12, seed=2)
        params = ptanh_param_batch(omegas, plan)
        iters = solve_dc_batch(plan, params).iterations
        cap = int((iters.min() + iters.max()) // 2)
        capped = solve_dc_batch(plan, params, max_iter=cap)
        assert np.array_equal(capped.converged, iters <= cap)


class TestSolveDCBatchValidation:
    def test_batch_size_required(self):
        plan = ptanh_stamp_plan()
        with pytest.raises(ValueError, match="cannot infer the batch size"):
            solve_dc_batch(plan)

    def test_inconsistent_batch_sizes_rejected(self):
        plan = ptanh_stamp_plan()
        params = ptanh_param_batch(np.broadcast_to(OMEGA, (3, 7)), plan)
        with pytest.raises(ValueError, match="inconsistent batch sizes"):
            solve_dc_batch(plan, params, vin_batch={"Vin": np.zeros(4)})

    def test_template_values_used_without_params(self, scalar_solver_reference):
        plan = ptanh_stamp_plan()
        solution = solve_dc_batch(plan, batch_size=2)
        assert solution.converged.all()
        for lane in range(2):
            assert np.array_equal(
                solution.voltages[lane], scalar_solver_reference["template/voltages"]
            )

    def test_nonpositive_resistances_rejected(self):
        plan = ptanh_stamp_plan()
        bad = ParamBatch(resistances=np.zeros((1, plan.n_resistors)))
        with pytest.raises(ValueError, match="positive"):
            solve_dc_batch(plan, bad)

    def test_wrong_initial_shape_rejected(self):
        plan = ptanh_stamp_plan()
        with pytest.raises(ValueError, match="initial must have shape"):
            solve_dc_batch(plan, batch_size=2, initial=np.zeros((2, 3)))

    def test_linear_plan_without_transistors(self):
        netlist = Netlist("linear")
        netlist.add_voltage_source("V1", "a", "0", 1.0)
        netlist.add_resistor("R1", "a", "b", 1e3)
        netlist.add_resistor("R2", "b", "0", 1e3)
        plan = compile_netlist(netlist)
        solution = solve_dc_batch(plan, batch_size=3)
        assert solution.converged.all()
        assert np.allclose(solution.voltage("a"), 1.0)
        assert np.allclose(solution.voltage("b"), 0.5)
