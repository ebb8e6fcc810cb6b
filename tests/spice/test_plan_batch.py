"""Compiled stamp plans and the batched Newton-Raphson solver.

The batched path must be a drop-in replacement for the scalar solver: the
acceptance bar is agreement to 1e-9 V across a QMC sample of the Table-I
design space, and the implementation actually achieves bitwise equality
(same float ops in the same order), which is asserted where it matters.
"""

import numpy as np
import pytest

from repro.circuits.ptanh import (
    _TEMPLATE_OMEGA,
    PTANH_NODES,
    build_ptanh_netlist,
    ptanh_param_batch,
    ptanh_stamp_plan,
)
from repro.spice import (
    ConvergenceError,
    Netlist,
    ParamBatch,
    compile_netlist,
    solve_dc,
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
    """The numpy kernel and the scalar model API must agree exactly."""

    def test_scalar_method_matches_vectorized_kernel(self):
        model = EGTModel()
        vgs = np.linspace(-0.5, 1.5, 41)
        vds = np.linspace(-1.0, 1.0, 41)
        beta = model.beta(500.0, 30.0)
        grid_vgs, grid_vds = np.meshgrid(vgs, vds)
        current, gm, gds = id_gm_gds(
            grid_vgs,
            grid_vds,
            beta,
            model.v_threshold,
            model.phi,
            model.channel_lambda,
        )
        for i in range(0, 41, 5):
            for j in range(0, 41, 5):
                scalar = model.ids(grid_vgs[i, j], grid_vds[i, j], 500.0, 30.0)
                assert scalar == (current[i, j], gm[i, j], gds[i, j])

    def test_all_overdrive_branches_covered(self):
        model = EGTModel()
        # z > 30 (strong on), z < -30 (deep off), and the smooth middle.
        vgs = np.array([model.v_threshold + 31 * model.phi,
                        model.v_threshold - 31 * model.phi,
                        model.v_threshold + 0.1])
        current, gm, gds = id_gm_gds(
            vgs, np.full(3, 0.5), model.beta(500.0, 30.0),
            model.v_threshold, model.phi, model.channel_lambda,
        )
        assert np.all(np.isfinite(current))
        assert current[0] > current[2] > current[1] >= 0.0

    def test_reverse_vds_symmetry(self):
        """vds < 0 swaps drain and source: I(vgs, -vds) = -I(vgs - vds, vds)."""
        model = EGTModel()
        beta = model.beta(500.0, 30.0)
        args = (model.v_threshold, model.phi, model.channel_lambda)
        fwd, _, _ = id_gm_gds(0.9, 0.4, beta, *args)
        rev, _, _ = id_gm_gds(0.9 - 0.4, -0.4, beta, *args)
        assert rev == -fwd


class TestSolveDCBatchAgainstScalar:
    def test_qmc_sample_matches_scalar_within_1e9(self):
        """Acceptance property: ≤1e-9 V over a Table-I QMC sample."""
        plan = ptanh_stamp_plan()
        omegas = sample_design_points(24, seed=11)
        params = ptanh_param_batch(omegas, plan)
        solution = solve_dc_batch(plan, params)
        assert solution.converged.all()
        for lane, omega in enumerate(omegas):
            scalar = solve_dc(build_ptanh_netlist(omega))
            for i, name in enumerate(plan.nodes):
                assert abs(solution.voltages[lane, i] - scalar.voltages[name]) <= 1e-9

    def test_lanes_are_bitwise_identical_to_scalar(self):
        plan = ptanh_stamp_plan()
        omegas = sample_design_points(8, seed=5)
        params = ptanh_param_batch(omegas, plan)
        solution = solve_dc_batch(plan, params)
        for lane, omega in enumerate(omegas):
            scalar = solve_dc(build_ptanh_netlist(omega))
            point = solution.operating_point(lane)
            assert point.voltages == scalar.voltages
            assert point.source_currents == scalar.source_currents
            assert point.iterations == scalar.iterations

    def test_vin_batch_overrides_per_lane(self):
        plan = ptanh_stamp_plan()
        omegas = np.broadcast_to(OMEGA, (5, 7))
        params = ptanh_param_batch(omegas, plan)
        vins = np.linspace(0.0, 1.0, 5)
        solution = solve_dc_batch(plan, params, vin_batch={"Vin": vins})
        out = solution.voltage(PTANH_NODES["output"])
        for lane, vin in enumerate(vins):
            scalar = solve_dc(build_ptanh_netlist(OMEGA, vin=float(vin)))
            assert out[lane] == scalar.voltages[PTANH_NODES["output"]]
        # the curve should rise tanh-like with the input
        assert out[-1] > out[0]

    def test_warm_start_matches_scalar_warm_start(self):
        plan = ptanh_stamp_plan()
        omegas = np.broadcast_to(OMEGA, (3, 7))
        params = ptanh_param_batch(omegas, plan)
        cold = solve_dc_batch(plan, params)
        warm = solve_dc_batch(plan, params, initial=cold.voltages)
        netlist = build_ptanh_netlist(OMEGA)
        scalar_cold = solve_dc(netlist)
        scalar_warm = solve_dc(netlist, initial=scalar_cold.voltages)
        assert warm.iterations[0] == scalar_warm.iterations
        assert warm.operating_point(0).voltages == scalar_warm.voltages
        assert warm.iterations[0] < cold.iterations[0]

    def test_mixed_convergence_masks_match_scalar_outcomes(self):
        """Lanes whose scalar solve would raise get converged=False."""
        plan = ptanh_stamp_plan()
        omegas = sample_design_points(12, seed=2)
        params = ptanh_param_batch(omegas, plan)
        iters = solve_dc_batch(plan, params).iterations
        assert iters.min() < iters.max(), "need heterogeneous iteration counts"
        cap = int((iters.min() + iters.max()) // 2)

        solution = solve_dc_batch(plan, params, max_iter=cap)
        for lane, omega in enumerate(omegas):
            netlist = build_ptanh_netlist(omega)
            try:
                scalar = solve_dc(netlist, max_iter=cap)
                assert solution.converged[lane]
                assert solution.operating_point(lane).voltages == scalar.voltages
            except ConvergenceError:
                assert not solution.converged[lane]
                assert np.isnan(solution.voltages[lane]).all()
                with pytest.raises(ConvergenceError):
                    solution.operating_point(lane)

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

    def test_template_values_used_without_params(self):
        plan = ptanh_stamp_plan()
        solution = solve_dc_batch(plan, batch_size=2)
        assert solution.converged.all()
        scalar = solve_dc(build_ptanh_netlist(_TEMPLATE_OMEGA))
        assert solution.operating_point(0).voltages == scalar.voltages
        assert solution.operating_point(1).voltages == scalar.voltages

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
