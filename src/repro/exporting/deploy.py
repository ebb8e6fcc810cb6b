"""Closed-loop deployment verification: re-simulate a tiled design in SPICE.

The export path's trust anchor.  :func:`verify_deployment` compiles a
:class:`~repro.exporting.tiling.TiledDesign` back into the batched SPICE
engine's :class:`~repro.spice.plan.StampPlan` / ``ParamBatch`` form — one
plan per layer, one resistor per *placed tile device* in canonical
emission order — and solves every (MC draw × input sample) operating
point with :func:`~repro.spice.batch.solve_dc_batch`.  The kernel
reference is the forward the design was trained with:
:func:`repro.core.kernels.layer_forward`, run once per layer with the
*same* pre-drawn variation factors.  Its tape supplies the effective θ
that scales each placed device and the η of the negation and activation
circuits; the solved column voltages are pushed through those circuits'
transfer kernels and propagated layer to layer, and the final outputs are
compared per sample against the reference's.  A tiling bug — a dropped,
duplicated or mis-valued device, a wrong rail split — changes the summed
conductance at a column node and shows up as output divergence.

Analog tolerance (documented contract)
--------------------------------------

The kernel computes Eq. 1 as ``Σ|θ|·V / (Σ|θ| + 1e-12)`` on dimensionless
surrogate conductances.  The SPICE solve works on physical conductances
``g = |θ| · PHYSICAL_SCALE`` (1e-5 S) with a convergence floor
``gmin = 1e-12 S`` at every node, so its column voltage is effectively
``Σ|θ|·V / (Σ|θ| + gmin/PHYSICAL_SCALE)`` = ``Σ|θ|·V / (Σ|θ| + 1e-7)``.
The relative discrepancy is bounded by ``1e-7 / Σ|θ| ≤ 1e-5`` at the
printable-band floor ``Σ|θ| ≥ 0.01``, i.e. ≤ ~1e-5 V per crossbar stage
(:data:`CROSSBAR_TOL` keeps 5× headroom).  Activation circuits then
amplify stage error by their local gain (tanh steepness is clipped at
200 but realized designs sit far below; measured end-to-end divergence on
trained designs is ~1e-6..1e-4 V), so the end-to-end gate
:data:`OUTPUT_TOL` is 1e-3 V — far below the ~0.1 V class separation the
paper's designs rely on, far above solver noise.

Modeling assumptions, stated explicitly: negation circuits are ideal
transfer functions (the surrogate assumption the whole stack shares), so
each negated row is driven by an ideal source carrying the kernel's
``transfer_fwd(·, 'negweight')`` value computed from the *SPICE
chain's own* propagated voltages; crossbar routing is fixed at print time
from the nominal θ signs, so an effective-θ sign flip under variation
(possible only at ε ≥ ~0.58, outside the paper's range) is counted in
``n_route_flips`` and surfaces as divergence rather than being silently
re-routed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.core.grad_kernels import BIAS_VOLTAGE, transfer_fwd
from repro.core.kernels import augment_inputs, layer_forward, sample_params_epsilons
from repro.core.params import PNNParams, snapshot_params
from repro.core.pnn import PrintedNeuralNetwork
from repro.core.variation import build_scenario_model
from repro.spice.netlist import GROUND, Netlist
from repro.spice.plan import ParamBatch, StampPlan, compile_netlist
from repro.spice.batch import solve_dc_batch

from .tiling import TiledDesign, TileSpec, compile_tiling, iter_tile_devices

__all__ = [
    "CROSSBAR_TOL",
    "OUTPUT_TOL",
    "ScenarioVerification",
    "DeployVerification",
    "DeployReport",
    "verify_deployment",
    "deploy_report",
]

#: Per-crossbar-stage voltage discrepancy bound from the gmin floor (V).
CROSSBAR_TOL = 5e-5

#: End-to-end per-sample output agreement gate (V); see module docstring.
OUTPUT_TOL = 1e-3

#: Resistance standing in for a device whose effective conductance is
#: exactly zero under a variation draw (kernel contribution is zero; this
#: conductance, 1e-18 S, is far below the solver's own 1e-12 S gmin).
_R_OPEN = 1e18


@dataclass(frozen=True)
class ScenarioVerification:
    """Agreement of the re-simulated design with the kernels, one scenario."""

    scenario: str
    n_mc: int
    n_samples: int
    crossbar_divergence: Tuple[float, ...]  # per layer, max |Δv_z| (V)
    max_output_divergence: float            # max over draws × samples × outputs (V)
    prediction_agreement: float             # argmax match fraction (diagnostic)
    n_route_flips: int
    n_lanes: int                            # operating points solved
    invoke_s: float
    passed: bool
    failure: Optional[str] = None


@dataclass(frozen=True)
class DeployVerification:
    """Closed-loop verification result across scenarios."""

    output_tolerance: float
    crossbar_tolerance: float
    model_load_s: float
    scenarios: Tuple[ScenarioVerification, ...]

    @property
    def passed(self) -> bool:
        return bool(self.scenarios) and all(s.passed for s in self.scenarios)

    @property
    def invoke_s(self) -> float:
        return sum(s.invoke_s for s in self.scenarios)

    @property
    def max_output_divergence(self) -> float:
        return max((s.max_output_divergence for s in self.scenarios), default=float("nan"))

    def summary(self) -> str:
        lines = [
            f"deploy verification: {'PASS' if self.passed else 'FAIL'} "
            f"(output tol {self.output_tolerance:g} V)",
            f"  model load: {self.model_load_s * 1e3:.1f} ms, "
            f"invoke: {self.invoke_s * 1e3:.1f} ms",
        ]
        for s in self.scenarios:
            status = "ok" if s.passed else f"FAIL ({s.failure or 'divergence'})"
            lines.append(
                f"  {s.scenario}: max |Δv| = {s.max_output_divergence:.3g} V over "
                f"{s.n_lanes} operating points "
                f"({s.n_mc} draws x {s.n_samples} samples), "
                f"argmax agreement {s.prediction_agreement:.1%} — {status}"
            )
            if s.n_route_flips:
                lines.append(f"    route sign flips under variation: {s.n_route_flips}")
        return "\n".join(lines)


class _LayerPlan:
    """One layer's tiled netlist lowered for the batched solver."""

    def __init__(self, plan: StampPlan, rows: np.ndarray, cols: np.ndarray,
                 r_nominal: np.ndarray, inv_rows: Tuple[int, ...],
                 n_inputs: int, n_outputs: int, index: int):
        self.plan = plan
        self.rows = rows          # (n_res,) global augmented-θ row per device
        self.cols = cols          # (n_res,) global output column per device
        self.r_nominal = r_nominal  # (n_res,) printed resistance of each device
        self.inv_rows = inv_rows  # augmented rows driven through an inverter
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.index = index


def _build_layer_plan(tiled_layer) -> _LayerPlan:
    """Lower one tiled layer to a StampPlan with ideal input/inverter drives.

    All inverters fed from the same global row output the same voltage
    (the transfer depends only on the row voltage), so one ideal source
    per negated row models every tile-local inverter instance exactly.
    """
    L = tiled_layer.index
    n_in = tiled_layer.n_inputs
    net = Netlist(f"deploy_l{L}")

    inv_rows = sorted(
        {
            gr
            for tile in tiled_layer.tiles
            for _, _, gr, _, _, neg in iter_tile_devices(tile)
            if neg
        }
    )

    def in_node(gr: int) -> str:
        if gr == n_in:
            return "vbias"
        if gr == n_in + 1:
            return GROUND
        return f"l{L}_in{gr}"

    for i in range(n_in):
        net.add_voltage_source(f"Vin_{i}", f"l{L}_in{i}", GROUND, 0.0)
    net.add_voltage_source("Vbias", "vbias", GROUND, BIAS_VOLTAGE)
    for gr in inv_rows:
        net.add_voltage_source(f"Vinv_{gr}", f"l{L}_row{gr}_inv", GROUND, 0.0)

    rows: List[int] = []
    cols: List[int] = []
    nominals: List[float] = []
    for tile in tiled_layer.tiles:
        for lr, _lc, gr, gc, resistance, negated in iter_tile_devices(tile):
            node = f"l{L}_row{gr}_inv" if negated else in_node(gr)
            net.add_resistor(
                f"R_{tile.name}_r{lr}_c{gc}", node, f"l{L}_z{gc}", resistance
            )
            rows.append(gr)
            cols.append(gc)
            nominals.append(resistance)

    plan = compile_netlist(net)
    return _LayerPlan(
        plan=plan,
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        r_nominal=np.asarray(nominals, dtype=np.float64),
        inv_rows=tuple(inv_rows),
        n_inputs=n_in,
        n_outputs=tiled_layer.n_outputs,
        index=L,
    )


def _scenario_epsilons(name: str, params: PNNParams, epsilon: float,
                       n_mc: int, seed: int):
    """Pre-draw one scenario's variation factors (canonical per-layer order)."""
    if name == "nominal":
        return None
    model = build_scenario_model(name, epsilon, seed=seed)
    return sample_params_epsilons(model, n_mc, params)


def _run_scenario(
    params: PNNParams,
    plans: Sequence[_LayerPlan],
    x: np.ndarray,
    name: str,
    epsilons,
    output_tol: float,
) -> ScenarioVerification:
    n_samples = x.shape[0]
    n_mc = 1 if epsilons is None else int(epsilons[0][0].shape[0])
    n_lanes = n_mc * n_samples

    hidden = np.broadcast_to(x[None], (n_mc, *x.shape)).astype(np.float64)
    reference = hidden
    crossbar_div: List[float] = []
    n_route_flips = 0
    failure: Optional[str] = None
    t0 = time.perf_counter()

    for layer, lp in zip(params.layers, plans):
        # The kernel reference: the layer the design was trained with, fed
        # by its own propagated chain; its tape supplies θ_eff and η.
        reference, tape = layer_forward(
            reference, layer.theta, layer.act_omega, layer.neg_omega,
            layer.apply_activation, params.act_surrogate, params.neg_surrogate,
            None if epsilons is None else epsilons[lp.index],
        )
        theta_eff = tape.theta_eff                             # (N, I+2, O)
        placed_sign_flip = (
            (theta_eff < 0) != (layer.theta[None] < 0)
        ) & (layer.theta[None] != 0)
        n_route_flips += int(placed_sign_flip.sum())

        inverted, _ = transfer_fwd(augment_inputs(hidden), tape.eta_neg, "negweight")

        # Per-lane effective resistances: lanes are (draw d, sample b),
        # draw-major, matching the vin lane layout below.  Each device
        # starts from the *printed* resistance recorded in its tile and
        # scales by the variation draw's conductance ratio |θ_eff|/|θ| —
        # so the simulation exercises exactly the values the netlist
        # carries (a corrupted tile value diverges; the tests check this).
        mag_nom = np.abs(layer.theta)[lp.rows, lp.cols]         # (n_res,)
        mag_eff = np.abs(theta_eff)[:, lp.rows, lp.cols]        # (N, n_res)
        with np.errstate(divide="ignore", invalid="ignore"):
            r_eff = np.where(
                mag_eff > 0, lp.r_nominal * mag_nom / mag_eff, _R_OPEN
            )
        if not np.all(np.isfinite(r_eff) & (r_eff > 0)):
            failure = f"layer {lp.index}: non-finite effective resistance"
            break
        resistances = np.repeat(r_eff, n_samples, axis=0)       # (N*B, n_res)

        vin: Dict[str, np.ndarray] = {
            "Vbias": np.full(n_lanes, BIAS_VOLTAGE),
        }
        for i in range(lp.n_inputs):
            vin[f"Vin_{i}"] = np.ascontiguousarray(hidden[:, :, i].reshape(n_lanes))
        for gr in lp.inv_rows:
            vin[f"Vinv_{gr}"] = np.ascontiguousarray(
                inverted[:, :, gr].reshape(n_lanes)
            )

        solution = solve_dc_batch(
            lp.plan,
            param_batch=ParamBatch(resistances=resistances),
            vin_batch=vin,
        )
        if not solution.converged.all():
            failure = (
                f"layer {lp.index}: {int((~solution.converged).sum())}/"
                f"{n_lanes} operating points failed to converge"
            )
            break
        v_z = np.stack(
            [solution.voltage(f"l{lp.index}_z{j}") for j in range(lp.n_outputs)],
            axis=-1,
        ).reshape(n_mc, n_samples, lp.n_outputs)

        # Per-stage diagnostic of the gmin floor: the SPICE column voltages
        # against the kernel crossbar at the same effective θ.
        crossbar_div.append(float(np.max(np.abs(v_z - tape.v_z))))
        hidden = (
            transfer_fwd(v_z, tape.eta_act, "ptanh")[0] if layer.apply_activation else v_z
        )

    invoke_s = time.perf_counter() - t0

    if failure is not None:
        return ScenarioVerification(
            scenario=name, n_mc=n_mc, n_samples=n_samples,
            crossbar_divergence=tuple(crossbar_div),
            max_output_divergence=float("inf"),
            prediction_agreement=0.0, n_route_flips=n_route_flips,
            n_lanes=n_lanes, invoke_s=invoke_s, passed=False, failure=failure,
        )

    max_div = float(np.max(np.abs(hidden - reference)))
    agreement = float(
        np.mean(np.argmax(hidden, axis=-1) == np.argmax(reference, axis=-1))
    )
    passed = max_div <= output_tol
    return ScenarioVerification(
        scenario=name, n_mc=n_mc, n_samples=n_samples,
        crossbar_divergence=tuple(crossbar_div),
        max_output_divergence=max_div,
        prediction_agreement=agreement, n_route_flips=n_route_flips,
        n_lanes=n_lanes, invoke_s=invoke_s,
        passed=passed,
        failure=None if passed else f"output divergence {max_div:.3g} V > {output_tol:g} V",
    )


def verify_deployment(
    design: Union[PrintedNeuralNetwork, PNNParams],
    x: np.ndarray,
    spec: TileSpec = TileSpec(),
    *,
    tiled: Optional[TiledDesign] = None,
    scenarios: Sequence[str] = ("nominal",),
    epsilon: float = 0.1,
    n_mc: int = 2,
    seed: int = 0,
    output_tol: float = OUTPUT_TOL,
) -> DeployVerification:
    """Re-simulate a tiled design through the batched SPICE engine.

    ``scenarios`` mixes the literal ``"nominal"`` with any name from
    :data:`repro.core.variation.SCENARIOS`; each non-nominal scenario
    pre-draws ``n_mc`` variation samples and the re-simulation is compared
    against :func:`~repro.core.kernels.layer_forward` under those exact
    draws.  A design
    with load-bearing skipped devices (see
    :class:`~repro.exporting.report.LayerReport`) fails immediately: the
    printed circuit could not carry the trained conductances.
    """
    params = snapshot_params(design)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a (samples, features) input array")

    tel = telemetry.get()
    with tel.span(
        "export.verify",
        spec=(tiled.spec if tiled is not None else spec).describe(),
        scenarios=",".join(scenarios),
        samples=int(x.shape[0]),
        n_mc=n_mc,
    ):
        t0 = time.perf_counter()
        if tiled is None:
            tiled = compile_tiling(params, spec)
        if tiled.skipped_load_bearing:
            result = DeployVerification(
                output_tolerance=output_tol,
                crossbar_tolerance=CROSSBAR_TOL,
                model_load_s=time.perf_counter() - t0,
                scenarios=(
                    ScenarioVerification(
                        scenario="design", n_mc=0, n_samples=int(x.shape[0]),
                        crossbar_divergence=(), max_output_divergence=float("inf"),
                        prediction_agreement=0.0, n_route_flips=0, n_lanes=0,
                        invoke_s=0.0, passed=False,
                        failure=(
                            f"{tiled.skipped_load_bearing} load-bearing device(s) "
                            "skipped at export (non-finite printed resistance)"
                        ),
                    ),
                ),
            )
            if tel.enabled:
                tel.count("export.verify_failures", 1)
            return result

        plans = [_build_layer_plan(layer) for layer in tiled.layers]
        model_load_s = time.perf_counter() - t0

        results = []
        for name in scenarios:
            epsilons = _scenario_epsilons(name, params, epsilon, n_mc, seed)
            results.append(
                _run_scenario(params, plans, x, name, epsilons, output_tol)
            )

        verification = DeployVerification(
            output_tolerance=output_tol,
            crossbar_tolerance=CROSSBAR_TOL,
            model_load_s=model_load_s,
            scenarios=tuple(results),
        )
        if tel.enabled:
            failures = sum(1 for s in results if not s.passed)
            if failures:
                tel.count("export.verify_failures", failures)
            tel.count("export.verify_lanes", sum(s.n_lanes for s in results))
            flips = sum(s.n_route_flips for s in results)
            if flips:
                tel.count("export.route_flips", flips)
            tel.event(
                "export.verify",
                passed=verification.passed,
                max_output_divergence=verification.max_output_divergence,
                model_load_s=model_load_s,
                invoke_s=verification.invoke_s,
                scenarios={
                    s.scenario: {
                        "max_output_divergence": s.max_output_divergence,
                        "prediction_agreement": s.prediction_agreement,
                        "passed": s.passed,
                    }
                    for s in results
                },
            )
    return verification


@dataclass(frozen=True)
class DeployReport:
    """Per-design deploy summary: placement, physical estimates, timing."""

    layer_sizes: Tuple[int, ...]
    spec: TileSpec
    n_tiles: int
    n_devices: int
    n_inverters: int
    n_summing_nodes: int
    utilization: float
    skipped_zero: int
    skipped_load_bearing: int
    area_mm2: float
    static_power_uw: float
    model_load_s: float
    invoke_s: float
    lanes_per_second: float
    verification: Optional[DeployVerification]

    @property
    def passed(self) -> bool:
        return self.verification is None or self.verification.passed

    def summary(self) -> str:
        topo = "-".join(str(s) for s in self.layer_sizes)
        lines = [
            f"deploy report: topology {topo}, tiles {self.spec.describe()}",
            f"  tiles: {self.n_tiles}, devices: {self.n_devices}, "
            f"inverters: {self.n_inverters}, "
            f"inter-tile summing nodes: {self.n_summing_nodes}, "
            f"utilization: {self.utilization:.1%}",
            f"  estimated area: {self.area_mm2:.1f} mm², "
            f"static power: {self.static_power_uw:.1f} µW",
            f"  model load: {self.model_load_s * 1e3:.1f} ms, "
            f"invoke: {self.invoke_s * 1e3:.1f} ms "
            f"({self.lanes_per_second:.0f} operating points/s)",
        ]
        if self.skipped_zero or self.skipped_load_bearing:
            lines.append(
                f"  skipped devices: {self.skipped_zero + self.skipped_load_bearing} "
                f"({self.skipped_load_bearing} load-bearing)"
            )
        if self.verification is not None:
            lines.append(self.verification.summary())
        return "\n".join(lines)


def _physical_estimates(tiled: TiledDesign) -> Tuple[float, float]:
    """(area mm², static power µW) from device/instance counts.

    Reuses the cost model's per-component constants.  Unlike
    :func:`repro.analysis.cost.estimate_cost` (which lets one inverter fan
    out to every column of a monolithic crossbar), tiles cannot share
    negation circuits across physical arrays, so inverter count here is
    the per-tile-device count — deliberately the deploy-faithful number.
    """
    from repro.analysis.cost import (
        NONLINEAR_OVERHEAD_MM2,
        RESISTOR_AREA_MM2,
        layer_circuit_power,
    )

    area = tiled.n_devices * RESISTOR_AREA_MM2
    power = 0.0
    for layer, layer_report in zip(tiled.layers, tiled.report.layers):
        finite = np.isfinite(layer_report.crossbar_resistances)
        power += float(
            (0.5**2 / layer_report.crossbar_resistances[finite]).sum()
        )
        n_act = layer.n_outputs
        act_omegas = layer_report.activation_omega
        for j in range(n_act):
            omega = act_omegas[j % len(act_omegas)]
            area += NONLINEAR_OVERHEAD_MM2 + 2 * (omega[5] / 1000.0) * (omega[6] / 1000.0)
        act_power, inv_power = layer_circuit_power(layer_report)
        for circuit_power in act_power:
            power += circuit_power * (n_act / len(act_omegas))
        neg_omega = layer_report.negation_omega[0]
        area += layer.n_inverters * (
            NONLINEAR_OVERHEAD_MM2 + 2 * (neg_omega[5] / 1000.0) * (neg_omega[6] / 1000.0)
        )
        power += layer.n_inverters * inv_power
    return float(area), float(power * 1e6)


def deploy_report(
    design: Union[PrintedNeuralNetwork, PNNParams],
    spec: TileSpec = TileSpec(),
    x: Optional[np.ndarray] = None,
    *,
    tiled: Optional[TiledDesign] = None,
    verify: bool = True,
    scenarios: Sequence[str] = ("nominal",),
    epsilon: float = 0.1,
    n_mc: int = 2,
    seed: int = 0,
    n_samples: int = 8,
    output_tol: float = OUTPUT_TOL,
) -> DeployReport:
    """Tile a design, optionally verify it closed-loop, and summarize.

    When ``x`` is omitted, ``n_samples`` uniform inputs in [0, 1] V are
    drawn from ``seed`` (the networks operate on voltages in that band).
    """
    params = snapshot_params(design)
    if tiled is None:
        tiled = compile_tiling(params, spec)
    else:
        spec = tiled.spec
    area_mm2, static_power_uw = _physical_estimates(tiled)

    verification = None
    model_load_s = 0.0
    invoke_s = 0.0
    lanes = 0
    if verify:
        if x is None:
            rng = np.random.default_rng(seed)
            x = rng.uniform(0.0, 1.0, size=(n_samples, params.layer_sizes[0]))
        verification = verify_deployment(
            params, x, tiled=tiled, scenarios=scenarios,
            epsilon=epsilon, n_mc=n_mc, seed=seed, output_tol=output_tol,
        )
        model_load_s = verification.model_load_s
        invoke_s = verification.invoke_s
        lanes = sum(s.n_lanes for s in verification.scenarios)

    report = DeployReport(
        layer_sizes=tuple(tiled.layer_sizes),
        spec=spec,
        n_tiles=tiled.n_tiles,
        n_devices=tiled.n_devices,
        n_inverters=tiled.n_inverters,
        n_summing_nodes=tiled.n_summing_nodes,
        utilization=tiled.utilization,
        skipped_zero=tiled.skipped_zero,
        skipped_load_bearing=tiled.skipped_load_bearing,
        area_mm2=area_mm2,
        static_power_uw=static_power_uw,
        model_load_s=model_load_s,
        invoke_s=invoke_s,
        lanes_per_second=(lanes / invoke_s) if invoke_s > 0 else 0.0,
        verification=verification,
    )
    tel = telemetry.get()
    if tel.enabled:
        tel.event(
            "export.deploy",
            topology=list(report.layer_sizes),
            spec=spec.describe(),
            tiles=report.n_tiles,
            devices=report.n_devices,
            inverters=report.n_inverters,
            utilization=report.utilization,
            area_mm2=report.area_mm2,
            static_power_uw=report.static_power_uw,
            model_load_s=report.model_load_s,
            invoke_s=report.invoke_s,
            passed=report.passed,
        )
    return report
