"""The pNN training loop: L independent trainings, one lockstep epoch loop.

The Table-II protocol trains the *same* network topology on the *same*
dataset many times — once per random seed, per setup, per training ϵ.  Each
such job differs only in its RNG streams (network init + variation draws).
This module stacks ``L`` compatible jobs on a leading **lane** axis and runs
one epoch loop over all of them — the training-side analogue of
``solve_dc_batch``'s batched Newton iteration, shrinking active set
included.  It is the only production training loop:
``train_pnn(engine="kernel")`` is a one-lane run of it.

Bit-identity is the spec, not tolerance
---------------------------------------
Lane ``l`` of an ``L``-lane run must reproduce the one-lane run for the
same seed **bitwise**: the same per-epoch ``(train_loss, val_loss)``
history, the same early-stop epoch, and byte-identical trained parameters.
Table II relies on it: a seed's result does not depend on which other
seeds of its group share the batch.  It holds because

- every kernel in :mod:`repro.core.grad_kernels`, and the layer assembly
  chaining them, addresses trailing axes, so a lane's slice undergoes the
  same elementwise operations and the same per-slice 2-D GEMMs as a call
  on that lane's unstacked arrays;
- reductions (batch sums, MC means) keep the reduced axis's memory layout
  unchanged when a leading lane axis is added, so numpy's pairwise
  summation produces the same partial-sum tree per lane;
- each lane owns its private variation model (built from its config and
  seeded per lane, or passed in as an override), drawn only while the lane
  is active — exactly the RNG consumption of its one-lane run;
- Adam's update is elementwise and its bias-correction counter is shared
  validly (lanes step together from epoch 0 until removed, see
  :class:`repro.optim.LaneAdam`);
- early-stopped lanes are *removed* from the stack by a gather
  (fancy-index copy), which cannot perturb surviving lanes' bytes.

Pinned by ``tests/core/test_lane_engine.py`` (step-level equality with
the recorded serial executor, per-lane histories, states, stop epochs,
gather invariance, a traced mid-run shrink).

Entry points
------------
:func:`train_pnn_lanes` — train a list of networks in lockstep; returns
one :class:`~repro.core.training.TrainResult` per lane and writes each
lane's best-epoch arrays back into its network.
:class:`LaneNetwork` — the one forward/backward executor over raw
parameter arrays, lane-stacked ``(L, ...)``, reusing the frozen structure
of a :class:`~repro.core.grad_kernels.KernelNetwork`: per layer it
projects the raw arrays and runs :func:`repro.core.kernels.layer_forward`,
the printed layer evaluation and deploy verification run too; one-network
calls (``KernelNetwork.loss_and_grads`` / ``.loss_value``) run it with one
lane.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.grad_kernels import (
    LOSS_KERNELS,
    KernelNetwork,
    LayerGrads,
    Workspace,
    apply_nonideality_bwd,
    circuit_eta_bwd,
    crossbar_bwd,
    project_printable,
    reassemble_omega_bwd,
    reassemble_omega_fwd,
    transfer_bwd,
)
from repro.core.kernels import LayerTape, layer_forward
from repro.core.pnn import PrintedNeuralNetwork
from repro.core.training import (
    TrainResult,
    _training_variation,
    _validation_epsilons,
    draw_epoch_epsilons,
)
from repro.core.variation import Perturbation, eps_stack
from repro.optim import EarlyStopping, RawParameter
from repro.optim.lanes import LaneAdam

#: TrainConfig fields every lane of a batch must agree on (seed may differ).
LANE_SHARED_FIELDS = (
    "lr_theta",
    "lr_omega",
    "learnable_nonlinear",
    "epsilon",
    "scenario",
    "n_mc_train",
    "max_epochs",
    "patience",
    "loss",
)

def stack_epsilons(per_lane: Sequence[List[Tuple[Perturbation, ...]]]):
    """Stack per-lane ε draws into lane-stacked triples.

    ``per_lane[l]`` is lane ``l``'s :func:`draw_epoch_epsilons` result
    (one ``(ε_θ, ε_act, ε_neg)`` triple per layer, leading axis ``n_mc``);
    the return value carries one triple per layer with leading axes
    ``(L, n_mc)``.  Stacking copies — lanes stay bitwise independent.
    Every field of a draw stacks through
    :func:`~repro.core.variation.eps_stack`.
    """
    n_layers = len(per_lane[0])
    return [
        tuple(
            eps_stack([lane_draws[index][k] for lane_draws in per_lane])
            for k in range(3)
        )
        for index in range(n_layers)
    ]


def compact_epsilons(epsilons, keep: Sequence[int]):
    """Gather lane-stacked ε triples down to the surviving lanes."""
    if epsilons is None:
        return None
    keep = list(keep)
    return [tuple(array[keep] for array in triple) for triple in epsilons]


class LaneNetwork:
    """The forward/backward executor over ``(L, ...)`` raw pNN arrays.

    Wraps a frozen :class:`~repro.core.grad_kernels.KernelNetwork` (layer
    metadata, surrogate snapshots, design space — shared by all lanes).
    Per layer of lane-stacked parameters
    ``[θ (L, in+2, out), 𝔴_act (L, C, 7), 𝔴_neg (L, C, 7)]`` it runs the
    raw → printable step (the θ projection, the Fig. 5 reassembly) and then
    :func:`repro.core.kernels.layer_forward`, the one printed-layer
    assembly, over activations ``(L, n_mc, batch, features)``; the backward
    reads the returned tapes.  Owns its
    :class:`~repro.core.grad_kernels.Workspace`, reused across calls of
    constant shape.
    """

    def __init__(self, net: KernelNetwork):
        self.net = net
        self.workspace = Workspace()

    # ------------------------------------------------------------------ #
    # construction                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_pnns(cls, pnns: Sequence[PrintedNeuralNetwork]) -> "LaneNetwork":
        """Freeze a compatible set of networks into one lane engine.

        All networks must share topology, per-neuron-activation mode, the
        conductance range and the *same* surrogate and design-space objects
        (one snapshot serves every lane — anything else would train a lane
        under another network's projection than the one it is printed with).
        """
        if not pnns:
            raise ValueError("need at least one network")
        first = pnns[0]
        for other in pnns[1:]:
            if tuple(other.layer_sizes) != tuple(first.layer_sizes):
                raise ValueError("lane networks must share layer sizes")
            if other.per_neuron_activation != first.per_neuron_activation:
                raise ValueError("lane networks must share per-neuron-activation mode")
            for mine, theirs in zip(first.layers, other.layers):
                if theirs.apply_activation != mine.apply_activation:
                    raise ValueError("lane networks must share activation placement")
            if (
                other.act_surrogate is not first.act_surrogate
                or other.neg_surrogate is not first.neg_surrogate
            ):
                raise ValueError("lane networks must share surrogate objects")
            if other.conductance != first.conductance:
                raise ValueError("lane networks must share the conductance range")
            if other.space is not first.space:
                raise ValueError("lane networks must share the design-space object")
        return cls(KernelNetwork.from_pnn(first))

    @staticmethod
    def stack_arrays(pnns: Sequence[PrintedNeuralNetwork]) -> List[List[np.ndarray]]:
        """Lane-stack every network's raw parameters: ``[[θ, 𝔴_act, 𝔴_neg], ...]``.

        Each entry is ``(L, ...)`` with lane ``l`` holding a copy of
        ``pnns[l]``'s array.
        """
        per_lane = [KernelNetwork.extract_arrays(pnn) for pnn in pnns]
        n_layers = len(per_lane[0])
        return [
            [np.stack([lane[index][k] for lane in per_lane]) for k in range(3)]
            for index in range(n_layers)
        ]

    # ------------------------------------------------------------------ #
    # forward                                                            #
    # ------------------------------------------------------------------ #

    def forward(
        self,
        arrays: Sequence[Sequence[np.ndarray]],
        x: np.ndarray,
        epsilons=None,
        record: bool = False,
        tag: str = "lanes",
    ) -> Tuple[np.ndarray, Optional[List[tuple]]]:
        """Stacked forward pass over raw arrays; optionally record the tape.

        ``x`` is the shared ``(batch, features)`` input (all lanes of a
        batch train on the same dataset); ``epsilons`` supplies one
        ``(ε_θ, ε_act, ε_neg)`` triple per layer with leading axes
        ``(L, n_mc)`` (see :func:`stack_epsilons`) or ``None`` for the
        nominal pass.  ``tag`` namespaces the workspace buffers so
        alternating train/validation batches do not thrash reallocations;
        layer ``i`` runs under ``{tag}.l{i}``.  The tape holds, per layer,
        the :class:`~repro.core.kernels.LayerTape` and the two reassembly
        contexts.
        """
        data = np.asarray(x, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("expected a (batch, features) input")
        if data.shape[1] != self.net.layer_sizes[0]:
            raise ValueError(
                f"input has {data.shape[1]} features, network expects "
                f"{self.net.layer_sizes[0]}"
            )
        n_lanes = int(arrays[0][0].shape[0])
        n_mc = 1 if epsilons is None else int(epsilons[0][0].shape[1])

        net = self.net
        hidden = np.broadcast_to(data, (n_lanes, n_mc, *data.shape))
        tape: Optional[List[tuple]] = [] if record else None
        for index, (meta, (theta_raw, w_act, w_neg)) in enumerate(zip(net.layers, arrays)):
            theta = project_printable(theta_raw, meta.g_min, meta.g_max)
            neg_omega, neg_re = reassemble_omega_fwd(w_neg, net.space)
            act_omega = act_re = None
            if meta.apply_activation:
                act_omega, act_re = reassemble_omega_fwd(w_act, net.space)
            hidden, layer_tape = layer_forward(
                hidden, theta, act_omega, neg_omega, meta.apply_activation,
                net.act_surrogate, net.neg_surrogate,
                None if epsilons is None else epsilons[index],
                ws=self.workspace, tag=f"{tag}.l{index}",
            )
            if record:
                tape.append((layer_tape, act_re, neg_re))
        return hidden, tape

    # ------------------------------------------------------------------ #
    # backward                                                           #
    # ------------------------------------------------------------------ #

    def backward(
        self,
        tape: List[Tuple[LayerTape, Optional[tuple], tuple]],
        d_out: np.ndarray,
        need_omega_grads: bool = True,
    ) -> List[LayerGrads]:
        """VJP of :meth:`forward` from d(output voltages) to raw parameters.

        Returns one :class:`~repro.core.grad_kernels.LayerGrads` per layer,
        lane-stacked ``(L, ...)``; the ε chain rule and the nominal-θ
        unbroadcast reduce the MC axis (axis 1).  𝔴 gradients are ``None``
        when ``need_omega_grads`` is off (the non-learnable baselines never
        pay for them) or when a layer applies no activation circuit.
        """
        net = self.net
        grads = [LayerGrads() for _ in net.layers]
        grad = d_out
        for index in range(len(net.layers) - 1, -1, -1):
            meta = net.layers[index]
            layer, act_re, neg_re = tape[index]
            if meta.apply_activation:
                grad, d_eta_act = transfer_bwd(
                    grad, layer.act_transfer, tag=f"lanes.bwd.l{index}.act"
                )
                if need_omega_grads:
                    d_omega = circuit_eta_bwd(d_eta_act, layer.act_eta, net.act_surrogate)
                    grads[index].w_act = reassemble_omega_bwd(d_omega, act_re)
            d_x_aug, d_inverted, d_theta_eff = crossbar_bwd(
                grad, layer.crossbar, ws=self.workspace, tag=f"lanes.bwd.l{index}"
            )
            if layer.eps_theta is not None:
                d_printable = apply_nonideality_bwd(d_theta_eff, layer.eps_theta, axis=1)
            else:
                d_printable = d_theta_eff[:, 0]
            grads[index].theta = d_printable          # straight-through projection

            d_x_aug2, d_eta_neg = transfer_bwd(
                d_inverted, layer.neg_transfer, tag=f"lanes.bwd.l{index}.neg"
            )
            d_x_aug += d_x_aug2
            if need_omega_grads:
                d_omega = circuit_eta_bwd(d_eta_neg, layer.neg_eta, net.neg_surrogate)
                grads[index].w_neg = reassemble_omega_bwd(d_omega, neg_re)
            grad = d_x_aug[..., : meta.in_features]
        return grads

    # ------------------------------------------------------------------ #
    # loss entry points                                                  #
    # ------------------------------------------------------------------ #

    def loss_and_grads(
        self,
        arrays: Sequence[Sequence[np.ndarray]],
        x: np.ndarray,
        targets: np.ndarray,
        loss: str = "margin",
        epsilons=None,
        need_omega_grads: bool = True,
    ) -> Tuple[np.ndarray, List[LayerGrads]]:
        """Per-lane losses ``(L,)`` and lane-stacked raw-parameter grads."""
        loss_fwd, loss_bwd = LOSS_KERNELS[loss]
        voltages, tape = self.forward(
            arrays, x, epsilons=epsilons, record=True, tag="lanes"
        )
        values, ctx = loss_fwd(voltages, targets)
        d_voltages = loss_bwd(ctx)
        return values, self.backward(tape, d_voltages, need_omega_grads=need_omega_grads)

    def loss_values(
        self,
        arrays: Sequence[Sequence[np.ndarray]],
        x: np.ndarray,
        targets: np.ndarray,
        loss: str = "margin",
        epsilons=None,
        tag: str = "lanes.val",
    ) -> np.ndarray:
        """Forward-only per-lane losses ``(L,)`` (validation path)."""
        loss_fwd, _ = LOSS_KERNELS[loss]
        voltages, _ = self.forward(arrays, x, epsilons=epsilons, record=False, tag=tag)
        values, _ = loss_fwd(voltages, targets)
        return values


# --------------------------------------------------------------------- #
# the lane training loop                                                #
# --------------------------------------------------------------------- #


def _require_compatible(configs) -> None:
    """Lanes must agree on every hyperparameter except the seed."""
    base = configs[0]
    for config in configs[1:]:
        for name in LANE_SHARED_FIELDS:
            if getattr(config, name) != getattr(base, name):
                raise ValueError(
                    f"lane configs must agree on {name!r}: "
                    f"{getattr(config, name)!r} != {getattr(base, name)!r}"
                )


def _same_for_all_lanes(flags: Sequence[bool], what: str) -> bool:
    """The one value every lane agrees on; lanes that disagree cannot stack."""
    if any(flags) != all(flags):
        raise ValueError(f"lanes must agree on whether they sample {what}")
    return bool(flags[0])


def train_pnn_lanes(
    pnns: Sequence[PrintedNeuralNetwork],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    configs,
    variations=None,
    val_variations=None,
) -> List[TrainResult]:
    """Train ``L`` networks in lockstep; lane ``l`` equals its one-lane run.

    Parameters
    ----------
    pnns:
        The networks, one per lane — same topology and surrogates,
        independently initialized (each from its own seed).  Trained in
        place: each network ends up holding its best-epoch arrays.
    x_train, y_train, x_val, y_val:
        The *shared* dataset splits (lane batching groups jobs by
        dataset/setup, so all lanes see the same data).
    configs:
        One :class:`~repro.core.training.TrainConfig` per lane.  All
        fields except ``seed`` must agree (:data:`LANE_SHARED_FIELDS` —
        including ``scenario``: lane stacks carry per-lane draws of the
        *same* non-ideality model class, seeded per lane).
    variations, val_variations:
        Optional per-lane training / validation variation models, one
        entry per lane (the ``variation`` / ``val_variation`` overrides of
        :func:`~repro.core.training.train_pnn`, e.g. an
        :class:`~repro.core.aging.AgingModel`).  ``None`` — for the whole
        list or one entry — builds that lane's model from its config.
        Lanes must agree on whether they sample variation at all.

    Returns
    -------
    list of TrainResult
        One per lane, in input order — per-epoch history, best epoch and
        early-stop bookkeeping all bitwise equal to the one-lane run of
        the same network and config.

    Notes
    -----
    Per-lane early stopping shrinks the active stack exactly like
    ``solve_dc_batch``: a stopped lane is gathered out of the parameter
    stack, the optimizer moments (:meth:`LaneAdam.compact`), the hoisted
    validation ε and the per-lane variation models — surviving lanes'
    bytes are untouched, and stopped lanes stop consuming their RNG
    streams (each lane owns its variation model).
    """
    pnns = list(pnns)
    configs = list(configs)
    if len(pnns) != len(configs):
        raise ValueError("need exactly one config per network")
    if not pnns:
        return []
    _require_compatible(configs)
    base = configs[0]
    n_lanes = len(pnns)
    variations = [None] * n_lanes if variations is None else list(variations)
    val_variations = [None] * n_lanes if val_variations is None else list(val_variations)
    if len(variations) != n_lanes or len(val_variations) != n_lanes:
        raise ValueError("need exactly one variation model entry per network")

    lane_net = LaneNetwork.from_pnns(pnns)
    # [θ, 𝔴_act, 𝔴_neg] per layer, each lane-stacked.
    layer_params = [
        [RawParameter(array) for array in layer]
        for layer in LaneNetwork.stack_arrays(pnns)
    ]
    theta_params = [theta for theta, _, _ in layer_params]
    omega_params = [w for _, w_act, w_neg in layer_params for w in (w_act, w_neg)]
    all_params = theta_params + omega_params

    learn_omega = base.learnable_nonlinear and base.lr_omega > 0
    groups = [{"params": theta_params, "lr": base.lr_theta}]
    if learn_omega:
        groups.append({"params": omega_params, "lr": base.lr_omega})
    optimizer = LaneAdam(groups)

    # Per-lane RNG streams: the lane's override or its scenario-built
    # model, consumed only while the lane is active — the one-lane run's
    # exact consumption.
    variations = [
        _training_variation(config) if model is None else model
        for config, model in zip(configs, variations)
    ]
    sample_variation = _same_for_all_lanes(
        [model is not None and not model.is_nominal for model in variations],
        "training variation",
    )
    n_mc = base.n_mc_train if sample_variation else 1

    # Hoisted fixed validation ε per lane (the override, else the scenario
    # model at seed + VALIDATION_SEED_OFFSET), stacked once; compacted
    # alongside the parameter stack.
    per_lane_val = [
        _validation_epsilons(pnns[0], config, model)
        for config, model in zip(configs, val_variations)
    ]
    val_epsilons = None
    if _same_for_all_lanes(
        [draws is not None for draws in per_lane_val], "validation variation"
    ):
        val_epsilons = stack_epsilons(per_lane_val)

    stoppers = [EarlyStopping(patience=base.patience) for _ in range(n_lanes)]
    histories: List[List[Tuple[int, float, float]]] = [[] for _ in range(n_lanes)]
    epochs_run = [0] * n_lanes
    final_states: List[Optional[List[List[np.ndarray]]]] = [None] * n_lanes
    active: List[int] = list(range(n_lanes))

    def layer_arrays():
        # The optimizer rebinds ``param.data`` every step (and compaction
        # gathers it), so the stacked view is re-derived on demand.
        return [[param.data for param in layer] for layer in layer_params]

    def capture_state(position: int) -> List[List[np.ndarray]]:
        # One lane's [θ, 𝔴_act, 𝔴_neg] per layer (position = index into
        # the *current* stack).
        return [[param.data[position].copy() for param in layer] for layer in layer_params]

    tel = telemetry.get()
    trace = tel.enabled
    lane_epochs = 0
    shrink_events = 0
    train_start = perf_counter()

    epoch = -1
    for epoch in range(base.max_epochs):
        optimizer.zero_grad()
        epsilons = None
        if sample_variation:
            epsilons = stack_epsilons(
                [draw_epoch_epsilons(variations[lane], n_mc, pnns[0]) for lane in active]
            )
        arrays = layer_arrays()
        train_losses, grads = lane_net.loss_and_grads(
            arrays, x_train, y_train, loss=base.loss, epsilons=epsilons,
            need_omega_grads=learn_omega,
        )
        for (theta, w_act, w_neg), layer_grads in zip(layer_params, grads):
            theta.grad = layer_grads.theta
            w_act.grad = layer_grads.w_act
            w_neg.grad = layer_grads.w_neg
        optimizer.step()
        val_losses = lane_net.loss_values(
            layer_arrays(), x_val, y_val, loss=base.loss, epsilons=val_epsilons,
            tag="lanes.val",
        )
        lane_epochs += len(active)

        stopped_positions: List[int] = []
        for position, lane in enumerate(active):
            epochs_run[lane] = epoch + 1
            train_loss = float(train_losses[position])
            val_loss = float(val_losses[position])
            histories[lane].append((epoch, train_loss, val_loss))
            stoppers[lane].update(
                val_loss, epoch, state_fn=lambda position=position: capture_state(position)
            )
            if stoppers[lane].should_stop:
                stopped_positions.append(position)

        if stopped_positions:
            for position in stopped_positions:
                lane = active[position]
                # NaN-loss fallback: a lane that never improved keeps its
                # final arrays.
                if stoppers[lane].best_state is None:
                    final_states[lane] = capture_state(position)
                if trace:
                    tel.event(
                        "train.early_stop",
                        epoch=str(epoch),
                        best_epoch=str(stoppers[lane].best_epoch),
                        patience=str(base.patience),
                        lane=str(lane),
                        seed=str(configs[lane].seed),
                    )
            stopped = set(stopped_positions)
            keep = [i for i in range(len(active)) if i not in stopped]
            active = [active[i] for i in keep]
            shrink_events += 1
            if trace:
                tel.event(
                    "lanes.shrink",
                    epoch=str(epoch),
                    active=len(active),
                    stopped=len(stopped),
                )
            if not active:
                break
            for param in all_params:
                param.data = param.data[keep]         # gather: a copy per survivor
            optimizer.compact(keep)
            val_epsilons = compact_epsilons(val_epsilons, keep)

    # Lanes still active at max_epochs: capture their final arrays for the
    # never-improved fallback.
    for position, lane in enumerate(active):
        if stoppers[lane].best_state is None:
            final_states[lane] = capture_state(position)

    if trace:
        # Lanes that took the never-improved fallback saw no finite
        # validation loss in any epoch.
        nonfinite = [configs[lane].seed for lane in range(n_lanes)
                     if stoppers[lane].best_state is None]
        tel.event(
            "lanes.run",
            n_lanes=n_lanes,
            epochs_run=epoch + 1,
            lane_epochs=lane_epochs,
            shrink_events=shrink_events,
            n_nonfinite=len(nonfinite),
            nonfinite_seeds=nonfinite,
            dur_s=perf_counter() - train_start,
        )

    results = []
    for lane in range(n_lanes):
        stopper = stoppers[lane]
        state = stopper.best_state if stopper.best_state is not None else final_states[lane]
        assert state is not None
        for layer, (theta, w_act, w_neg) in zip(pnns[lane].layers, state):
            layer.theta, layer.w_act, layer.w_neg = theta, w_act, w_neg
        results.append(
            TrainResult(
                best_epoch=stopper.best_epoch,
                best_val_loss=stopper.best_value,
                epochs_run=epochs_run[lane],
                history=histories[lane],
            )
        )
    return results
