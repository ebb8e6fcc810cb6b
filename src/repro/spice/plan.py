"""Compiled stamp plans: a ``Netlist`` lowered to index arrays.

The surrogate pipeline runs hundreds of thousands of DC solves over the
*same topology* with different element values.  :func:`compile_netlist`
resolves the topology once: the netlist is lowered into flat integer index
arrays (resistor node pairs, voltage-source rows, EGT terminal triples)
plus template element values, so the batched Newton-Raphson loop
(:mod:`repro.spice.batch`) never touches a string or a dict.

A :class:`ParamBatch` carries per-lane element overrides (resistances and
EGT geometries) for ``B`` independent operating points sharing the plan's
topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.spice.netlist import GROUND, Netlist
from repro.spice.validate import validate_netlist

#: Index used for the ground node in compiled index arrays.
GROUND_INDEX = -1


@dataclass(frozen=True, eq=False)
class StampPlan:
    """A ``Netlist`` lowered to index arrays for the batched solver.

    Node indices follow ``Netlist.nodes()`` order; ``-1`` marks ground.
    Device columns follow netlist insertion order, and the batched stamps
    accumulate matrix entries in that order.
    """

    title: str
    nodes: Tuple[str, ...]

    # resistors: node pair + template conductance-defining resistance
    resistor_names: Tuple[str, ...]
    res_a: np.ndarray          # (n_res,) int64, -1 = ground
    res_b: np.ndarray          # (n_res,) int64
    res_resistance: np.ndarray  # (n_res,) template values in ohms

    # ideal voltage sources: node pair + template voltage
    source_names: Tuple[str, ...]
    src_p: np.ndarray          # (n_src,) int64
    src_m: np.ndarray          # (n_src,) int64
    src_voltage: np.ndarray    # (n_src,)

    # EGTs: terminal triples + template geometry + per-device model params
    egt_names: Tuple[str, ...]
    egt_d: np.ndarray          # (n_egt,) int64
    egt_g: np.ndarray          # (n_egt,) int64
    egt_s: np.ndarray          # (n_egt,) int64
    egt_width: np.ndarray      # (n_egt,)
    egt_length: np.ndarray     # (n_egt,)
    egt_k_prime: np.ndarray    # (n_egt,)
    egt_v_threshold: np.ndarray  # (n_egt,)
    egt_phi: np.ndarray        # (n_egt,)
    egt_channel_lambda: np.ndarray  # (n_egt,)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_sources(self) -> int:
        return len(self.source_names)

    @property
    def n_resistors(self) -> int:
        return len(self.resistor_names)

    @property
    def n_egts(self) -> int:
        return len(self.egt_names)

    @property
    def size(self) -> int:
        """MNA system size: node voltages plus source branch currents."""
        return self.n_nodes + self.n_sources

    def node_index(self, name: str) -> int:
        if name == GROUND:
            return GROUND_INDEX
        return self.nodes.index(name)

    def source_index(self, name: str) -> int:
        try:
            return self.source_names.index(name)
        except ValueError:
            raise KeyError(f"no voltage source named {name!r}") from None

    def resistor_index(self, name: str) -> int:
        try:
            return self.resistor_names.index(name)
        except ValueError:
            raise KeyError(f"no resistor named {name!r}") from None

    def __repr__(self) -> str:
        return (
            f"StampPlan({self.title!r}, nodes={self.n_nodes}, "
            f"R={self.n_resistors}, V={self.n_sources}, T={self.n_egts})"
        )


@dataclass
class ParamBatch:
    """Per-lane element values for ``B`` operating points on one plan.

    Any field left as ``None`` falls back to the plan's template values.
    Column order follows the plan's device order (``resistor_names`` /
    ``egt_names``).
    """

    resistances: Optional[np.ndarray] = None  # (B, n_res) ohms
    widths: Optional[np.ndarray] = None       # (B, n_egt) µm
    lengths: Optional[np.ndarray] = None      # (B, n_egt) µm

    def __post_init__(self):
        for field_name in ("resistances", "widths", "lengths"):
            value = getattr(self, field_name)
            if value is not None:
                array = np.asarray(value, dtype=np.float64)
                if array.ndim != 2:
                    raise ValueError(f"{field_name} must be a (B, n_devices) array")
                setattr(self, field_name, array)
        sizes = {a.shape[0] for a in self._arrays()}
        if len(sizes) > 1:
            raise ValueError(f"inconsistent batch sizes in ParamBatch: {sorted(sizes)}")

    def _arrays(self):
        return [
            a for a in (self.resistances, self.widths, self.lengths) if a is not None
        ]

    @property
    def batch_size(self) -> Optional[int]:
        arrays = self._arrays()
        return int(arrays[0].shape[0]) if arrays else None

    def take(self, lanes: np.ndarray) -> "ParamBatch":
        """Sub-batch restricted to ``lanes`` (used by sweeps to drop lanes)."""
        pick = lambda a: None if a is None else a[lanes]
        return ParamBatch(
            resistances=pick(self.resistances),
            widths=pick(self.widths),
            lengths=pick(self.lengths),
        )


def compile_netlist(netlist: Netlist) -> StampPlan:
    """Validate ``netlist`` and lower it into a :class:`StampPlan`.

    Node and element names become index arrays.  Raises
    :class:`~repro.spice.validate.NetlistError` when the netlist cannot be
    solved.
    """
    validate_netlist(netlist)

    nodes = tuple(netlist.nodes())
    index: Dict[str, int] = {name: i for i, name in enumerate(nodes)}

    def node_idx(name: str) -> int:
        return GROUND_INDEX if name == GROUND else index[name]

    res_a = np.array([node_idx(r.node_a) for r in netlist.resistors], dtype=np.int64)
    res_b = np.array([node_idx(r.node_b) for r in netlist.resistors], dtype=np.int64)
    src_p = np.array([node_idx(s.node_plus) for s in netlist.sources], dtype=np.int64)
    src_m = np.array([node_idx(s.node_minus) for s in netlist.sources], dtype=np.int64)
    egt_d = np.array([node_idx(t.drain) for t in netlist.transistors], dtype=np.int64)
    egt_g = np.array([node_idx(t.gate) for t in netlist.transistors], dtype=np.int64)
    egt_s = np.array([node_idx(t.source) for t in netlist.transistors], dtype=np.int64)

    return StampPlan(
        title=netlist.title,
        nodes=nodes,
        resistor_names=tuple(r.name for r in netlist.resistors),
        res_a=res_a,
        res_b=res_b,
        res_resistance=np.array(
            [r.resistance for r in netlist.resistors], dtype=np.float64
        ),
        source_names=tuple(s.name for s in netlist.sources),
        src_p=src_p,
        src_m=src_m,
        src_voltage=np.array([s.voltage for s in netlist.sources], dtype=np.float64),
        egt_names=tuple(t.name for t in netlist.transistors),
        egt_d=egt_d,
        egt_g=egt_g,
        egt_s=egt_s,
        egt_width=np.array([t.width for t in netlist.transistors], dtype=np.float64),
        egt_length=np.array([t.length for t in netlist.transistors], dtype=np.float64),
        egt_k_prime=np.array(
            [t.model.k_prime for t in netlist.transistors], dtype=np.float64
        ),
        egt_v_threshold=np.array(
            [t.model.v_threshold for t in netlist.transistors], dtype=np.float64
        ),
        egt_phi=np.array([t.model.phi for t in netlist.transistors], dtype=np.float64),
        egt_channel_lambda=np.array(
            [t.model.channel_lambda for t in netlist.transistors], dtype=np.float64
        ),
    )
