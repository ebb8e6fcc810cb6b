"""Crossbar tiling compiler: place a trained pNN onto fixed-size arrays.

A printed crossbar is fabricated as a physical array with a bounded number
of rows (input lines) and columns (output summing lines).  A trained layer
whose θ matrix exceeds those bounds must be *tiled*: its crossbar is
partitioned into contiguous row × column blocks, one physical array per
block, and the partial currents of the row blocks that share an output
column are joined on an inter-tile summing node.  Because the crossbar
computes a conductance-weighted mean (Eq. 1 of the paper), splitting the
rows of a column across tiles and shorting the tile outputs together is
electrically exact — the parallel conductances simply re-sum.

Every physical tile reserves two of its rows for the local bias and
ground rails (printed arrays distribute the supply per-array rather than
routing one global hairball), so a tile of ``max_rows`` rows accepts at
most ``max_rows - 2`` data inputs.  The bias/ground *devices* of a column
block are placed according to :attr:`TileSpec.bias_policy`:

``"first"``
    The rail resistors are printed once, in the first row-block tile of
    each column block.  Other tiles leave their rail rows unpopulated.
``"split"``
    Each of the ``n`` row-block tiles prints a rail resistor of value
    ``n · R`` — the parallel combination restores the original
    conductance exactly, and every tile carries the same rail load
    (better for drive symmetry and defect tolerance).

The unbounded spec (``TileSpec()``; no row/column limit) produces exactly
one tile per layer whose device matrix *is* the layer's printable matrix —
the legacy flat netlist is this width-∞ special case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.params import PNNParams
from repro.core.pnn import PrintedNeuralNetwork
from repro import telemetry

from .report import DesignReport, design_report

__all__ = [
    "TileSpec",
    "Tile",
    "TiledLayer",
    "TiledDesign",
    "TilingError",
    "compile_tiling",
    "iter_tile_devices",
]

#: Rows every bounded tile reserves for its local bias and ground rails.
RAIL_ROWS = 2


class TilingError(ValueError):
    """A design cannot be placed under the given :class:`TileSpec`."""


@dataclass(frozen=True)
class TileSpec:
    """Physical constraints of one printable crossbar array.

    ``max_rows``/``max_cols`` of ``None`` mean unbounded (single tile per
    layer, the legacy export).  A bounded ``max_rows`` must leave at least
    one data row after the two reserved rail rows.
    """

    max_rows: Optional[int] = None
    max_cols: Optional[int] = None
    bias_policy: str = "first"
    inverter_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_rows is not None and self.max_rows < RAIL_ROWS + 1:
            raise TilingError(
                f"max_rows={self.max_rows} leaves no data rows after the "
                f"{RAIL_ROWS} reserved bias/ground rail rows (need >= {RAIL_ROWS + 1})"
            )
        if self.max_cols is not None and self.max_cols < 1:
            raise TilingError(f"max_cols must be >= 1, got {self.max_cols}")
        if self.bias_policy not in ("first", "split"):
            raise TilingError(
                f"bias_policy must be 'first' or 'split', got {self.bias_policy!r}"
            )
        if self.inverter_budget is not None and self.inverter_budget < 0:
            raise TilingError(f"inverter_budget must be >= 0, got {self.inverter_budget}")

    @property
    def is_unbounded(self) -> bool:
        return self.max_rows is None and self.max_cols is None

    @property
    def data_rows_per_tile(self) -> Optional[int]:
        if self.max_rows is None:
            return None
        return self.max_rows - RAIL_ROWS

    def describe(self) -> str:
        rows = "inf" if self.max_rows is None else str(self.max_rows)
        cols = "inf" if self.max_cols is None else str(self.max_cols)
        return f"{rows}x{cols} bias={self.bias_policy}"


@dataclass(frozen=True)
class Tile:
    """One physical crossbar array of a tiled layer.

    ``resistances`` has one row per data row of the block plus the two
    rail rows (bias then ground, always the last two local rows); ``inf``
    marks an unpopulated device site.  ``row_map`` gives the *global*
    augmented-θ row index for each local row, so downstream consumers
    (the netlist emitter, the deploy verifier) can look up effective
    device values without re-deriving the placement.  ``r_scale`` is the
    factor applied to the nominal physical resistance at each local row —
    1 everywhere except rail rows under the ``"split"`` policy, where it
    equals the number of row blocks sharing the rail conductance.
    """

    layer: int
    row_block: int
    col_block: int
    row_start: int              # global data-row range [row_start, row_stop)
    row_stop: int
    col_start: int              # global output-column range [col_start, col_stop)
    col_stop: int
    resistances: np.ndarray     # (n_data_rows + RAIL_ROWS, n_cols), ohms
    negated: np.ndarray         # bool, same shape
    row_map: np.ndarray         # (n_data_rows + RAIL_ROWS,) global θ row index
    r_scale: np.ndarray         # (n_data_rows + RAIL_ROWS,) resistance multiplier

    @property
    def name(self) -> str:
        return f"l{self.layer}_t{self.row_block}_{self.col_block}"

    @property
    def n_rows(self) -> int:
        return int(self.resistances.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.resistances.shape[1])

    @property
    def n_devices(self) -> int:
        return int(np.isfinite(self.resistances).sum())

    @property
    def n_inverters(self) -> int:
        placed = np.isfinite(self.resistances)
        return int((placed & self.negated).sum())


@dataclass(frozen=True)
class TiledLayer:
    """All tiles of one layer, row-major over (row_block, col_block)."""

    index: int
    n_inputs: int               # data inputs I (augmented θ has I+2 rows)
    n_outputs: int
    n_row_blocks: int
    n_col_blocks: int
    tiles: Tuple[Tile, ...]
    skipped_zero: int
    skipped_load_bearing: int

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def n_devices(self) -> int:
        return sum(t.n_devices for t in self.tiles)

    @property
    def n_inverters(self) -> int:
        return sum(t.n_inverters for t in self.tiles)

    @property
    def summing_columns(self) -> Tuple[int, ...]:
        """Output columns fed by more than one row-block tile."""
        if self.n_row_blocks <= 1:
            return ()
        feeders = np.zeros(self.n_outputs, dtype=np.int64)
        for tile in self.tiles:
            cols = np.arange(tile.col_start, tile.col_stop)
            feeders[cols] += (np.isfinite(tile.resistances).any(axis=0)[: len(cols)]).astype(
                np.int64
            )
        return tuple(int(j) for j in np.nonzero(feeders > 1)[0])


@dataclass(frozen=True)
class TiledDesign:
    """A full pNN placed onto physical crossbar tiles."""

    spec: TileSpec
    layer_sizes: Tuple[int, ...]
    layers: Tuple[TiledLayer, ...]
    report: DesignReport = field(repr=False)

    @property
    def n_tiles(self) -> int:
        return sum(layer.n_tiles for layer in self.layers)

    @property
    def n_devices(self) -> int:
        return sum(layer.n_devices for layer in self.layers)

    @property
    def n_inverters(self) -> int:
        return sum(layer.n_inverters for layer in self.layers)

    @property
    def n_summing_nodes(self) -> int:
        return sum(len(layer.summing_columns) for layer in self.layers)

    @property
    def skipped_zero(self) -> int:
        return sum(layer.skipped_zero for layer in self.layers)

    @property
    def skipped_load_bearing(self) -> int:
        return sum(layer.skipped_load_bearing for layer in self.layers)

    @property
    def is_untiled(self) -> bool:
        return self.spec.is_unbounded

    @property
    def utilization(self) -> float:
        """Placed devices over total device sites of the allocated tiles."""
        capacity = 0
        for layer in self.layers:
            for tile in layer.tiles:
                if self.spec.is_unbounded:
                    capacity += tile.n_rows * tile.n_cols
                else:
                    rows = self.spec.max_rows if self.spec.max_rows is not None else tile.n_rows
                    cols = self.spec.max_cols if self.spec.max_cols is not None else tile.n_cols
                    capacity += rows * cols
        return self.n_devices / capacity if capacity else 0.0


def _block_ranges(total: int, block: Optional[int]) -> List[Tuple[int, int]]:
    if block is None or block >= total:
        return [(0, total)]
    return [(start, min(start + block, total)) for start in range(0, total, block)]


def iter_tile_devices(tile: Tile) -> Iterator[Tuple[int, int, int, int, float, bool]]:
    """Yield placed devices of a tile in canonical emission order.

    Order is column-major (all rows of local column 0, then column 1, …)
    to match the legacy per-output-column netlist layout.  Yields
    ``(local_row, local_col, global_row, global_col, resistance, negated)``.
    The netlist emitter and the deploy verifier both iterate through this
    generator, which is what keeps the emitted device order and the
    ``ParamBatch`` resistance order in exact correspondence.
    """
    finite = np.isfinite(tile.resistances)
    for lc in range(tile.n_cols):
        gc = tile.col_start + lc
        for lr in range(tile.n_rows):
            if not finite[lr, lc]:
                continue
            yield (
                lr,
                lc,
                int(tile.row_map[lr]),
                gc,
                float(tile.resistances[lr, lc]),
                bool(tile.negated[lr, lc]),
            )


def _compile_layer(index: int, layer_report, spec: TileSpec) -> TiledLayer:
    resistances = layer_report.crossbar_resistances
    negated = layer_report.negated_inputs
    n_rows_aug, n_outputs = resistances.shape
    n_inputs = n_rows_aug - RAIL_ROWS
    bias_row, ground_row = n_inputs, n_inputs + 1

    row_ranges = _block_ranges(n_inputs, spec.data_rows_per_tile)
    col_ranges = _block_ranges(n_outputs, spec.max_cols)
    n_row_blocks = len(row_ranges)

    tiles: List[Tile] = []
    for rb, (r0, r1) in enumerate(row_ranges):
        for cb, (c0, c1) in enumerate(col_ranges):
            n_data = r1 - r0
            n_cols = c1 - c0
            block_r = np.full((n_data + RAIL_ROWS, n_cols), np.inf)
            block_neg = np.zeros((n_data + RAIL_ROWS, n_cols), dtype=bool)
            block_scale = np.ones(n_data + RAIL_ROWS)
            block_r[:n_data] = resistances[r0:r1, c0:c1]
            block_neg[:n_data] = negated[r0:r1, c0:c1]
            rail_src = resistances[bias_row : ground_row + 1, c0:c1]
            rail_neg = negated[bias_row : ground_row + 1, c0:c1]
            if spec.bias_policy == "first":
                if rb == 0:
                    block_r[n_data:] = rail_src
                    block_neg[n_data:] = rail_neg
            else:  # split: each row block prints n·R; parallel sum restores g
                block_r[n_data:] = rail_src * n_row_blocks
                block_neg[n_data:] = rail_neg
                block_scale[n_data:] = n_row_blocks
            # The ground rail sits at 0 V: routing it through a negation
            # circuit is meaningless, and the kernels force the down row
            # positive (`positive_route_mask`), so the rail is never negated.
            block_neg[-1, :] = False
            row_map = np.concatenate(
                [np.arange(r0, r1), np.array([bias_row, ground_row])]
            ).astype(np.int64)
            tile = Tile(
                layer=index,
                row_block=rb,
                col_block=cb,
                row_start=r0,
                row_stop=r1,
                col_start=c0,
                col_stop=c1,
                resistances=block_r,
                negated=block_neg,
                row_map=row_map,
                r_scale=block_scale,
            )
            if spec.inverter_budget is not None and tile.n_inverters > spec.inverter_budget:
                raise TilingError(
                    f"tile {tile.name} needs {tile.n_inverters} negation circuits, "
                    f"over the budget of {spec.inverter_budget} per tile"
                )
            tiles.append(tile)

    return TiledLayer(
        index=index,
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        n_row_blocks=n_row_blocks,
        n_col_blocks=len(col_ranges),
        tiles=tuple(tiles),
        skipped_zero=layer_report.skipped_zero,
        skipped_load_bearing=layer_report.skipped_load_bearing,
    )


def compile_tiling(
    design: Union[PrintedNeuralNetwork, PNNParams, DesignReport],
    spec: TileSpec = TileSpec(),
) -> TiledDesign:
    """Partition a trained design onto physical crossbar tiles.

    Accepts a live network, a frozen :class:`PNNParams` snapshot, or an
    already-extracted :class:`DesignReport`.  Device *values* are taken
    from the design report (the printable nominal resistances); tiling
    only decides placement, so the compiled design carries exactly the
    conductances of the flat report — a conservation law the tests check.
    """
    report = design if isinstance(design, DesignReport) else design_report(design)
    tel = telemetry.get()
    with tel.span(
        "export.tile",
        spec=spec.describe(),
        layers=len(report.layers),
    ):
        layers = tuple(
            _compile_layer(layer.index, layer, spec) for layer in report.layers
        )
        tiled = TiledDesign(
            spec=spec,
            layer_sizes=tuple(report.layer_sizes),
            layers=layers,
            report=report,
        )
        if tel.enabled:
            tel.count("export.tiles", tiled.n_tiles)
            tel.count("export.devices", tiled.n_devices)
            tel.count("export.inverters", tiled.n_inverters)
            if tiled.skipped_zero or tiled.skipped_load_bearing:
                tel.count("export.skipped_devices", tiled.skipped_zero + tiled.skipped_load_bearing)
            if tiled.skipped_load_bearing:
                tel.count("export.load_bearing_skips", tiled.skipped_load_bearing)
    return tiled
