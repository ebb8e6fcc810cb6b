"""Tiling compiler: placement semantics, edge cases, conservation laws."""

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork
from repro.core.params import snapshot_params
from repro.exporting import TileSpec, TilingError, compile_tiling, design_report
from repro.exporting.tiling import RAIL_ROWS, iter_tile_devices
from repro.surrogate import AnalyticSurrogate

SURROGATES = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


def make_pnn(sizes, seed=0):
    return PrintedNeuralNetwork(sizes, SURROGATES, rng=np.random.default_rng(seed))


class TestTileSpec:
    def test_unbounded_default(self):
        spec = TileSpec()
        assert spec.is_unbounded
        assert spec.data_rows_per_tile is None

    def test_rows_must_leave_data_rows(self):
        with pytest.raises(TilingError):
            TileSpec(max_rows=RAIL_ROWS)
        TileSpec(max_rows=RAIL_ROWS + 1)  # smallest legal tile

    def test_invalid_cols_and_policy(self):
        with pytest.raises(TilingError):
            TileSpec(max_cols=0)
        with pytest.raises(TilingError):
            TileSpec(bias_policy="everywhere")
        with pytest.raises(TilingError):
            TileSpec(inverter_budget=-1)


class TestUnboundedCompile:
    def test_single_tile_per_layer(self):
        pnn = make_pnn([3, 3, 2])
        tiled = compile_tiling(pnn)
        assert tiled.is_untiled
        for layer in tiled.layers:
            assert layer.n_tiles == 1
            assert layer.summing_columns == ()
        # the single tile carries exactly the report matrix
        report = design_report(pnn)
        for layer, lr in zip(tiled.layers, report.layers):
            tile = layer.tiles[0]
            np.testing.assert_array_equal(tile.resistances, lr.crossbar_resistances)
        assert tiled.n_devices == report.total_printed_resistors

    def test_accepts_params_snapshot_and_report(self):
        pnn = make_pnn([3, 3, 2])
        by_pnn = compile_tiling(pnn)
        by_params = compile_tiling(snapshot_params(pnn))
        by_report = compile_tiling(design_report(pnn))
        assert by_pnn.n_devices == by_params.n_devices == by_report.n_devices


class TestBoundedCompile:
    def test_layer_wider_than_one_tile(self):
        # layer 0 crossbar: 8 rows (6 data + rails) x 10 cols → 2 col blocks
        pnn = make_pnn([6, 10, 4])
        tiled = compile_tiling(pnn, TileSpec(max_rows=8, max_cols=8))
        layer0 = tiled.layers[0]
        assert (layer0.n_row_blocks, layer0.n_col_blocks) == (1, 2)
        assert layer0.tiles[0].col_stop == 8
        assert layer0.tiles[1].col_start == 8 and layer0.tiles[1].col_stop == 10
        # layer 1: 10 data rows over 6-row blocks → 2 row blocks
        layer1 = tiled.layers[1]
        assert (layer1.n_row_blocks, layer1.n_col_blocks) == (2, 1)
        assert len(layer1.summing_columns) == 4

    def test_exact_fit_boundary(self):
        # 6 data rows into tiles of exactly 6 data rows → one block, and
        # one more input would spill into a second block.
        spec = TileSpec(max_rows=8, max_cols=16)
        assert compile_tiling(make_pnn([6, 4, 2]), spec).layers[0].n_row_blocks == 1
        assert compile_tiling(make_pnn([7, 4, 2]), spec).layers[0].n_row_blocks == 2

    def test_device_conservation_policy_first(self):
        pnn = make_pnn([6, 10, 4])
        report = design_report(pnn)
        tiled = compile_tiling(pnn, TileSpec(max_rows=8, max_cols=8))
        assert tiled.n_devices == report.total_printed_resistors

    def test_bias_rows_duplicated_under_split(self):
        pnn = make_pnn([6, 10, 4])
        report = design_report(pnn)
        tiled = compile_tiling(
            pnn, TileSpec(max_rows=8, max_cols=8, bias_policy="split")
        )
        # layer 1 has 2 row blocks x 1 col block: its 2x4 rail devices are
        # printed once more than in the flat design.
        extra = 2 * 4
        assert tiled.n_devices == report.total_printed_resistors + extra

    def test_split_rails_conserve_conductance(self):
        pnn = make_pnn([6, 10, 4])
        report = design_report(pnn)
        tiled = compile_tiling(
            pnn, TileSpec(max_rows=8, max_cols=8, bias_policy="split")
        )
        flat = report.layers[1].crossbar_resistances
        layer = tiled.layers[1]
        n_in = layer.n_inputs
        for j in range(layer.n_outputs):
            for rail, global_row in (("bias", n_in), ("ground", n_in + 1)):
                parallel = 0.0
                for tile in layer.tiles:
                    if not (tile.col_start <= j < tile.col_stop):
                        continue
                    local = tile.resistances[-RAIL_ROWS + (global_row - n_in), j - tile.col_start]
                    if np.isfinite(local):
                        parallel += 1.0 / local
                assert parallel == pytest.approx(1.0 / flat[global_row, j], rel=1e-12)

    def test_first_policy_puts_rails_in_first_row_block(self):
        pnn = make_pnn([6, 10, 4])
        tiled = compile_tiling(pnn, TileSpec(max_rows=8, max_cols=8))
        layer = tiled.layers[1]
        for tile in layer.tiles:
            rails = tile.resistances[-RAIL_ROWS:]
            if tile.row_block == 0:
                assert np.isfinite(rails).all()
            else:
                assert not np.isfinite(rails).any()

    def test_row_map_tracks_global_rows(self):
        pnn = make_pnn([6, 10, 4])
        tiled = compile_tiling(pnn, TileSpec(max_rows=8, max_cols=8))
        report = design_report(pnn)
        for layer, lr in zip(tiled.layers, report.layers):
            for tile in layer.tiles:
                for _lr_, _lc, grow, gcol, resistance, negated in iter_tile_devices(tile):
                    if tile.r_scale[_lr_] == 1.0:
                        assert resistance == lr.crossbar_resistances[grow, gcol]
                    assert negated == (
                        lr.negated_inputs[grow, gcol] and grow != layer.n_inputs + 1
                    )

    def test_inverter_budget_enforced(self):
        pnn = make_pnn([6, 10, 4])
        for layer in pnn.layers:
            layer.theta[:] = np.abs(layer.theta)
        pnn.layers[0].theta[:4, :4] = -np.abs(pnn.layers[0].theta[:4, :4])
        compile_tiling(pnn, TileSpec(max_rows=8, max_cols=8, inverter_budget=16))
        with pytest.raises(TilingError, match="budget"):
            compile_tiling(pnn, TileSpec(max_rows=8, max_cols=8, inverter_budget=15))

    def test_utilization_bounds(self):
        pnn = make_pnn([6, 10, 4])
        tiled = compile_tiling(pnn, TileSpec(max_rows=8, max_cols=8))
        assert 0.0 < tiled.utilization <= 1.0

    def test_skipped_accounting_propagates(self):
        pnn = make_pnn([6, 10, 4])
        pnn.layers[0].theta[0, 0] = 0.0
        pnn.layers[1].theta[0, 0] = np.nan
        tiled = compile_tiling(pnn, TileSpec(max_rows=8, max_cols=8))
        assert tiled.skipped_zero == 1
        assert tiled.skipped_load_bearing == 1


class TestTelemetry:
    def test_tile_span_and_counters(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import read_events, summarize_events

        telemetry.enable(tmp_path / "tel")
        try:
            pnn = make_pnn([6, 10, 4])
            tiled = compile_tiling(pnn, TileSpec(max_rows=8, max_cols=8))
            telemetry.get().merge()
        finally:
            telemetry.disable()
        events = read_events(tmp_path / "tel")
        spans = [e for e in events if e.get("kind") == "span" and e["name"] == "export.tile"]
        assert len(spans) == 1
        counters = summarize_events(events)["counters"]
        assert counters["export.tiles"] == tiled.n_tiles
        assert counters["export.devices"] == tiled.n_devices
