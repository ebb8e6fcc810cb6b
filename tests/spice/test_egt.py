"""EGT compact model: physical sanity and derivative correctness.

Every check evaluates :func:`~repro.spice.egt.id_gm_gds`, the kernel the
DC solver stamps, at β = k'·W/L of the default model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spice import Netlist, ParamBatch, compile_netlist, solve_dc_batch
from repro.spice.egt import EGTModel, id_gm_gds

MODEL = EGTModel()


def ids(vgs, vds, width, length):
    """``(id, gm, gds)`` of ``MODEL`` at one bias point and geometry."""
    current, gm, gds = id_gm_gds(
        vgs, vds, MODEL.k_prime * width / length,
        MODEL.v_threshold, MODEL.phi, MODEL.channel_lambda,
    )
    return float(current), float(gm), float(gds)


class TestBasicBehaviour:
    def test_off_below_threshold(self):
        current, _, _ = ids(vgs=-0.5, vds=0.5, width=400, length=30)
        assert current < 1e-9

    def test_on_above_threshold(self):
        current, _, _ = ids(vgs=0.8, vds=0.8, width=400, length=30)
        assert current > 1e-6

    def test_current_increases_with_vgs(self):
        currents = [
            ids(vgs, 0.5, 400, 30)[0] for vgs in np.linspace(0.0, 1.0, 9)
        ]
        assert all(b >= a for a, b in zip(currents, currents[1:]))

    def test_current_increases_with_vds(self):
        currents = [
            ids(0.6, vds, 400, 30)[0] for vds in np.linspace(0.0, 1.0, 9)
        ]
        assert all(b >= a for a, b in zip(currents, currents[1:]))

    def test_zero_vds_zero_current(self):
        current, _, _ = ids(vgs=0.7, vds=0.0, width=400, length=30)
        assert current == pytest.approx(0.0, abs=1e-15)

    def test_geometry_scaling(self):
        wide, _, _ = ids(0.6, 0.6, width=800, length=10)
        narrow, _, _ = ids(0.6, 0.6, width=200, length=70)
        assert wide / narrow == pytest.approx((800 / 10) / (200 / 70), rel=1e-9)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Netlist().add_egt("T1", "d", "g", "0", 0.0, 30.0)
        netlist = Netlist()
        netlist.add_voltage_source("Vdd", "d", "0", 1.0)
        netlist.add_egt("T1", "d", "d", "0", 400.0, 30.0)
        plan = compile_netlist(netlist)
        for width, length in ((0.0, 30.0), (400.0, -1.0)):
            bad = ParamBatch(widths=np.array([[width]]), lengths=np.array([[length]]))
            with pytest.raises(ValueError, match="dimensions must be positive"):
                solve_dc_batch(plan, bad)


class TestSymmetry:
    def test_odd_in_vds(self):
        """Id(vgs, -vds) must equal -Id(vgd, vds) with roles swapped."""
        forward, _, _ = ids(vgs=0.5, vds=0.3, width=400, length=30)
        # Swap: with vgs measured from the new source (= old drain).
        backward, _, _ = ids(vgs=0.5 - (-0.3), vds=0.3, width=400, length=30)
        reported, _, _ = ids(vgs=0.5, vds=-0.3, width=400, length=30)
        assert reported == pytest.approx(-backward, rel=1e-12)

    def test_continuity_at_vds_zero(self):
        just_above, _, _ = ids(0.6, 1e-9, 400, 30)
        just_below, _, _ = ids(0.6, -1e-9, 400, 30)
        assert abs(just_above - just_below) < 1e-12


class TestDerivatives:
    @given(
        vgs=st.floats(-0.3, 1.0),
        vds=st.floats(-0.8, 0.8),
        width=st.floats(200, 800),
        length=st.floats(10, 70),
    )
    @settings(max_examples=80, deadline=None)
    def test_gm_matches_finite_difference(self, vgs, vds, width, length):
        h = 1e-7
        _, gm, _ = ids(vgs, vds, width, length)
        plus, _, _ = ids(vgs + h, vds, width, length)
        minus, _, _ = ids(vgs - h, vds, width, length)
        numeric = (plus - minus) / (2 * h)
        assert gm == pytest.approx(numeric, rel=1e-4, abs=1e-12)

    @given(
        vgs=st.floats(-0.3, 1.0),
        vds=st.floats(-0.8, 0.8),
        width=st.floats(200, 800),
        length=st.floats(10, 70),
    )
    @settings(max_examples=80, deadline=None)
    def test_gds_matches_finite_difference(self, vgs, vds, width, length):
        h = 1e-7
        _, _, gds = ids(vgs, vds, width, length)
        plus, _, _ = ids(vgs, vds + h, width, length)
        minus, _, _ = ids(vgs, vds - h, width, length)
        numeric = (plus - minus) / (2 * h)
        assert gds == pytest.approx(numeric, rel=1e-4, abs=1e-12)
