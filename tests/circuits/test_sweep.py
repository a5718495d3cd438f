"""DC transfer sweeps through the MNA backend."""

import numpy as np
import pytest

from repro.circuits import Circuit, nmos_180, pmos_180
from repro.sim import DCTransferSweep, MNABackend


def sweep(ckt, source, values):
    return MNABackend().run(ckt, [DCTransferSweep(source, tuple(values))]).sweep()


def inverter(name, pmos_width):
    ckt = Circuit(name)
    ckt.vsource("VDD", "vdd", "0", 1.8)
    ckt.vsource("VIN", "in", "0", 0.0)
    ckt.mosfet("MP", "out", "in", "vdd", "vdd", pmos_180, pmos_width, 0.5e-6)
    ckt.mosfet("MN", "out", "in", "0", "0", nmos_180, 10e-6, 0.5e-6)
    return ckt


class TestLinearSweep:
    def test_divider_tracks_source(self):
        ckt = Circuit("div")
        ckt.vsource("V1", "a", "0", 0.0)
        ckt.resistor("R1", "a", "b", 1e3)
        ckt.resistor("R2", "b", "0", 1e3)
        result = sweep(ckt, "V1", np.linspace(0, 4, 9))
        # gmin shunts the divider at the ~1e-9 relative level
        np.testing.assert_allclose(result.voltage("b"),
                                   np.linspace(0, 2, 9), rtol=1e-6, atol=1e-9)

    def test_source_value_restored(self):
        ckt = Circuit("restore")
        src = ckt.vsource("V1", "a", "0", 1.23)
        ckt.resistor("R1", "a", "0", 1e3)
        sweep(ckt, "V1", [0.0, 1.0])
        assert src.dc == pytest.approx(1.23)

    def test_current_source_sweep(self):
        ckt = Circuit("isweep")
        ckt.isource("I1", "0", "a", 0.0)
        ckt.resistor("R1", "a", "0", 2e3)
        result = sweep(ckt, "I1", [0.0, 1e-3, 2e-3])
        # gmin shunts the 0.5 mS load at the ~1e-9 relative level
        np.testing.assert_allclose(result.voltage("a"), [0.0, 2.0, 4.0],
                                   rtol=1e-6, atol=1e-9)

    def test_branch_current_view(self):
        ckt = Circuit("br")
        ckt.vsource("V1", "a", "0", 0.0)
        ckt.resistor("R1", "a", "0", 1e3)
        result = sweep(ckt, "V1", [1.0, 2.0])
        np.testing.assert_allclose(result.branch_current("V1"),
                                   [-1e-3, -2e-3], rtol=1e-9)


class TestInverterVTC:
    def test_transfer_curve_monotone_decreasing(self):
        vout = sweep(inverter("vtc", 20e-6), "VIN", np.linspace(0, 1.8, 19)).voltage("out")
        assert vout[0] > 1.75
        assert vout[-1] < 0.05
        assert np.all(np.diff(vout) <= 1e-9)

    def test_switching_threshold_in_middle(self):
        vin = np.linspace(0, 1.8, 37)
        vout = sweep(inverter("vth", 30e-6), "VIN", vin).voltage("out")
        crossing = vin[int(np.argmin(np.abs(vout - 0.9)))]
        assert 0.5 < crossing < 1.3


class TestValidation:
    def test_rejects_non_source(self):
        ckt = Circuit("ns")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        with pytest.raises(TypeError):
            sweep(ckt, "R1", [0.0, 1.0])
