"""Tests for linear devices through full solves (stamps exercised in situ)."""

import numpy as np
import pytest

from repro.circuits import ACAnalysis, Circuit, DCAnalysis
from repro.circuits.devices import Device


class TestDeviceProtocol:
    def test_default_stamps_are_noops(self):
        """A bare Device is an open element: it stamps nothing."""
        ckt = Circuit("open")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "b", 1e3)
        ckt.resistor("R2", "b", "0", 1e3)
        ckt.add(Device("D1", ("a", "b")))
        sol = DCAnalysis(ckt).solve()
        assert sol.voltage("b") == pytest.approx(0.5, rel=1e-9)
        ac = ACAnalysis(ckt).sweep(sol, np.array([1e3]))
        assert abs(ac.transfer("b")[0]) == 0.0

    def test_node_names_stringified(self):
        dev = Device("D1", (0, "b"))
        assert dev.nodes == ("0", "b")

    def test_repr(self):
        assert "D1" in repr(Device("D1", ("a",)))


class TestCapacitorDC:
    def test_open_at_dc(self):
        """No DC current may flow through a capacitor branch."""
        ckt = Circuit("capdc")
        ckt.vsource("V1", "a", "0", 5.0)
        ckt.capacitor("C1", "a", "b", 1e-9)
        ckt.resistor("R1", "b", "0", 1e3)
        sol = DCAnalysis(ckt).solve()
        assert sol.voltage("b") == pytest.approx(0.0, abs=1e-5)


class TestVCVSLoading:
    def test_ideal_source_no_input_loading(self):
        """VCVS input draws no current: the driving divider is unloaded."""
        ckt = Circuit("vcvsload")
        ckt.vsource("V1", "a", "0", 2.0)
        ckt.resistor("R1", "a", "in", 1e3)
        ckt.resistor("R2", "in", "0", 1e3)
        ckt.vcvs("E1", "out", "0", "in", "0", 100.0)
        ckt.resistor("RL", "out", "0", 10.0)
        sol = DCAnalysis(ckt).solve()
        assert sol.voltage("in") == pytest.approx(1.0, rel=1e-6)
        assert sol.voltage("out") == pytest.approx(100.0, rel=1e-6)


class TestCurrentSourceAC:
    def test_ac_current_into_resistor(self):
        ckt = Circuit("iac")
        ckt.isource("I1", "0", "a", dc=0.0, ac=1e-3)
        ckt.resistor("R1", "a", "0", 2e3)
        dc = DCAnalysis(ckt).solve()
        ac = ACAnalysis(ckt).sweep(dc, np.array([1e3]))
        # gmin (1e-12 S) shunts the 0.5 mS load: ~4e-9 relative error
        assert abs(ac.transfer("a")[0]) == pytest.approx(2.0, rel=1e-6)

    def test_dc_only_source_silent_in_ac(self):
        ckt = Circuit("dcq")
        ckt.isource("I1", "0", "a", dc=1e-3, ac=0.0)
        ckt.resistor("R1", "a", "0", 1e3)
        dc = DCAnalysis(ckt).solve()
        ac = ACAnalysis(ckt).sweep(dc, np.array([1e3]))
        assert abs(ac.transfer("a")[0]) == pytest.approx(0.0, abs=1e-12)


class TestSourceStepScaling:
    def test_sources_scale_with_system_attribute(self):
        """Source stepping homotopy relies on stamps honouring the source scale."""
        from repro.circuits.dc import CircuitBatch

        ckt = Circuit("scale")
        ckt.vsource("V1", "a", "0", 10.0)
        ckt.resistor("R1", "a", "0", 1e3)
        batch = CircuitBatch([ckt])
        a, b = batch.systems(np.zeros((1, batch.n)), np.array([0.5]), np.array([0.0]))
        x = np.linalg.solve(a[0], b[0])
        assert x[ckt.node_index("a")] == pytest.approx(5.0)
