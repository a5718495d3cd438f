"""Tests for the MNA stamp patterns, through compiled stamp plans."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.dc import CircuitBatch
from repro.circuits.devices import Device
from repro.circuits.mna import plan_for


def dc_system(circuit, x=None, scale=1.0, gmin=0.0):
    """The DC system ``(A, b)`` of one circuit at iterate ``x``."""
    batch = CircuitBatch([circuit])
    x = np.zeros((1, batch.n)) if x is None else np.asarray(x, dtype=float)[None]
    a, b = batch.systems(x, np.array([scale]), np.array([gmin]))
    return a[0], b[0]


def ac_system(circuit, omega, gmin=0.0):
    """The small-signal system ``(Y, b)`` of a linear circuit at ``omega``."""
    plan = plan_for(circuit)
    values = plan.gather([circuit])
    _, op = plan.operating_points(values, np.zeros((1, plan.n)))
    y, b = plan.ac_system(values, op, np.array([omega]), gmin)
    return y[0], b[0]


class TestMNASystem:
    def test_ground_stamps_dropped(self):
        ckt = Circuit("gnd")
        ckt.resistor("R1", "a", "0", 0.2)
        ckt.isource("I1", "a", "0", 1.0)
        a, b = dc_system(ckt)
        assert a.shape == (1, 1)
        assert a[0, 0] == 5.0
        assert b[0] == -1.0

    def test_conductance_stamp_pattern(self):
        ckt = Circuit("g")
        ckt.resistor("R1", "a", "b", 0.5)
        a, _ = dc_system(ckt)
        expected = np.array([[2.0, -2.0], [-2.0, 2.0]])
        np.testing.assert_allclose(a, expected)

    def test_conductance_to_ground(self):
        ckt = Circuit("g0")
        ckt.resistor("R1", "a", "0", 1.0 / 3.0)
        ckt.capacitor("C1", "b", "0", 1e-12)  # open at DC
        a, _ = dc_system(ckt)
        assert a[0, 0] == pytest.approx(3.0)
        assert a[1, 1] == 0.0

    def test_vccs_stamp_pattern(self):
        ckt = Circuit("vccs")
        ckt.vccs("G1", "a", "b", "c", "d", 1e-3)
        a, _ = dc_system(ckt)
        assert a[0, 2] == 1e-3
        assert a[0, 3] == -1e-3
        assert a[1, 2] == -1e-3
        assert a[1, 3] == 1e-3

    def test_current_injection(self):
        ckt = Circuit("inj")
        ckt.isource("I1", "a", "b", 1e-3)
        _, b = dc_system(ckt)
        assert b[0] == -1e-3
        assert b[1] == 1e-3

    def test_voltage_branch(self):
        ckt = Circuit("vb")
        ckt.vsource("V1", "a", "b", 5.0)
        a, b = dc_system(ckt)
        assert a[0, 2] == 1.0
        assert a[1, 2] == -1.0
        assert a[2, 0] == 1.0
        assert a[2, 1] == -1.0
        assert b[2] == 5.0

    def test_gmin_applied_to_node_rows_only(self):
        ckt = Circuit("gmin")
        ckt.vsource("V1", "a", "b", 1.0)
        a, _ = dc_system(ckt, gmin=1e-9)
        assert a[0, 0] == 1e-9
        assert a[1, 1] == 1e-9
        assert a[2, 2] == 0.0

    def test_solve_simple(self):
        ckt = Circuit("simple")
        ckt.resistor("R1", "a", "0", 2.0)
        ckt.isource("I1", "0", "a", 1.0)
        a, b = dc_system(ckt)
        assert np.linalg.solve(a, b)[0] == pytest.approx(2.0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            plan_for(Circuit("empty"))
        ckt = Circuit("unknown")
        ckt.add(type("Diode", (Device,), {})("D1", ("a", "0")))
        with pytest.raises(TypeError, match="no MNA stamp pattern"):
            plan_for(ckt)

    def test_plans_are_cached_by_topology_not_values(self):
        def divider(r):
            ckt = Circuit("div")
            ckt.vsource("V1", "a", "0", 1.0)
            ckt.resistor("R1", "a", "b", r)
            ckt.resistor("R2", "b", "0", r)
            return ckt

        assert plan_for(divider(1e3)) is plan_for(divider(2e3))
        other = divider(1e3)
        other.resistor("R3", "b", "0", 1e3)
        assert plan_for(other) is not plan_for(divider(1e3))

    def test_stamps_sum_in_device_order(self):
        """A cell's stamps add left to right from 0.0, like one-by-one stamping."""
        ckt = Circuit("order")
        values = [1e16, 1.0, -1e16, 1.0]
        for k, r in enumerate(values):
            ckt.vccs(f"G{k}", "a", "0", "a", "0", r)
        a, _ = dc_system(ckt)
        total = 0.0
        for value in values:
            total += value
        assert a[0, 0] == total == 1.0


class TestACSystem:
    def test_capacitor_admittance(self):
        ckt = Circuit("cap")
        ckt.capacitor("C1", "a", "0", 1e-9)
        y, _ = ac_system(ckt, omega=2 * np.pi * 1e6)
        expected = 1j * 2 * np.pi * 1e6 * 1e-9
        assert y[0, 0] == pytest.approx(expected)

    def test_complex_solve(self):
        # a unit AC current into a resistor parallel to a capacitor
        ckt = Circuit("rc")
        ckt.resistor("R1", "a", "0", 1e3)
        ckt.capacitor("C1", "a", "0", 1e-9)
        ckt.isource("I1", "0", "a", 0.0, ac=1.0)
        omega = 2 * np.pi * 1e6
        y, b = ac_system(ckt, omega)
        v = np.linalg.solve(y, b)[0]
        expected = 1.0 / (1e-3 + 1j * omega * 1e-9)
        assert v == pytest.approx(expected)

    def test_shares_stamp_helpers(self):
        ckt = Circuit("vccs_ac")
        ckt.vccs("G1", "a", "b", "a", "b", 1e-3)
        y, _ = ac_system(ckt, omega=1.0)
        assert y[0, 0] == pytest.approx(1e-3)
