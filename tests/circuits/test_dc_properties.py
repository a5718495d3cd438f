"""Property-based tests of the DC solver on random linear networks.

For arbitrary resistor ladders/meshes the MNA solution must satisfy KCL
exactly and match an independently-formed nodal solve — this pins the
stamping conventions far more broadly than hand-picked examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, DCAnalysis


def build_ladder(resistances, v_in):
    """Series ladder V - R1 - R2 - ... - Rn - gnd."""
    ckt = Circuit("ladder")
    ckt.vsource("V1", "n0", "0", v_in)
    for i, r in enumerate(resistances):
        bottom = "0" if i == len(resistances) - 1 else f"n{i + 1}"
        ckt.resistor(f"R{i}", f"n{i}", bottom, r)
    return ckt


class TestLadderProperties:
    @given(
        resistances=st.lists(st.floats(10.0, 1e6), min_size=2, max_size=8),
        v_in=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=30)
    def test_voltage_division_exact(self, resistances, v_in):
        ckt = build_ladder(resistances, v_in)
        sol = DCAnalysis(ckt).solve()
        total = sum(resistances)
        # the always-on gmin (1e-12 S per node) shifts high-impedance
        # ladders by up to ~n * R_total * gmin relative
        slack = 10.0 * len(resistances) * total * 1e-12
        below = total
        for i, r in enumerate(resistances):
            expected = v_in * below / total
            assert sol.voltage(f"n{i}") == pytest.approx(
                expected, rel=1e-6 + slack, abs=1e-9
            )
            below -= r

    @given(
        resistances=st.lists(st.floats(10.0, 1e6), min_size=2, max_size=8),
        v_in=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=20)
    def test_source_current_is_ohms_law(self, resistances, v_in):
        ckt = build_ladder(resistances, v_in)
        sol = DCAnalysis(ckt).solve()
        total = sum(resistances)
        expected = -v_in / total
        slack = 10.0 * len(resistances) * total * 1e-12
        assert sol.branch_current("V1") == pytest.approx(
            expected, rel=1e-6 + slack, abs=abs(v_in) * 1e-11 + 1e-15
        )


class TestRandomMeshAgainstDirectSolve:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=25)
    def test_matches_independent_nodal_formulation(self, seed):
        """Random conductance mesh + random current injections: compare the
        full solver against a directly assembled nodal system."""
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(3, 7))
        ckt = Circuit(f"mesh{seed}")
        g_direct = np.zeros((n_nodes, n_nodes))
        b_direct = np.zeros(n_nodes)
        # random resistors between node pairs (and to ground)
        names = [f"m{i}" for i in range(n_nodes)]
        edge_id = 0
        for i in range(n_nodes):
            # guarantee a path to ground so nothing floats
            r = float(rng.uniform(100, 1e5))
            ckt.resistor(f"Rg{i}", names[i], "0", r)
            g_direct[i, i] += 1.0 / r
            for j in range(i + 1, n_nodes):
                if rng.uniform() < 0.5:
                    r = float(rng.uniform(100, 1e5))
                    ckt.resistor(f"Re{edge_id}", names[i], names[j], r)
                    edge_id += 1
                    g_direct[i, i] += 1.0 / r
                    g_direct[j, j] += 1.0 / r
                    g_direct[i, j] -= 1.0 / r
                    g_direct[j, i] -= 1.0 / r
        for i in range(n_nodes):
            current = float(rng.uniform(-1e-3, 1e-3))
            ckt.isource(f"I{i}", "0", names[i], current)
            b_direct[i] += current
        sol = DCAnalysis(ckt).solve()
        expected = np.linalg.solve(
            g_direct + 1e-12 * np.eye(n_nodes), b_direct
        )
        measured = np.array([sol.voltage(nm) for nm in names])
        np.testing.assert_allclose(measured, expected, rtol=1e-8, atol=1e-10)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=15)
    def test_kcl_residual_at_solution(self, seed):
        """Re-stamping at the solution must satisfy G x = b to round-off."""
        from repro.circuits.dc import CircuitBatch

        rng = np.random.default_rng(seed)
        ckt = Circuit(f"kcl{seed}")
        ckt.vsource("V1", "a", "0", float(rng.uniform(0.5, 5.0)))
        ckt.resistor("R1", "a", "b", float(rng.uniform(100, 1e4)))
        ckt.resistor("R2", "b", "c", float(rng.uniform(100, 1e4)))
        ckt.resistor("R3", "c", "0", float(rng.uniform(100, 1e4)))
        ckt.isource("I1", "0", "b", float(rng.uniform(-1e-3, 1e-3)))
        sol = DCAnalysis(ckt).solve()
        a, b = CircuitBatch([ckt]).systems(sol.x[None, :], np.array([1.0]), np.array([1e-12]))
        residual = a[0] @ sol.x - b[0]
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)
