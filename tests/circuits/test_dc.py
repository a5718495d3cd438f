"""Tests for the Newton DC solver against hand-solvable circuits."""

import numpy as np
import pytest

from repro.circuits import Circuit, ConvergenceError, DCAnalysis, nmos_180, pmos_180


class TestLinearCircuits:
    def test_voltage_divider(self):
        ckt = Circuit("div")
        ckt.vsource("V1", "a", "0", 10.0)
        ckt.resistor("R1", "a", "b", 3e3)
        ckt.resistor("R2", "b", "0", 1e3)
        sol = DCAnalysis(ckt).solve()
        assert sol.voltage("b") == pytest.approx(2.5, rel=1e-6)

    def test_source_current_sign_convention(self):
        """Current out of the + terminal reads negative (SPICE style)."""
        ckt = Circuit("load")
        ckt.vsource("V1", "a", "0", 5.0)
        ckt.resistor("R1", "a", "0", 1e3)
        sol = DCAnalysis(ckt).solve()
        assert sol.branch_current("V1") == pytest.approx(-5e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        ckt = Circuit("isrc")
        ckt.isource("I1", "0", "a", 1e-3)
        ckt.resistor("R1", "a", "0", 2e3)
        sol = DCAnalysis(ckt).solve()
        assert sol.voltage("a") == pytest.approx(2.0, rel=1e-6)

    def test_superposition(self):
        """Two sources through a resistor network: solve vs superposition."""
        def build(v1, i1):
            ckt = Circuit("sp")
            ckt.vsource("V1", "a", "0", v1)
            ckt.resistor("R1", "a", "b", 1e3)
            ckt.resistor("R2", "b", "0", 1e3)
            ckt.isource("I1", "0", "b", i1)
            return DCAnalysis(ckt).solve().voltage("b")

        both = build(2.0, 1e-3)
        only_v = build(2.0, 0.0)
        only_i = build(0.0, 1e-3)
        assert both == pytest.approx(only_v + only_i, rel=1e-9)

    def test_vcvs_gain(self):
        ckt = Circuit("vcvs")
        ckt.vsource("VIN", "in", "0", 0.5)
        ckt.vcvs("E1", "out", "0", "in", "0", 10.0)
        ckt.resistor("RL", "out", "0", 1e3)
        sol = DCAnalysis(ckt).solve()
        assert sol.voltage("out") == pytest.approx(5.0, rel=1e-9)

    def test_vccs(self):
        ckt = Circuit("vccs")
        ckt.vsource("VIN", "in", "0", 1.0)
        ckt.vccs("G1", "0", "out", "in", "0", 2e-3)  # 2 mA into out
        ckt.resistor("RL", "out", "0", 1e3)
        sol = DCAnalysis(ckt).solve()
        assert sol.voltage("out") == pytest.approx(2.0, rel=1e-9)

    def test_floating_node_handled_by_gmin(self):
        """A capacitor-only node floats at DC; gmin must keep it solvable."""
        ckt = Circuit("float")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "b", 1e3)
        ckt.capacitor("C1", "b", "c", 1e-12)
        ckt.capacitor("C2", "c", "0", 1e-12)
        sol = DCAnalysis(ckt).solve()
        assert np.isfinite(sol.voltage("c"))


class TestNonlinearCircuits:
    def test_diode_connected_nmos_carries_forced_current(self):
        ckt = Circuit("diode")
        ckt.isource("IB", "0", "d", 50e-6)
        m = ckt.mosfet("M1", "d", "d", "0", "0", nmos_180, 20e-6, 1e-6)
        sol = DCAnalysis(ckt).solve()
        op = sol.op("M1")
        assert op.ids == pytest.approx(50e-6, rel=1e-3)
        assert op.region == "saturation"
        # hand check: vgs = vth + sqrt(2 I / beta) approximately (lambda small)
        expected_vgs = m.params.vth0 + np.sqrt(2 * 50e-6 / m.beta)
        assert sol.voltage("d") == pytest.approx(expected_vgs, rel=0.05)

    def test_current_mirror_ratio(self):
        ckt = Circuit("mirror")
        ckt.vsource("VDD", "vdd", "0", 1.8)
        ckt.isource("IB", "vdd", "d1", 20e-6)
        ckt.mosfet("M1", "d1", "d1", "0", "0", nmos_180, 10e-6, 1e-6)
        ckt.mosfet("M2", "out", "d1", "0", "0", nmos_180, 30e-6, 1e-6)
        ckt.vsource("VOUT", "out", "0", 0.6)  # matched-ish drain voltage
        sol = DCAnalysis(ckt).solve()
        i_out = sol.branch_current("VOUT")
        # 3x mirror: ~60 uA flows out of VOUT's + terminal into M2
        assert -i_out == pytest.approx(60e-6, rel=0.08)

    def test_cmos_inverter_transfer_extremes(self):
        def vout(vin):
            ckt = Circuit("inv")
            ckt.vsource("VDD", "vdd", "0", 1.8)
            ckt.vsource("VIN", "in", "0", vin)
            ckt.mosfet("MP", "out", "in", "vdd", "vdd", pmos_180, 20e-6, 0.5e-6)
            ckt.mosfet("MN", "out", "in", "0", "0", nmos_180, 10e-6, 0.5e-6)
            return DCAnalysis(ckt).solve(initial={"vdd": 1.8, "out": 0.9}).voltage("out")

        assert vout(0.0) > 1.75   # PMOS pulls high
        assert vout(1.8) < 0.05   # NMOS pulls low
        assert 0.2 < vout(0.83) < 1.6  # transition region

    def test_nmos_source_follower(self):
        ckt = Circuit("sf")
        ckt.vsource("VDD", "vdd", "0", 1.8)
        ckt.vsource("VIN", "g", "0", 1.5)
        ckt.mosfet("M1", "vdd", "g", "s", "0", nmos_180, 50e-6, 0.5e-6)
        ckt.resistor("RS", "s", "0", 20e3)
        sol = DCAnalysis(ckt).solve()
        vs = sol.voltage("s")
        # follows the gate minus roughly a (body-affected) Vgs
        assert 0.4 < vs < 1.1
        assert sol.op("M1").region == "saturation"

    def test_warm_start_converges_faster(self):
        ckt = Circuit("warm")
        ckt.vsource("VDD", "vdd", "0", 1.8)
        ckt.isource("IB", "vdd", "d", 10e-6)
        ckt.mosfet("M1", "d", "d", "0", "0", nmos_180, 10e-6, 1e-6)
        analysis = DCAnalysis(ckt)
        cold = analysis.solve()
        warm = analysis.solve(initial=cold.x)
        assert warm.iterations <= cold.iterations

    def test_initial_dict_guess(self):
        ckt = Circuit("guess")
        ckt.vsource("VDD", "vdd", "0", 1.8)
        ckt.resistor("R1", "vdd", "a", 1e3)
        sol = DCAnalysis(ckt).solve(initial={"vdd": 1.8, "a": 1.8})
        assert sol.voltage("a") == pytest.approx(1.8, rel=1e-6)


class TestFailureModes:
    def test_wrong_initial_vector_shape(self):
        ckt = Circuit("shape")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        with pytest.raises(ValueError):
            DCAnalysis(ckt).solve(initial=np.zeros(99))

    def test_branch_current_requires_branch_device(self):
        ckt = Circuit("br")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        sol = DCAnalysis(ckt).solve()
        with pytest.raises(ValueError):
            sol.branch_current("R1")

    def test_op_requires_mosfet(self):
        ckt = Circuit("op")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        sol = DCAnalysis(ckt).solve()
        with pytest.raises(TypeError):
            sol.op("R1")

    def test_convergence_error_type_exists(self):
        assert issubclass(ConvergenceError, RuntimeError)


def p_reference(corner):
    """The charge pump's P reference branch at one PVT corner, with its guess."""
    from repro.circuits.testbenches import ChargePumpProblem

    problem = ChargePumpProblem()
    p = {v.name: 0.5 * (v.lower + v.upper) for v in problem.variables}
    nmos = problem.nmos_nom.at_corner(corner.process, corner.temp_k)
    pmos = problem.pmos_nom.at_corner(corner.process, corner.temp_k)
    vdd = problem.vdd_nom * corner.vdd_scale
    guess = {"vdd": vdd, "d1": vdd * 0.25, "d2": vdd * 0.45, "d3": vdd * 0.65,
             "src": vdd - 0.05}
    return problem.build_reference_circuit(p, "p", nmos, pmos, vdd), guess


class TestHomotopyRungs:
    """Each fallback rung, forced by a small Newton iteration cap (the cases
    of the parity fixture, whose bits the per-device engine recorded)."""

    @pytest.fixture
    def circuit(self):
        from repro.circuits.pvt import standard_corners

        return p_reference(standard_corners()[0])[0]

    def test_plain_newton_when_it_converges(self, circuit):
        assert DCAnalysis(circuit).solve().homotopy == "newton"

    def test_gmin_stepping_after_newton_fails(self, circuit):
        sol = DCAnalysis(circuit, max_iterations=34).solve()
        assert sol.homotopy == "gmin"
        assert sol.voltage("vdd") == pytest.approx(1.62)

    def test_source_stepping_after_gmin_stepping_fails(self, circuit):
        sol = DCAnalysis(circuit, max_iterations=18).solve()
        assert sol.homotopy == "source"
        gmin_sol = DCAnalysis(circuit, max_iterations=34).solve()
        np.testing.assert_allclose(sol.x, gmin_sol.x, rtol=1e-6, atol=1e-9)

    def test_every_rung_failing_raises(self, circuit):
        with pytest.raises(ConvergenceError, match="cp_ref_p"):
            DCAnalysis(circuit, max_iterations=10).solve()

    def test_zero_iterations_fail_cleanly(self, circuit):
        with pytest.raises(ConvergenceError):
            DCAnalysis(circuit, max_iterations=0).solve()


class TestCornerBatch:
    """A batch solves every corner exactly as that corner alone."""

    @staticmethod
    def corners():
        from repro.circuits.pvt import standard_corners

        return [p_reference(c) for c in standard_corners()]

    def test_mixed_rungs_match_solo_solves_bitwise(self):
        circuits, guesses = zip(*self.corners())
        analysis = DCAnalysis(circuits[0], max_iterations=24)
        batch = analysis.solve_batch(circuits, guesses)
        assert {sol.homotopy for sol in batch} == {"newton", "gmin", "source"}
        for circuit, guess, sol in zip(circuits, guesses, batch):
            solo = DCAnalysis(circuit, max_iterations=24).solve(initial=guess)
            assert sol.x.tobytes() == solo.x.tobytes()
            assert (sol.iterations, sol.homotopy) == (solo.iterations, solo.homotopy)
            assert sol.op("MP0") == solo.op("MP0")

    def test_a_failing_corner_fails_the_batch(self):
        circuits, guesses = zip(*self.corners())
        with pytest.raises(ConvergenceError, match="cp_ref_p"):
            DCAnalysis(circuits[0], max_iterations=18).solve_batch(circuits, guesses)

    def test_singular_corner_is_isolated(self):
        """A singular system fails only its own corner; the others converge
        exactly as alone."""
        from repro.circuits.dc import CircuitBatch

        def build(gm):
            ckt = Circuit("neg")
            ckt.isource("I1", "0", "a", 1e-3)
            ckt.resistor("R1", "a", "0", 1e3)
            ckt.vccs("G1", "a", "0", "a", "0", gm)
            return ckt

        circuits = [build(-0.5e-3), build(-1e-3), build(-0.25e-3)]
        analysis = DCAnalysis(circuits[0], gmin=0.0)
        x, iterations, rung = analysis.newton(CircuitBatch(circuits), np.zeros((3, 1)))
        assert list(rung) == [0, -1, 0]
        for c in (0, 2):
            solo = DCAnalysis(circuits[c], gmin=0.0).solve()
            assert x[c].tobytes() == solo.x.tobytes()
            assert iterations[c] == solo.iterations
        with pytest.raises(ConvergenceError):
            DCAnalysis(circuits[1], gmin=0.0).solve()
