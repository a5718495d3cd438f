"""Backend protocol + MNA bitwise-equivalence tests.

The refactor moved the testbenches from direct ``DCAnalysis`` /
``ACAnalysis`` calls onto the :class:`~repro.sim.base.SimulatorBackend`
layer; these tests pin the contract that the default MNA backend is
*bitwise identical* to the pre-refactor inline path (same solves, same
warm starts, same floats), and that backend selection / fallback behaves.
"""

import warnings

import numpy as np
import pytest

from repro.backend import BackendNotAvailable
from repro.circuits import ACAnalysis, Circuit, DCAnalysis, nmos_180
from repro.circuits.dc import ConvergenceError
from repro.circuits.measure import dc_gain_db, phase_margin_deg, unity_gain_frequency
from repro.circuits.pvt import NOMINAL
from repro.circuits.testbenches import (
    ChargePumpProblem,
    FoldedCascodeOTAProblem,
    TwoStageOpAmpProblem,
)
from repro.sim import (
    ACSweep,
    DCTransferSweep,
    MNABackend,
    NgspiceBackend,
    OperatingPoint,
    SIM_BACKENDS,
    SimulationError,
    SimulatorNotAvailable,
    check_sim_backend,
    resolve_sim_backend,
)

OPAMP_X = np.array(
    [40e-6, 0.5e-6, 10e-6, 0.5e-6, 80e-6, 0.3e-6, 40e-6, 0.5e-6, 3e-12, 10e-6]
)

FC_GOOD_X = np.array(
    [60e-6, 0.4e-6, 40e-6, 0.5e-6, 60e-6, 0.25e-6, 60e-6, 0.4e-6, 120e-6, 0.5e-6, 30e-6]
)


def build_cs_stage() -> Circuit:
    ckt = Circuit("cs")
    ckt.vsource("VDD", "vdd", "0", 1.8)
    ckt.vsource("VIN", "g", "0", 0.8, ac=1.0)
    ckt.resistor("RL", "vdd", "d", 10e3)
    ckt.mosfet("M1", "d", "g", "0", "0", nmos_180, 5e-6, 1e-6)
    return ckt


class TestMNABitwiseEquivalence:
    """The backend path reproduces the pre-refactor solves float-for-float."""

    def test_opamp_metrics_identical_to_inline_path(self):
        problem = TwoStageOpAmpProblem(sim_backend="mna")
        new = problem.simulate(OPAMP_X)

        # the pre-refactor simulate(), inline
        ckt = problem.build_circuit(OPAMP_X)
        dc = DCAnalysis(ckt).solve(initial=problem._initial_guess())
        ac = ACAnalysis(ckt).sweep(dc, problem.freqs)
        tf = ac.transfer("out")
        assert new["gain_db"] == float(dc_gain_db(tf))
        assert new["ugf_hz"] == float(unity_gain_frequency(problem.freqs, tf))
        assert new["pm_deg"] == float(phase_margin_deg(problem.freqs, tf))
        assert new["idd_a"] == float(-dc.branch_current("VDD"))
        assert new["vout_dc"] == dc.voltage("out")
        assert new["regions"] == {
            name: dc.op(name).region
            for name in ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8")
        }

    def test_folded_cascode_metrics_identical_to_inline_path(self):
        problem = FoldedCascodeOTAProblem()
        new = problem.simulate(FC_GOOD_X)

        ckt = problem.build_circuit(FC_GOOD_X)
        dc = DCAnalysis(ckt).solve(initial=problem._initial_guess())
        ac = ACAnalysis(ckt).sweep(dc, problem.freqs)
        tf = ac.transfer("out")
        assert new["gain_db"] == float(dc_gain_db(tf))
        assert new["ugf_hz"] == float(unity_gain_frequency(problem.freqs, tf))
        assert new["pm_deg"] == float(phase_margin_deg(problem.freqs, tf))
        assert new["idd_a"] == float(-dc.branch_current("VDD"))
        assert new["vout_dc"] == dc.voltage("out")

    def test_charge_pump_sweep_identical_to_inline_warm_loop(self):
        problem = ChargePumpProblem()
        p = {v.name: 0.5 * (v.lower + v.upper) for v in problem.variables}
        for polarity in ("n", "p"):
            new = problem._branch_currents(p, polarity, NOMINAL)

            # the pre-refactor loop: fresh circuit per point, warm-started
            # from the previous converged state vector
            nmos = problem.nmos_nom.at_corner(NOMINAL.process, NOMINAL.temp_k)
            pmos = problem.pmos_nom.at_corner(NOMINAL.process, NOMINAL.temp_k)
            vdd = problem.vdd_nom * NOMINAL.vdd_scale
            ref = problem.build_reference_circuit(p, polarity, nmos, pmos, vdd)
            guess = {"vdd": vdd, "d1": vdd * 0.75, "d2": vdd * 0.55,
                     "d3": vdd * 0.35, "src": 0.05}
            if polarity == "p":
                guess = {"vdd": vdd, "d1": vdd * 0.25, "d2": vdd * 0.45,
                         "d3": vdd * 0.65, "src": vdd - 0.05}
            ref_dc = DCAnalysis(ref).solve(initial=guess)
            v_gate = ref_dc.voltage("d3")
            v_casc = ref_dc.voltage("casc")
            sweep = np.linspace(
                problem.vout_margin, vdd - problem.vout_margin, problem.n_sweep
            )
            old = np.empty(problem.n_sweep)
            warm = None
            for k, vout in enumerate(sweep):
                out_ckt = problem.build_output_circuit(
                    p, polarity, nmos, pmos, vdd, v_gate, v_casc, vout
                )
                sol = DCAnalysis(out_ckt).solve(initial=warm)
                warm = sol.x.copy()
                i_br = sol.branch_current("VOUT")
                old[k] = i_br if polarity == "p" else -i_br
            np.testing.assert_array_equal(new, old)

    def test_backend_run_matches_direct_analyses(self):
        ckt = build_cs_stage()
        freqs = np.logspace(1, 9, 30)
        raw = MNABackend().run(ckt, [OperatingPoint(), ACSweep(freqs)])

        sol = DCAnalysis(ckt).solve()
        ac = ACAnalysis(ckt).sweep(sol, freqs)
        assert raw.op().voltage("d") == sol.voltage("d")
        assert raw.op().branch_current("VDD") == sol.branch_current("VDD")
        np.testing.assert_array_equal(raw.ac().transfer("d"), ac.transfer("d"))
        np.testing.assert_array_equal(raw.ac().freqs, np.asarray(freqs, dtype=float))


class TestMNABatches:
    """A batch returns, per circuit, exactly what running it alone returns."""

    @staticmethod
    def charge_pump_circuits():
        problem = ChargePumpProblem()
        p = {v.name: 0.5 * (v.lower + v.upper) for v in problem.variables}
        circuits = []
        for corner in problem.corners[:4]:
            nmos = problem.nmos_nom.at_corner(corner.process, corner.temp_k)
            pmos = problem.pmos_nom.at_corner(corner.process, corner.temp_k)
            vdd = problem.vdd_nom * corner.vdd_scale
            for polarity in "pn":
                circuits.append(
                    problem.build_reference_circuit(p, polarity, nmos, pmos, vdd)
                )
        return circuits

    def test_mixed_topologies_match_one_by_one(self):
        circuits = self.charge_pump_circuits()
        plans = [[OperatingPoint(initial={"d1": 0.3 * k})] for k in range(len(circuits))]
        batch = MNABackend().run(circuits, plans)
        for circuit, plan, raw in zip(circuits, plans, batch):
            alone = MNABackend().run(circuit, plan).op()
            for node in circuit.node_names:
                assert raw.op().voltage(node) == alone.voltage(node)
            assert raw.op().branch_currents == alone.branch_currents
            assert raw.op().regions == alone.regions

    def test_batched_sweeps_and_ac_match_one_by_one(self):
        circuits = [build_cs_stage() for _ in range(3)]
        for k, ckt in enumerate(circuits):
            ckt.device("RL").resistance = 5e3 * (k + 1)
        freqs = np.logspace(1, 8, 15)
        plans = [
            [OperatingPoint(), ACSweep(freqs), DCTransferSweep("VIN", (0.6, 0.7 + 0.1 * k))]
            for k in range(3)
        ]
        batch = MNABackend().run(circuits, plans)
        for circuit, plan, raw in zip(circuits, plans, batch):
            alone = MNABackend().run(circuit, plan)
            assert raw.ac().transfer("d").tobytes() == alone.ac().transfer("d").tobytes()
            assert raw.sweep().voltage("d").tobytes() == alone.sweep().voltage("d").tobytes()

    def test_plans_of_different_shapes_rejected(self):
        circuits = [build_cs_stage(), build_cs_stage()]
        with pytest.raises(ValueError, match="one shape"):
            MNABackend().run(circuits, [[OperatingPoint()], [ACSweep([1e3])]])
        with pytest.raises(ValueError, match="one analysis plan per circuit"):
            MNABackend().run(circuits, [[OperatingPoint()]])

    def test_a_failing_circuit_fails_the_batch(self):
        circuits = self.charge_pump_circuits()
        backend = MNABackend(dc_options={"max_iterations": 3})
        with pytest.raises(ConvergenceError, match="cp_ref"):
            backend.run(circuits, [[OperatingPoint()] for _ in circuits])


class TestRawResultsAccessors:
    @pytest.fixture(scope="class")
    def raw(self):
        ckt = build_cs_stage()
        return MNABackend().run(
            ckt,
            [
                OperatingPoint(),
                ACSweep(np.logspace(1, 6, 11)),
                DCTransferSweep("VIN", (0.6, 0.8, 1.0)),
            ],
        )

    def test_container_protocol(self, raw):
        assert len(raw) == 3
        assert list(raw) == [raw[0], raw[1], raw[2]]
        assert raw.backend == "mna"

    def test_first_of_type_accessors(self, raw):
        assert raw.op() is raw[0]
        assert raw.ac() is raw[1]
        assert raw.sweep() is raw[2]

    def test_lookup_is_case_insensitive(self, raw):
        assert raw.op().voltage("D") == raw.op().voltage("d")
        assert raw.op().branch_current("vdd") == raw.op().branch_current("VDD")
        assert raw.op().region("m1") == raw.op().region("M1")

    def test_sweep_source_is_case_insensitive(self, raw):
        folded = MNABackend().run(
            build_cs_stage(), [DCTransferSweep("vin", (0.6, 0.8, 1.0))]
        ).sweep()
        np.testing.assert_array_equal(folded.voltage("d"), raw.sweep().voltage("d"))
        np.testing.assert_array_equal(
            folded.branch_current("VIN"), raw.sweep().branch_current("VIN")
        )

    def test_ground_aliases_read_as_zero(self, raw):
        for alias in ("0", "gnd", "GND", "VSS!", "ground"):
            assert raw.op().voltage(alias) == 0.0
            assert np.all(raw.ac().transfer(alias) == 0.0)

    def test_unknown_names_raise_keyerror(self, raw):
        with pytest.raises(KeyError, match="no node named"):
            raw.op().voltage("nope")
        with pytest.raises(KeyError, match="no branch named"):
            raw.op().branch_current("nope")

    def test_region_falls_back_to_empty_string(self, raw):
        assert raw.op().region("M1") in ("triode", "saturation", "cutoff")
        assert raw.op().region("not_a_device") == ""

    def test_missing_result_type_raises_lookup_error(self):
        raw = MNABackend().run(build_cs_stage(), [OperatingPoint()])
        with pytest.raises(LookupError, match="AC-sweep"):
            raw.ac()
        with pytest.raises(LookupError, match="DC-transfer-sweep"):
            raw.sweep()

    def test_dc_transfer_sweep_traces(self, raw):
        sweep = raw.sweep()
        np.testing.assert_array_equal(sweep.values, [0.6, 0.8, 1.0])
        assert sweep.source == "VIN"
        # drain voltage falls as the gate sweeps up
        v_d = sweep.voltage("d")
        assert v_d.shape == (3,)
        assert v_d[0] > v_d[-1]
        assert sweep.branch_current("VIN").shape == (3,)


class TestBackendSelection:
    def test_names_tuple(self):
        assert SIM_BACKENDS == ("mna", "ngspice")

    def test_check_sim_backend(self):
        assert check_sim_backend("mna") == "mna"
        with pytest.raises(ValueError, match="unknown sim_backend"):
            check_sim_backend("hspice")

    def test_resolve_none_and_name(self):
        assert isinstance(resolve_sim_backend(None), MNABackend)
        assert isinstance(resolve_sim_backend("mna"), MNABackend)

    def test_resolve_instance_passthrough(self):
        backend = MNABackend()
        assert resolve_sim_backend(backend) is backend

    def test_resolve_rejects_bad_types(self):
        with pytest.raises(TypeError, match="sim_backend must be"):
            resolve_sim_backend(42)
        with pytest.raises(ValueError, match="unknown sim_backend"):
            resolve_sim_backend("spectre")

    def test_unavailable_backend_falls_back_with_one_warning(self):
        missing = NgspiceBackend(binary="/no/such/ngspice-binary")
        assert not missing.is_available()
        with pytest.warns(UserWarning, match="falling back") as record:
            resolved = resolve_sim_backend(missing)
        assert isinstance(resolved, MNABackend)
        assert len(record) == 1

    def test_unavailable_backend_raises_without_fallback(self):
        missing = NgspiceBackend(binary="/no/such/ngspice-binary")
        with pytest.raises(SimulatorNotAvailable, match="ngspice"):
            resolve_sim_backend(missing, fallback=False)

    def test_error_taxonomy(self):
        assert issubclass(SimulatorNotAvailable, BackendNotAvailable)
        assert issubclass(SimulationError, ConvergenceError)

    def test_mna_backend_identity(self):
        backend = MNABackend()
        assert backend.name == "mna"
        assert backend.is_available()
        context = backend.cache_context()
        assert context[0] == "mna"
        assert context[1] == backend.version


class TestSizingProblemBackendKnob:
    def test_invalid_name_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown sim_backend"):
            TwoStageOpAmpProblem(sim_backend="hspice")

    def test_construction_never_probes_binaries(self):
        # lazy resolution: a problem configured for a missing binary
        # constructs silently and only warns at first use
        missing = NgspiceBackend(binary="/no/such/ngspice-binary")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = TwoStageOpAmpProblem(sim_backend=missing)
        assert problem._sim_backend is None

    def test_missing_binary_falls_back_and_matches_mna(self):
        missing = NgspiceBackend(binary="/no/such/ngspice-binary")
        problem = TwoStageOpAmpProblem(sim_backend=missing)
        with pytest.warns(UserWarning, match="falling back") as record:
            metrics = problem.simulate(OPAMP_X)
        assert len(record) == 1
        reference = TwoStageOpAmpProblem().simulate(OPAMP_X)
        assert metrics == reference
        # subsequent simulations reuse the resolved backend: no new warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem.simulate(OPAMP_X)

    def test_instance_backend_is_used_as_is(self):
        backend = MNABackend()
        problem = TwoStageOpAmpProblem(sim_backend=backend)
        assert problem.sim_backend is backend


class TestSharedPlansUnderThreads:
    def test_concurrent_batches_match_serial(self):
        """Threads share the compiled plans (one per topology); each thread's
        evaluations still equal the serial ones bit for bit."""
        import sys
        import threading

        problem = ChargePumpProblem(corners=ChargePumpProblem().corners[::4])
        rng = np.random.default_rng(7)
        designs = [problem.lower + rng.uniform(size=problem.dim) * (problem.upper - problem.lower)
                   for _ in range(6)]

        def simulate(x):
            try:
                return problem.simulate(x)
            except ConvergenceError:
                return None

        serial = [simulate(x) for x in designs]
        results = [None] * len(designs)

        def work(k):
            results[k] = simulate(designs[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(designs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial
