"""NgspiceBackend tests: every test runs without SPICE installed.

The ``fake_ngspice.py`` stub next to this module is invoked exactly like
the real binary and runs the deck through the repository's own SPICE
parser and MNA engine, so the backend's full protocol — deck writing,
subprocess handling, timeout kill, retry, rawfile parsing, vector-name
normalization — is exercised for real.  Tests marked ``ngspice`` drive an
actual installed binary (the CI ``sim`` job installs one best-effort) and
skip cleanly when it is absent.
"""

import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.pvt import NOMINAL
from repro.circuits.testbenches import ChargePumpProblem, TwoStageOpAmpProblem
from repro.sim import (
    ACSweep,
    DCTransferSweep,
    NgspiceBackend,
    OperatingPoint,
    SimulationError,
    SimulatorNotAvailable,
)

STUB = Path(__file__).resolve().parent / "fake_ngspice.py"

OPAMP_X = np.array(
    [40e-6, 0.5e-6, 10e-6, 0.5e-6, 80e-6, 0.3e-6, 40e-6, 0.5e-6, 3e-12, 10e-6]
)


def stub_backend(**kwargs) -> NgspiceBackend:
    kwargs.setdefault("timeout", 120.0)
    return NgspiceBackend(binary=[sys.executable, str(STUB)], **kwargs)


def build_divider() -> Circuit:
    ckt = Circuit("divider")
    ckt.vsource("V1", "a", "0", 10.0)
    ckt.resistor("R1", "a", "b", 3e3)
    ckt.resistor("R2", "b", "0", 1e3)
    return ckt


class TestStubGoodPath:
    @pytest.fixture(autouse=True)
    def ok_mode(self, monkeypatch):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "ok")

    def test_identity(self):
        backend = stub_backend()
        assert backend.is_available()
        assert "fake-ngspice" in backend.version
        assert backend.cache_context() == ("ngspice", backend.version)

    def test_operating_point_roundtrip(self):
        backend = stub_backend()
        raw = backend.run(build_divider(), [OperatingPoint()])
        assert raw.backend == "ngspice"
        assert raw.op().voltage("b") == pytest.approx(2.5, rel=1e-8)
        # V1 sources 2.5 mA (positive current flows into the + terminal)
        assert raw.op().branch_current("V1") == pytest.approx(-2.5e-3, rel=1e-8)
        assert backend.n_runs == 1
        assert backend.n_retries == 0

    def test_opamp_testbench_through_subprocess(self):
        problem = TwoStageOpAmpProblem(sim_backend=stub_backend())
        metrics = problem.simulate(OPAMP_X)
        reference = TwoStageOpAmpProblem().simulate(OPAMP_X)
        # the stub reruns the same MNA engine, but the deck round-trip
        # regenerates the AC grid (`ac dec`), so close — not bitwise
        assert metrics["gain_db"] == pytest.approx(reference["gain_db"], rel=1e-5)
        assert metrics["ugf_hz"] == pytest.approx(reference["ugf_hz"], rel=1e-3)
        assert metrics["pm_deg"] == pytest.approx(reference["pm_deg"], abs=0.1)
        assert metrics["idd_a"] == pytest.approx(reference["idd_a"], rel=1e-9)
        # external simulators report no MOSFET regions
        assert set(metrics["regions"].values()) == {""}

    def test_folded_cascode_through_subprocess(self):
        """The folded cascode's bias block has free-form device names
        (``bn_m1``) that the deck writer must canonicalize (``Mbn_m1``)
        for the subprocess path to work at all — pin that end to end."""
        from repro.circuits.testbenches import FoldedCascodeOTAProblem

        x = np.array([60e-6, 0.4e-6, 40e-6, 0.5e-6, 60e-6, 0.25e-6,
                      60e-6, 0.4e-6, 120e-6, 0.5e-6, 30e-6])
        metrics = FoldedCascodeOTAProblem(sim_backend=stub_backend()).simulate(x)
        reference = FoldedCascodeOTAProblem().simulate(x)
        assert metrics["gain_db"] == pytest.approx(reference["gain_db"], rel=1e-5)
        assert metrics["ugf_hz"] == pytest.approx(reference["ugf_hz"], rel=1e-3)
        assert metrics["pm_deg"] == pytest.approx(reference["pm_deg"], abs=0.1)

    def test_charge_pump_sweep_through_subprocess(self):
        problem = ChargePumpProblem(sim_backend=stub_backend())
        reference = ChargePumpProblem()
        p = {v.name: 0.5 * (v.lower + v.upper) for v in problem.variables}
        stub_i = problem._branch_currents(p, "n", NOMINAL)
        mna_i = reference._branch_currents(p, "n", NOMINAL)
        np.testing.assert_allclose(stub_i, mna_i, rtol=1e-4, atol=1e-12)

    def test_batch_runs_one_deck_per_circuit(self):
        backend = stub_backend()
        second = build_divider()
        second.device("R2").resistance = 2e3
        circuits = [build_divider(), second]
        plans = [[OperatingPoint()], [OperatingPoint(initial={"b": 3.0})]]
        batch = backend.run(circuits, plans)
        assert backend.n_runs == 2
        alone = [stub_backend().run(c, plan) for c, plan in zip(circuits, plans)]
        for got, want in zip(batch, alone):
            assert got.op().voltages == want.op().voltages
        assert batch[1].op().voltage("b") == pytest.approx(4.0)

    def test_deck_contents(self):
        backend = stub_backend(keep_files=True)
        try:
            backend.run(
                build_divider(), [OperatingPoint()], initial={"a": 9.0, "0": 0.0}
            )
            assert backend.last_workdir is not None
            deck = (Path(backend.last_workdir) / "deck.cir").read_text()
        finally:
            if backend.last_workdir:
                shutil.rmtree(backend.last_workdir, ignore_errors=True)
        assert ".control" in deck
        assert "set filetype=ascii" in deck
        assert "op" in deck.splitlines()
        assert ".NODESET V(a)=9" in deck
        assert ".NODESET V(0)" not in deck  # ground never gets a nodeset
        assert deck.rstrip().endswith(".END")

    def test_workdir_cleaned_up_by_default(self):
        backend = stub_backend()
        backend.run(build_divider(), [OperatingPoint()])
        assert backend.last_workdir is None

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stub_backend().run(build_divider(), [])

    def test_nonuniform_dc_sweep_rejected(self):
        with pytest.raises(SimulationError, match="uniform"):
            stub_backend().run(
                build_divider(), [DCTransferSweep("V1", (0.0, 0.1, 1.0))]
            )


class TestStubFailureModes:
    def test_garbage_once_retries_and_succeeds(self, monkeypatch):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "garbage-once")
        backend = stub_backend()
        raw = backend.run(build_divider(), [OperatingPoint()])
        assert raw.op().voltage("b") == pytest.approx(2.5, rel=1e-8)
        assert backend.n_runs == 2
        assert backend.n_retries == 1

    def test_persistent_garbage_raises_simulation_error(self, monkeypatch):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "garbage")
        backend = stub_backend()
        with pytest.raises(SimulationError, match="unusable rawfile"):
            backend.run(build_divider(), [OperatingPoint()])
        assert backend.n_runs == 2  # initial attempt + one retry

    def test_nonzero_exit_surfaces_log_tail(self, monkeypatch):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "fail")
        with pytest.raises(SimulationError, match="injected"):
            stub_backend().run(build_divider(), [OperatingPoint()])

    def test_missing_rawfile_raises(self, monkeypatch):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "noraw")
        with pytest.raises(SimulationError, match="unusable rawfile"):
            stub_backend().run(build_divider(), [OperatingPoint()])

    def test_hang_killed_at_timeout(self, monkeypatch):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "hang")
        backend = stub_backend(timeout=1.5, retries=0)
        start = time.monotonic()
        with pytest.raises(SimulationError, match="timed out"):
            backend.run(build_divider(), [OperatingPoint()])
        assert time.monotonic() - start < 30.0

    def test_missing_binary(self):
        backend = NgspiceBackend(binary="/no/such/ngspice-binary")
        assert not backend.is_available()
        assert backend.version == "unknown"
        with pytest.raises(SimulatorNotAvailable, match="executable"):
            backend.run(build_divider(), [OperatingPoint()])


requires_ngspice = pytest.mark.skipif(
    shutil.which("ngspice") is None, reason="ngspice binary not installed"
)


@pytest.mark.ngspice
@requires_ngspice
class TestRealNgspice:
    """Against an installed binary; device models are resistor/source-only
    so the numbers are simulator-independent."""

    def test_version_reported(self):
        assert NgspiceBackend().version not in ("", "unknown")

    def test_operating_point(self):
        raw = NgspiceBackend().run(build_divider(), [OperatingPoint()])
        assert raw.op().voltage("b") == pytest.approx(2.5, rel=1e-6)
        assert raw.op().branch_current("V1") == pytest.approx(-2.5e-3, rel=1e-6)

    def test_ac_lowpass(self):
        ckt = Circuit("lowpass")
        ckt.vsource("V1", "in", "0", 0.0, ac=1.0)
        ckt.resistor("R1", "in", "out", 1e3)
        ckt.capacitor("C1", "out", "0", 1e-6)
        freqs = np.logspace(0, 4, 41)
        raw = NgspiceBackend().run(ckt, [ACSweep(freqs)])
        tf = raw.ac().transfer("out")
        f = raw.ac().freqs
        expected = 1.0 / (1.0 + 2j * np.pi * f * 1e3 * 1e-6)
        np.testing.assert_allclose(np.abs(tf), np.abs(expected), rtol=0.02)

    def test_dc_transfer_sweep(self):
        ckt = Circuit("sweep")
        ckt.vsource("V1", "a", "0", 0.0)
        ckt.resistor("R1", "a", "0", 1e3)
        values = tuple(np.linspace(0.0, 1.0, 6))
        raw = NgspiceBackend().run(ckt, [DCTransferSweep("V1", values)])
        i = raw.sweep().branch_current("V1")
        np.testing.assert_allclose(i, -np.asarray(values) / 1e3, rtol=1e-6, atol=1e-12)
