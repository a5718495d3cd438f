"""The MNA engine reproduces its recorded parity fixture byte for byte.

``data/mna_parity.npz`` was recorded from the per-device engine this
compiled engine replaced (see ``mna_parity.py``): DC solution vectors and
iteration counts, charge-pump sweeps and metrics at all 18 PVT corners,
op-amp and folded-cascode AC transfers, a transient run and the DC
homotopy rungs.  LAPACK results are bitwise only on the BLAS build and
CPU kernel that recorded them; elsewhere the arrays must agree to 1e-9.
On random designs the engine is also compared, bit for bit on any
platform, with that per-device engine kept in ``per_device_engine.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mna_parity
import per_device_engine as oracle
from repro.circuits import ACAnalysis, ConvergenceError, DCAnalysis
from repro.circuits.dc import HOMOTOPIES, CircuitBatch, initial_vector

FIXTURE = np.load(mna_parity.FIXTURE)
SAME_LAPACK = all(
    str(FIXTURE[f"env/{k}"]) == v for k, v in mna_parity.environment().items()
)


@pytest.fixture(scope="module", params=[False, True], ids=["one-by-one", "batched"])
def recorded(request):
    return mna_parity.record(batched=request.param)


def test_every_fixture_key_is_recorded(recorded):
    keys = {k for k in FIXTURE.files if not k.startswith("env/")}
    assert set(recorded) == keys


@pytest.mark.parametrize(
    "key", sorted(k for k in FIXTURE.files if not k.startswith("env/"))
)
def test_matches_fixture(recorded, key):
    want, got = FIXTURE[key], np.asarray(recorded[key])
    assert got.dtype == want.dtype and got.shape == want.shape
    if SAME_LAPACK or want.dtype.kind not in "fc":
        assert got.tobytes() == want.tobytes(), f"{key} differs from the fixture"
    else:
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-18)


def test_homotopy_cases_cover_every_rung():
    rungs = {str(FIXTURE[f"homotopy/{key}/rung"]) for key, _ in mna_parity.HOMOTOPY_CASES}
    assert rungs == {"gmin", "source", "fail"}
    mixed = set(FIXTURE["homotopy/mixed/rung"].tolist())
    assert mixed == {"newton", "gmin", "source"}


# -- against the per-device engine, on random designs ---------------------------

UNIT = st.lists(st.floats(0.0, 1.0), min_size=36, max_size=36)


def _design(problem, unit):
    return problem.lower + np.asarray(unit[: problem.dim]) * (problem.upper - problem.lower)


class TestAgainstPerDeviceEngine:
    """Random designs: the compiled engine equals the one-``+=``-at-a-time
    engine bit for bit, alone and batched."""

    @given(unit=UNIT, corner=st.integers(0, 17), vout=st.floats(0.2, 1.4))
    @settings(max_examples=8, deadline=None)
    def test_charge_pump_branches(self, unit, corner, vout):
        from repro.circuits.testbenches import ChargePumpProblem

        problem = ChargePumpProblem()
        p = problem.as_dict(_design(problem, unit))
        c = problem.corners[corner]
        nmos, pmos, vdd = mna_parity._corner_models(problem, c)
        for polarity in "pn":
            ref = problem.build_reference_circuit(p, polarity, nmos, pmos, vdd)
            out = problem.build_output_circuit(p, polarity, nmos, pmos, vdd, 0.6, 0.9, vout)
            for circuit, guess in ((ref, mna_parity._guess(polarity, vdd)), (out, None)):
                x0 = initial_vector(circuit, guess)
                try:
                    want = oracle.solve_dc(circuit, x0)
                except ConvergenceError:
                    with pytest.raises(ConvergenceError):
                        DCAnalysis(circuit).solve(initial=guess)
                    continue
                sol = DCAnalysis(circuit).solve(initial=guess)
                assert sol.x.tobytes() == want[0].tobytes()
                assert (sol.iterations, sol.homotopy) == want[1:]

    @given(unit=UNIT)
    @settings(max_examples=6, deadline=None)
    def test_amplifier_dc_and_ac(self, unit):
        from repro.circuits.testbenches import FoldedCascodeOTAProblem, TwoStageOpAmpProblem

        for problem in (TwoStageOpAmpProblem(), FoldedCascodeOTAProblem()):
            ckt = problem.build_circuit(_design(problem, unit))
            guess = problem._initial_guess()
            try:
                want_x, want_it, _ = oracle.solve_dc(ckt, initial_vector(ckt, guess))
            except ConvergenceError:
                continue
            sol = DCAnalysis(ckt).solve(initial=guess)
            assert sol.x.tobytes() == want_x.tobytes()
            assert sol.iterations == want_it
            ac = ACAnalysis(ckt).sweep(sol, problem.freqs)
            assert ac.x.tobytes() == oracle.ac_sweep(ckt, want_x, problem.freqs).tobytes()

    @given(unit=UNIT, iterations=st.integers(12, 40))
    @settings(max_examples=4, deadline=None)
    def test_mixed_topology_batch(self, unit, iterations):
        """Both reference branches at six corners, one batch, each rung
        and each failure exactly as the per-device engine alone."""
        from repro.circuits.testbenches import ChargePumpProblem

        problem = ChargePumpProblem()
        p = problem.as_dict(_design(problem, unit))
        circuits, guesses = [], []
        for c in problem.corners[::3]:
            nmos, pmos, vdd = mna_parity._corner_models(problem, c)
            for polarity in "pn":
                circuits.append(problem.build_reference_circuit(p, polarity, nmos, pmos, vdd))
                guesses.append(mna_parity._guess(polarity, vdd))
        batch = CircuitBatch(circuits)
        x0 = np.array([initial_vector(c, g) for c, g in zip(circuits, guesses)])
        x, its, rung = DCAnalysis(circuits[0], max_iterations=iterations).newton(batch, x0)
        for k, circuit in enumerate(circuits):
            try:
                want = oracle.solve_dc(circuit, x0[k], max_iterations=iterations)
            except ConvergenceError:
                assert rung[k] == -1
                continue
            assert x[k].tobytes() == want[0].tobytes()
            assert (int(its[k]), HOMOTOPIES[rung[k]]) == want[1:]
