"""Parity fixture of the in-process MNA engine.

``record()`` runs a fixed set of simulations through the public circuit
API and returns every result as a flat ``{key: ndarray}`` dict:

* the charge pump at all 18 PVT corners for several designs: the
  reference operating points (solution vector and Newton iterations),
  the warm-started Vout sweeps (every node voltage and branch current at
  every point) and the end-to-end ``simulate`` metrics;
* the two-stage op-amp and the folded-cascode OTA: bias point plus the
  complex AC transfer of every node and branch, and ``simulate``;
* a CMOS-inverter transient run;
* the DC homotopy rungs: plain Newton failing into gmin stepping, gmin
  stepping failing into source stepping, and every rung failing, forced
  by a small ``max_iterations``; plus an 18-corner reference batch whose
  corners converge on different rungs.

``data/mna_parity.npz`` holds ``record()`` as produced by the engine the
fixture pins.  ``test_mna_parity.py`` compares the current engine to it
byte for byte.  Regenerate (only on purpose) with::

    PYTHONPATH=src python tests/circuits/mna_parity.py

The script uses only calls both the per-device engine and the compiled
engine provide, so it records the same keys from either.  ``batched=True``
also runs each corner set as one batch through ``MNABackend.run``.
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).resolve().parent / "data" / "mna_parity.npz"

#: homotopy cases: (key, max_iterations) on the P reference branch at the
#: first corner, from a zero start; the rung each one ends on is recorded
HOMOTOPY_CASES = (("gmin", 34), ("source", 18), ("fail", 10))
#: iteration cap of the mixed-rung corner batch
MIXED_BATCH_ITERATIONS = 24


def environment() -> dict:
    """Facts that decide whether LAPACK reproduces the recorded bits."""
    import ctypes

    import numpy

    lapack = {}
    try:
        lapack = numpy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except Exception:  # older numpy: no dict mode
        pass
    core = ""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                core = getter().decode()
                break
    return {
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "lapack": str(lapack.get("openblas configuration", lapack.get("name", ""))),
        "core": core,
    }


def _corner_models(problem, corner):
    nmos = problem.nmos_nom.at_corner(corner.process, corner.temp_k)
    pmos = problem.pmos_nom.at_corner(corner.process, corner.temp_k)
    return nmos, pmos, problem.vdd_nom * corner.vdd_scale


def _guess(polarity, vdd):
    if polarity == "p":
        return {"vdd": vdd, "d1": vdd * 0.25, "d2": vdd * 0.45, "d3": vdd * 0.65,
                "src": vdd - 0.05}
    return {"vdd": vdd, "d1": vdd * 0.75, "d2": vdd * 0.55, "d3": vdd * 0.35,
            "src": 0.05}


def _traces(circuit, result, kind):
    """Stack a result's node voltages then branch currents, circuit order."""
    rows = [result.voltage(node) if kind == "dc" else result.transfer(node)
            for node in circuit.node_names]
    rows += [result.branch_current(d.name) for d in circuit.devices
             if getattr(d, "n_branches", 0)]
    return np.array(rows)


def _metrics(problem, x, keys):
    from repro.circuits.dc import ConvergenceError

    try:
        metrics = problem.simulate(x)
    except ConvergenceError:
        return np.full(len(keys), np.nan)
    return np.array([metrics[k] for k in keys], dtype=float)


def _designs(problem, n_random):
    rng = np.random.default_rng(20)
    mid = 0.5 * (problem.lower + problem.upper)
    draws = [problem.lower + rng.uniform(size=problem.dim) * (problem.upper - problem.lower)
             for _ in range(n_random)]
    return [mid, *draws]


def _run(backend, circuits, plans, batched):
    if batched:
        return backend.run(circuits, plans)
    return [backend.run(c, plan) for c, plan in zip(circuits, plans)]


def _rung_probe():
    """Context recording the homotopy rung of the next solve.

    The per-device engine is probed by wrapping its private ladder
    methods; the compiled engine reports ``DCSolution.homotopy``.
    """
    from repro.circuits.dc import DCAnalysis

    calls = []
    if not hasattr(DCAnalysis, "_gmin_stepping"):
        return calls, lambda: None
    saved = DCAnalysis._gmin_stepping, DCAnalysis._source_stepping

    def wrap(name, method):
        def wrapper(self, x0):
            result = method(self, x0)
            calls.append((name, result is not None))
            return result

        return wrapper

    DCAnalysis._gmin_stepping = wrap("gmin", saved[0])
    DCAnalysis._source_stepping = wrap("source", saved[1])

    def restore():
        DCAnalysis._gmin_stepping, DCAnalysis._source_stepping = saved

    return calls, restore


def _solve_with_rung(circuit, initial, **options):
    """``(x, iterations, rung)`` of one DC solve; ``rung`` is "fail" on error."""
    from repro.circuits.dc import ConvergenceError, DCAnalysis

    calls, restore = _rung_probe()
    try:
        sol = DCAnalysis(circuit, **options).solve(initial=initial)
    except ConvergenceError:
        return np.full(circuit.n_unknowns, np.nan), -1, "fail"
    finally:
        restore()
    rung = getattr(sol, "homotopy", None)
    if rung is None:
        rung = "newton" if not calls else calls[-1][0]
    return sol.x.copy(), sol.iterations, rung


def record_charge_pump(out: dict, batched: bool) -> None:
    from repro.circuits.testbenches import ChargePumpProblem
    from repro.sim import DCTransferSweep, MNABackend, OperatingPoint

    problem = ChargePumpProblem()
    backend = MNABackend()
    keys = ("diff1_ua", "diff2_ua", "diff3_ua", "diff4_ua", "deviation_ua", "fom")
    for k, x in enumerate(_designs(problem, 2)):
        p = problem.as_dict(x)
        out[f"cp{k}/metrics"] = _metrics(ChargePumpProblem(), x, keys)
        for polarity in ("p", "n"):
            refs, guesses = [], []
            for corner in problem.corners:
                nmos, pmos, vdd = _corner_models(problem, corner)
                refs.append(problem.build_reference_circuit(p, polarity, nmos, pmos, vdd))
                guesses.append(_guess(polarity, vdd))
            solved = [_solve_with_rung(c, g) for c, g in zip(refs, guesses)]
            out[f"cp{k}/{polarity}/ref_x"] = np.array([s[0] for s in solved])
            out[f"cp{k}/{polarity}/ref_iterations"] = np.array([s[1] for s in solved])
            ops = _run(backend, refs, [[OperatingPoint(initial=g)] for g in guesses], batched)
            outs, plans = [], []
            for corner, ref, raw in zip(problem.corners, refs, ops):
                nmos, pmos, vdd = _corner_models(problem, corner)
                op = raw.op()
                sweep = np.linspace(problem.vout_margin, vdd - problem.vout_margin,
                                    problem.n_sweep)
                outs.append(problem.build_output_circuit(
                    p, polarity, nmos, pmos, vdd, op.voltage("d3"), op.voltage("casc"),
                    float(sweep[0])))
                plans.append([DCTransferSweep("VOUT", tuple(float(v) for v in sweep))])
            out[f"cp{k}/{polarity}/ref_op"] = np.array(
                [[raw.op().voltage(n) for n in ref.node_names] for ref, raw in zip(refs, ops)])
            sweeps = _run(backend, outs, plans, batched)
            out[f"cp{k}/{polarity}/sweep"] = np.array(
                [_traces(c, raw.sweep(), "dc") for c, raw in zip(outs, sweeps)])


def record_amplifiers(out: dict) -> None:
    from repro.circuits import ACAnalysis, DCAnalysis
    from repro.circuits.testbenches import FoldedCascodeOTAProblem, TwoStageOpAmpProblem
    from repro.sim import MNABackend

    keys = ("gain_db", "ugf_hz", "pm_deg", "idd_a", "vout_dc")
    for name, cls in (("opamp", TwoStageOpAmpProblem), ("fc", FoldedCascodeOTAProblem)):
        problem = cls()
        for k, x in enumerate(_designs(problem, 2)):
            tag = f"{name}{k}"
            out[f"{tag}/metrics"] = _metrics(cls(), x, keys)
            ckt = problem.build_circuit(x)
            dc = DCAnalysis(ckt).solve(initial=problem._initial_guess())
            out[f"{tag}/dc_x"] = dc.x.copy()
            out[f"{tag}/dc_iterations"] = np.array(dc.iterations)
            ac = ACAnalysis(ckt).sweep(dc, problem.freqs)
            out[f"{tag}/ac_x"] = ac.x.copy()
            raw = MNABackend().run(problem.build_circuit(x), problem.analysis_plan())
            out[f"{tag}/ac_traces"] = _traces(ckt, raw.ac(), "ac")


def record_transient(out: dict) -> None:
    from repro.circuits import Circuit, nmos_180, pmos_180
    from repro.circuits.transient import TransientAnalysis, pulse

    ckt = Circuit("inv_rc")
    ckt.vsource("VDD", "vdd", "0", 1.8)
    vin = ckt.vsource("VIN", "in", "0", 0.0)
    vin.waveform = pulse(0.0, 1.8, delay=0.5e-9, rise=0.1e-9, fall=0.1e-9, width=2e-9)
    ckt.isource("ILEAK", "out", "0", 1e-6)
    ckt.mosfet("MP", "out", "in", "vdd", "vdd", pmos_180, 4e-6, 0.18e-6)
    ckt.mosfet("MN", "out", "in", "0", "0", nmos_180, 2e-6, 0.18e-6)
    ckt.resistor("RW", "out", "load", 2e3)
    ckt.capacitor("CL", "load", "0", 20e-15)
    ckt.capacitor("CM", "in", "out", 2e-15)
    result = TransientAnalysis(ckt).run(t_stop=4e-9, dt=0.02e-9)
    out["tran/x"] = result.x.copy()


def record_homotopy(out: dict) -> None:
    from repro.circuits.testbenches import ChargePumpProblem

    problem = ChargePumpProblem()
    p = {v.name: 0.5 * (v.lower + v.upper) for v in problem.variables}
    first = problem.corners[0]
    nmos, pmos, vdd = _corner_models(problem, first)
    for key, k in HOMOTOPY_CASES:
        ref = problem.build_reference_circuit(p, "p", nmos, pmos, vdd)
        x, iterations, rung = _solve_with_rung(ref, None, max_iterations=k)
        out[f"homotopy/{key}/x"] = x
        out[f"homotopy/{key}/iterations"] = np.array(iterations)
        out[f"homotopy/{key}/rung"] = np.array(rung)
    solved = []
    for corner in problem.corners:
        nmos, pmos, vdd = _corner_models(problem, corner)
        ref = problem.build_reference_circuit(p, "p", nmos, pmos, vdd)
        solved.append(_solve_with_rung(ref, _guess("p", vdd),
                                       max_iterations=MIXED_BATCH_ITERATIONS))
    out["homotopy/mixed/x"] = np.array([s[0] for s in solved])
    out["homotopy/mixed/iterations"] = np.array([s[1] for s in solved])
    out["homotopy/mixed/rung"] = np.array([s[2] for s in solved])


def record(batched: bool = False) -> dict:
    """Every fixture array from the importable engine."""
    out: dict = {}
    record_charge_pump(out, batched)
    record_amplifiers(out)
    record_transient(out)
    record_homotopy(out)
    return out


def main() -> None:
    out = record()
    env = environment()
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(FIXTURE, **out, **{f"env/{k}": np.array(v) for k, v in env.items()})
    print(f"wrote {len(out)} arrays to {FIXTURE} ({FIXTURE.stat().st_size} bytes)", file=sys.stderr)


if __name__ == "__main__":
    main()
