"""Micro-benchmarks of the simulator substrate.

Not a paper table — these quantify the cost of one "HSPICE call" in our
substitution, which is what the optimization budgets of Tables I/II are
denominated in.  Useful for regression-testing simulator performance,
since the table benches' wall time is dominated by these calls.

The charge-pump tests time one full Table II evaluation (18 PVT corners)
and check that corner batching pays: the same corners solved one at a
time on the same engine must be at least ``CORNER_BATCH_FLOOR`` slower.

The backend-axis test compares the in-process MNA backend against a
subprocess ngspice-protocol backend (the repo's fake-ngspice stub, which
runs the same MNA engine behind the real deck-write/raw-parse path) on
identical op-amp evaluations, recording the per-eval process overhead in
``BENCH_simulator.json``.

Run: ``pytest benchmarks/bench_simulator.py --benchmark-only``
"""

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from artifacts import write_bench_json
from repro.circuits import ACAnalysis, Circuit, DCAnalysis, nmos_180
from repro.circuits.ac import log_freqs
from repro.circuits.pvt import NOMINAL, standard_corners
from repro.circuits.testbenches import ChargePumpProblem, TwoStageOpAmpProblem
from repro.sim import NgspiceBackend

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

OPAMP_X = np.array(
    [40e-6, 0.5e-6, 10e-6, 0.5e-6, 80e-6, 0.3e-6, 40e-6, 0.5e-6, 3e-12, 10e-6]
)

FAKE_NGSPICE = Path(__file__).resolve().parents[1] / "tests" / "sim" / "fake_ngspice.py"

#: batched 18-corner charge-pump simulation vs the same corners one at a time
CORNER_BATCH_FLOOR = 3.0


def _record(key: str, payload: dict) -> None:
    """Merge one result record into ``BENCH_simulator.json``.

    Same stable-key ``results`` mapping as the other BENCH_*.json
    artifacts, so the per-backend eval costs are trackable across PRs.
    """
    path = write_bench_json(
        "BENCH_simulator.json",
        {"bench": "simulator", "quick": QUICK, "results": {key: payload}},
    )
    print(f"[simulator] recorded {key!r} in {path}")


@pytest.mark.benchmark(group="simulator")
def test_opamp_full_evaluation(benchmark):
    """One Table I 'simulation': DC + AC sweep + measurements."""
    problem = TwoStageOpAmpProblem()
    metrics = benchmark(lambda: problem.simulate(OPAMP_X))
    assert metrics["gain_db"] > 40.0


@pytest.mark.benchmark(group="simulator")
def test_opamp_dc_only(benchmark):
    problem = TwoStageOpAmpProblem()
    ckt = problem.build_circuit(OPAMP_X)
    analysis = DCAnalysis(ckt)
    guess = problem._initial_guess()
    sol = benchmark(lambda: analysis.solve(initial=guess))
    assert sol.iterations < 100


@pytest.mark.benchmark(group="simulator")
def test_charge_pump_single_corner(benchmark):
    """One branch sweep at one corner (the charge-pump inner loop)."""
    problem = ChargePumpProblem(
        corners=standard_corners(processes=("TT",), vdd_scales=(1.0,),
                                 temps_c=(27.0,))
    )
    p = {v.name: 0.5 * (v.lower + v.upper) for v in problem.variables}
    currents = benchmark(lambda: problem._branch_currents(p, "n", NOMINAL))
    assert currents.shape == (problem.n_sweep,)


@pytest.mark.benchmark(group="simulator")
def test_charge_pump_full_evaluation(benchmark):
    """One Table II 'simulation': both branches at all 18 PVT corners."""
    problem = ChargePumpProblem()
    x = 0.5 * (problem.lower + problem.upper)
    metrics = benchmark(lambda: problem.simulate(x))
    assert np.isfinite(metrics["fom"])


def test_charge_pump_corner_batching():
    """One 18-corner charge-pump evaluation, batched vs one corner at a time.

    ``simulate`` hands the backend all 36 branches (18 corners x 2
    polarities) as one batch per analysis; the baseline runs the same
    branches one at a time on the same engine.  The currents must match
    bit for bit and batching must pay at least ``CORNER_BATCH_FLOOR``.
    """
    reps = 2 if QUICK else 5
    problem = ChargePumpProblem()
    x = 0.5 * (problem.lower + problem.upper)
    p = problem.as_dict(x)
    branches = [(pol, c) for pol in "pn" for c in problem.corners]

    def batched():
        return problem._sweep_currents(p, branches)

    def one_by_one():
        return np.array([problem._sweep_currents(p, [b])[0] for b in branches])

    assert batched().tobytes() == one_by_one().tobytes()

    def best_of(fn):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    t_eval = best_of(lambda: problem.simulate(x))
    t_batched = best_of(batched)
    t_single = best_of(one_by_one)
    speedup = t_single / t_batched
    _record(
        "charge_pump_eval",
        {
            "reps": reps,
            "corners": len(problem.corners),
            "s_per_eval": t_eval,
            "batched_s": t_batched,
            "one_corner_at_a_time_s": t_single,
            "corner_batch_speedup_x": speedup,
            "floor": CORNER_BATCH_FLOOR,
        },
    )
    print(
        f"[simulator] charge-pump eval {t_eval * 1e3:.1f} ms; corners batched "
        f"{t_batched * 1e3:.1f} ms vs one at a time {t_single * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= CORNER_BATCH_FLOOR, (
        f"corner batching {speedup:.2f}x below the {CORNER_BATCH_FLOOR}x floor"
    )


@pytest.mark.benchmark(group="simulator")
def test_ac_sweep_cost(benchmark):
    """90-point AC sweep of a mid-size nonlinear circuit."""
    ckt = Circuit("cs")
    ckt.vsource("VDD", "vdd", "0", 1.8)
    ckt.vsource("VIN", "g", "0", 0.8, ac=1.0)
    ckt.resistor("RL", "vdd", "d", 10e3)
    ckt.mosfet("M1", "d", "g", "0", "0", nmos_180, 5e-6, 1e-6)
    dc = DCAnalysis(ckt).solve()
    freqs = log_freqs(10.0, 1e9, 10)
    analysis = ACAnalysis(ckt)
    result = benchmark(lambda: analysis.sweep(dc, freqs))
    assert result.x.shape[0] == len(freqs)


@pytest.mark.benchmark(group="simulator")
def test_newton_iteration_cost(benchmark):
    """Raw Newton solve of the op-amp bias point from a cold start."""
    problem = TwoStageOpAmpProblem()
    ckt = problem.build_circuit(OPAMP_X)
    analysis = DCAnalysis(ckt)
    benchmark(lambda: analysis.solve())


def test_backend_axis_process_overhead():
    """Per-eval cost of the MNA backend vs. the subprocess ngspice path.

    The stub backend runs the identical MNA solve behind a real deck
    write, subprocess launch, and rawfile parse, so the measured gap *is*
    the external-simulator protocol overhead.  No floor is asserted — a
    subprocess per eval is legitimately orders of magnitude slower than
    an in-process solve; the point is to record the number.
    """
    reps = 2 if QUICK else 5
    stub = NgspiceBackend(binary=[sys.executable, str(FAKE_NGSPICE)], timeout=120.0)
    timings: dict[str, float] = {}
    gains: dict[str, float] = {}
    for label, backend in (("mna", "mna"), ("ngspice-stub", stub)):
        problem = TwoStageOpAmpProblem(sim_backend=backend)
        problem.simulate(OPAMP_X)  # warm-up outside the timed loop
        start = time.perf_counter()
        for _ in range(reps):
            metrics = problem.simulate(OPAMP_X)
        timings[label] = (time.perf_counter() - start) / reps
        gains[label] = metrics["gain_db"]
        assert metrics["gain_db"] > 40.0
    overhead = timings["ngspice-stub"] / timings["mna"]
    _record(
        "opamp_eval_backend_axis",
        {
            "reps": reps,
            "mna_s_per_eval": timings["mna"],
            "ngspice_stub_s_per_eval": timings["ngspice-stub"],
            "subprocess_overhead_x": overhead,
            "gain_db_mna": gains["mna"],
            "gain_db_ngspice_stub": gains["ngspice-stub"],
        },
    )
    # both paths must measure the same amplifier (grid regeneration in the
    # deck round-trip allows tiny numeric drift, not behavioral drift)
    assert abs(gains["mna"] - gains["ngspice-stub"]) < 1e-3
    print(
        f"[simulator] per-eval: mna={timings['mna'] * 1e3:.2f} ms, "
        f"ngspice-stub={timings['ngspice-stub'] * 1e3:.2f} ms "
        f"({overhead:.1f}x subprocess overhead)"
    )
