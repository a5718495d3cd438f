"""One benchmark study in a fresh interpreter (spawned by ``run.py``).

Usage (``run.py`` builds the JSON spec; this is not a user-facing CLI)::

    python3 perfbench/workload.py '{"workload": "opamp-serial", "study_seed": 7,
        "mode": "study", "trace": false, "work": "<dir>", "t0": <time.monotonic()>}'

``mode="setup"`` stops once the study could take its first ``ask``;
``mode="study"`` drives the whole study to its evaluation budget, checks
the outputs and, with ``"trace": true``, times every layer through the
class-level wrappers of :mod:`tracing`.  The last stdout line is a JSON
report.  Exit code 3 means the ``repro`` sources were not found next to
this directory.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: study parameters per workload; the surrogate is always the paper's
#: ``SurrogateConfig()`` defaults (K=5, two 50-unit layers, 50 features,
#: 300 epochs) unless the spec carries overrides (the self-test's smoke runs)
WORKLOADS = {
    "opamp-serial": {
        "problem": "two_stage_opamp",
        "loop": "serial",
        "n_initial": 30,
        "n_search": 12,
    },
    "cp-batch4": {
        "problem": "charge_pump",
        "loop": "batch",
        "q": 4,
        "n_initial": 20,
        "n_search": 12,
    },
    "opamp-service-async": {
        "problem": "two_stage_opamp",
        "loop": "service",
        "in_flight": 2,
        "n_initial": 30,
        "n_search": 16,
        "scheduler": {"async_refit": "fantasy-only", "async_full_refit_every": 4},
    },
}

#: layers whose spans count as attributed study time (``unattributed_s``)
ATTRIBUTED = ("fit", "maximize", "sim", "checkpoint", "rpc")


class StudyFailed(Exception):
    """An ask/tell/evaluate/RPC operation raised; the study cannot go on."""


class Ops:
    """Counts operations attempted and failed (the ``error_rate`` inputs)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise StudyFailed(f"{getattr(fn, '__qualname__', fn)}: {exc!r}") from exc


def import_repro():
    """Import ``repro`` from this checkout's ``src``, or exit with code 3."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        sys.exit(3)
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"perfbench: repro imported from {origin}, not {SRC}", file=sys.stderr)
        sys.exit(3)


def make_problem(name: str):
    from repro.circuits.testbenches import ChargePumpProblem, TwoStageOpAmpProblem

    return {"two_stage_opamp": TwoStageOpAmpProblem, "charge_pump": ChargePumpProblem}[
        name
    ]()


def fingerprint() -> dict:
    """Machine and BLAS facts recorded with every result (read, never set)."""
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": {"numpy": _blas_info(np), "scipy": _blas_info(scipy)},
    }


def _blas_info(module) -> dict:
    """BLAS name/version from ``show_config`` and the live thread count."""
    import ctypes

    info = {}
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # older numpy/scipy: no dict mode
        info["error"] = repr(exc)
    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                info["library"] = path.name
                return info
    return info


# -- set-up ------------------------------------------------------------------------------


class Setup:
    """Everything built before the first ``ask``: problem, study or server+client."""

    def __init__(self, cfg: dict, spec: dict, work: Path):
        self.cfg = cfg
        self.problem = make_problem(cfg["problem"])
        self.max_evaluations = cfg["n_initial"] + cfg["n_search"]
        surrogate = spec.get("surrogate") or {}
        self.server = self.client = self.study = None
        if cfg["loop"] == "service":
            from repro.service import StudyClient, StudyServer

            self.server = StudyServer(root=work / "store").start()
            self.client = StudyClient.create(
                self.server.address,
                "bench",
                problem=cfg["problem"],
                n_initial=cfg["n_initial"],
                max_evaluations=self.max_evaluations,
                seed=spec["study_seed"],
                surrogate=surrogate or None,
                scheduler=cfg.get("scheduler"),
            )
        else:
            from repro.bo.config import SurrogateConfig
            from repro.bo.study import Study

            self.study = Study(
                self.problem,
                surrogate=SurrogateConfig(**surrogate),
                n_initial=cfg["n_initial"],
                max_evaluations=self.max_evaluations,
                seed=spec["study_seed"],
            )

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()


# -- study loops -------------------------------------------------------------------------


def drive_local(setup: Setup, ops: Ops, asks: list, tells: list) -> list:
    """In-process ``Study``: serial ``ask(1)`` or sync ``ask(q)`` batches."""
    study, problem = setup.study, setup.problem
    q = setup.cfg.get("q", 1)
    while not study.done:
        n = study.initial_remaining or min(q, study.remaining_capacity)
        start = time.perf_counter()
        trials = ops(study.ask, n)
        elapsed = time.perf_counter() - start
        if trials[0].phase == "search":
            asks.append(elapsed)
        evaluations = [ops(problem.evaluate_unit, trial.u) for trial in trials]
        for trial, evaluation in zip(trials, evaluations):
            start = time.perf_counter()
            ops(study.tell, trial, evaluation)
            if trial.phase == "search":
                tells.append(time.perf_counter() - start)
    return list(study.result.records)


def drive_service(setup: Setup, ops: Ops, asks: list, tells: list, mismatches: list):
    """``StudyClient`` over loopback HTTP, ``in_flight`` streaming trials.

    Trials are evaluated oldest first, so the completion order (and with
    it the trace) is a pure function of the seed.  No search trial is
    asked while an initial-design trial is still pending, because the
    study refuses search proposals before the design is complete.
    """
    client, problem = setup.client, setup.problem
    in_flight = setup.cfg["in_flight"]
    n_initial = setup.cfg["n_initial"]
    pending = collections.deque()
    records = []
    asked = 0
    while asked < setup.max_evaluations or pending:
        while asked < setup.max_evaluations and len(pending) < in_flight:
            if asked >= n_initial and any(t.phase == "initial" for t in pending):
                break
            start = time.perf_counter()
            (trial,) = ops(client.ask, 1)
            elapsed = time.perf_counter() - start
            if trial.phase == "search":
                asks.append(elapsed)
            pending.append(trial)
            asked += 1
        trial = pending.popleft()
        evaluation = ops(problem.evaluate_unit, trial.u)
        start = time.perf_counter()
        record = ops(client.tell, trial, evaluation)
        if trial.phase == "search":
            tells.append(time.perf_counter() - start)
        if not (
            _same(record.evaluation.objective, evaluation.objective)
            and _same_array(record.evaluation.constraints, evaluation.constraints)
            and _same_array(record.x, trial.x)
        ):
            mismatches.append(trial.id)
        records.append(record)
    return sorted(records, key=lambda r: r.index)


def _same(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _same_array(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype="<f8")
    b = np.ascontiguousarray(b, dtype="<f8")
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- correctness checks ----------------------------------------------------------------


def check_outputs(setup: Setup, records: list, ops: Ops) -> tuple[list, dict]:
    """Budget, bounds, duplicates and incumbent re-simulation checks."""
    from repro.acquisition.spaces import incumbent_index
    from repro.bo.history import OptimizationResult

    problem = setup.problem
    errors = []
    if setup.client is not None:
        desc = ops(setup.client.describe)
        committed, n_pending = desc["n_evaluations"], desc["n_pending"]
    else:
        committed, n_pending = setup.study.n_evaluations, setup.study.n_pending
    if committed != setup.max_evaluations or len(records) != committed:
        errors.append(
            f"committed {committed} (records {len(records)}), budget {setup.max_evaluations}"
        )
    if n_pending:
        errors.append(f"{n_pending} trials still pending")
    x = np.stack([r.x for r in records])
    span = problem.upper - problem.lower
    tol = 1e-12 * span
    if np.any(x < problem.lower - tol) or np.any(x > problem.upper + tol):
        errors.append("a design lies outside the bounds")
    keys = {problem.cache_key(problem.scaler.transform(row)) for row in x}
    if len(keys) != len(x):
        errors.append(f"{len(x) - len(keys)} duplicate designs")
    result = OptimizationResult(problem.name, "bench")
    result.records = list(records)
    best = records[incumbent_index(result)]
    fresh = make_problem(setup.cfg["problem"]).evaluate(best.x)
    if not (
        _same(fresh.objective, best.evaluation.objective)
        and _same_array(fresh.constraints, best.evaluation.constraints)
    ):
        errors.append(f"incumbent record {best.index} does not re-simulate bitwise")
    report = {
        "trace_hash": hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest(),
        "incumbent": {
            "index": int(best.index),
            "violation": float(best.evaluation.violation),
            "objective": float(best.evaluation.objective),
        },
    }
    return errors, report


# -- traced run --------------------------------------------------------------------------


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_layers(tracer, patcher, problem) -> None:
    """Wrap each layer's public entry points (see ``run.py`` for the map)."""
    import http.client

    import repro.acquisition.spaces  # noqa: F401  (registers subspace maximizers)
    import repro.sim  # noqa: F401  (registers every simulator backend)
    from repro.acquisition.maximize import AcquisitionMaximizer
    from repro.acquisition.wei import WeightedExpectedImprovement
    from repro.bo.study import Study
    from repro.core.batched_gp import SurrogateBank
    from repro.core.trainer import BatchedFeatureGPTrainer
    from repro.service.client import StudyClient
    from repro.service.store import StudyStore
    from repro.sim.base import ACSweep, SimulatorBackend
    from tracing import timed

    def rows(arg, key, single=None):
        def after(t, args, kwargs, result, frame):
            n = np.atleast_2d(args[arg] if len(args) > arg else kwargs["x"]).shape[0]
            t.add(key, n)
            if single is not None and n == 1:
                t.add(single, 1)

        return after

    def epochs(t, args, kwargs, result, frame):
        t.sample("fit.epochs", len(args[0].loss_history))

    def sim_kind(t, args, kwargs, result, frame):
        if frame is not None:
            analyses = args[2] if len(args) > 2 else kwargs["analyses"]
            ac = any(isinstance(spec, ACSweep) for spec in analyses)
            t.add("sim.ac.s" if ac else "sim.dc.s", frame.duration)

    def eval_time(t, args, kwargs, result, frame):
        if frame is not None:
            t.sample("eval", frame.duration)

    def checkpoint_bytes(t, args, kwargs, result, frame):
        t.add("checkpoint.bytes", os.path.getsize(result))

    def sent_bytes(t, args, kwargs, result, frame):
        t.add("rpc.bytes", len(args[1]) if isinstance(args[1], (bytes, bytearray)) else 0)

    def read_bytes(t, args, kwargs, result, frame):
        t.add("rpc.bytes", len(result))

    wrap = patcher.wrap
    wrap(SurrogateBank, "fit", timed(tracer, "fit"))
    wrap(BatchedFeatureGPTrainer, "train", timed(tracer, None, epochs))
    wrap(SurrogateBank, "predict_target", timed(tracer, "predict", rows(2, "predict.rows")))
    wrap(SurrogateBank, "observe", timed(tracer, "observe"))
    wrap(SurrogateBank, "fantasize", timed(tracer, "fantasize"))
    for cls in [AcquisitionMaximizer, *_subclasses(AcquisitionMaximizer)]:
        if "maximize" in vars(cls):
            wrap(cls, "maximize", timed(tracer, "maximize"))
    wrap(
        WeightedExpectedImprovement,
        "__call__",
        timed(tracer, "acq", rows(1, "acq.rows", "acq.single_row_calls")),
    )
    for cls in _subclasses(SimulatorBackend):
        if "run" in vars(cls):
            wrap(cls, "run", timed(tracer, "sim", sim_kind))
    wrap(type(problem), "evaluate", timed(tracer, "eval", eval_time))
    wrap(Study, "ask", timed(tracer, "ask"))
    wrap(Study, "tell", timed(tracer, "tell"))
    wrap(Study, "checkpoint", timed(tracer, "checkpoint", checkpoint_bytes))
    wrap(StudyClient, "ask", timed(tracer, "rpc"))
    wrap(StudyClient, "tell", timed(tracer, "rpc"))
    wrap(StudyStore, "ask", timed(tracer, "rpc.server"))
    wrap(StudyStore, "tell", timed(tracer, "rpc.server"))
    wrap(http.client.HTTPConnection, "send", timed(tracer, None, sent_bytes))
    wrap(http.client.HTTPResponse, "read", timed(tracer, None, read_bytes))


def layer_metrics(tracer, wall: float, start: float, end: float) -> dict:
    calls, total, count = tracer.calls, tracer.total, tracer.counters
    epochs, evals = tracer.samples["fit.epochs"], tracer.samples["eval"]
    return {
        "fit.calls": calls["fit"],
        "fit.s": total["fit"],
        "fit.epochs": statistics.fmean(epochs) if epochs else 0.0,
        "predict.calls": calls["predict"],
        "predict.rows": count["predict.rows"],
        "predict.s": total["predict"],
        "observe.calls": calls["observe"],
        "observe.s": total["observe"],
        "fantasize.calls": calls["fantasize"],
        "fantasize.s": total["fantasize"],
        "maximize.calls": calls["maximize"],
        "maximize.s": total["maximize"],
        "acq.calls": calls["acq"],
        "acq.rows": count["acq.rows"],
        "acq.single_row_calls": count["acq.single_row_calls"],
        "acq.s": total["acq"],
        "sim.runs": calls["sim"],
        "sim.s": total["sim"],
        "sim.dc.s": count["sim.dc.s"],
        "sim.ac.s": count["sim.ac.s"],
        "eval.calls": calls["eval"],
        "eval.p50_s": statistics.median(evals) if evals else 0.0,
        "ask.s": total["ask"],
        "ask.self_s": tracer.self_time["ask"],
        "tell.s": total["tell"],
        "checkpoint.calls": calls["checkpoint"],
        "checkpoint.s": total["checkpoint"],
        "checkpoint.bytes": count["checkpoint.bytes"],
        "rpc.calls": calls["rpc"],
        "rpc.s": total["rpc"],
        "rpc.server_s": total["rpc.server"],
        "rpc.overhead_s": total["rpc"] - total["rpc.server"],
        "rpc.bytes": count["rpc.bytes"],
        "unattributed_s": wall - tracer.covered(start, end),
    }


# -- entry point -------------------------------------------------------------------------


def run(spec: dict) -> dict:
    cfg = dict(WORKLOADS[spec["workload"]])
    cfg.update(spec.get("budget") or {})
    work = Path(spec["work"])
    setup = Setup(cfg, spec, work)
    try:
        report = {"setup_s": time.monotonic() - spec["t0"]}
        if spec["mode"] == "setup":
            return report
        ops = Ops()
        asks, tells, mismatches = [], [], []
        tracer = patcher = None
        if spec["trace"]:
            from tracing import Patcher, Tracer

            tracer, patcher = Tracer(interval_names=ATTRIBUTED), Patcher()
            install_layers(tracer, patcher, setup.problem)
        snapshot = patcher.snapshot() if patcher else []
        start = time.perf_counter()
        try:
            if setup.client is not None:
                records = drive_service(setup, ops, asks, tells, mismatches)
            else:
                records = drive_local(setup, ops, asks, tells)
            end = time.perf_counter()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except StudyFailed as exc:
            traceback.print_exc()
            report.update(attempted=ops.attempted, failed=ops.failed, errors=[str(exc)])
            return report
        finally:
            if patcher is not None:
                patcher.restore()
        errors, outputs = check_outputs(setup, records, ops)
        if mismatches:
            errors.append(f"tell replies differ from what was sent for trials {mismatches}")
        report.update(
            outputs,
            wall_s=end - start,
            n_evaluations=len(records),
            ask_s=asks,
            tell_s=tells,
            peak_rss_mb=peak_rss_mb,
            attempted=ops.attempted,
            failed=ops.failed,
            errors=errors,
            sim_failures=setup.problem.n_failures,
            cache_hits=setup.problem.n_cache_hits,
        )
        if tracer is not None:
            report["layers"] = layer_metrics(tracer, end - start, start, end)
            report["restored"] = Patcher.is_restored(snapshot)
        return report
    finally:
        setup.close()


def main(argv) -> int:
    spec = json.loads(argv[1])
    import_repro()
    report = run(spec)
    report["fingerprint"] = fingerprint()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
