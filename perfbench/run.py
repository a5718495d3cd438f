"""The repo benchmark: whole ask/tell studies at the paper's surrogate settings.

Run from the repository root::

    python3 perfbench/run.py --workload opamp-serial --seed 1 --seconds 25 --trace 0

Every study runs in a fresh interpreter (``perfbench/workload.py``) with the
paper's surrogate settings, ``SurrogateConfig()`` defaults: K=5 ensemble
members, two 50-unit layers, 50 features, 300 epochs.  The benchmark never
sets BLAS threads; it records what it finds (``nproc``, BLAS vendor and
thread count, ``OPENBLAS_NUM_THREADS``, Python/numpy/scipy versions) in
the info line it prints before the result.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
from untraced studies; with ``--trace 1`` they are the per-layer ones,
from a separate traced study.  The study seed derives from ``--seed``.
``--seconds`` sets the work: one study per ``SECONDS_PER_STUDY`` seconds
(at least one), a fixed count on every commit.

Workloads (closed loop, one client, at most 2 busy threads):

* ``opamp-serial`` — Table I two-stage op-amp (d=10, 2 constraints), 30
  LHS initial designs, then 12 serial ``ask(1)`` -> evaluate -> ``tell``.
  Bound by the surrogate fit; barely touches the simulator (AC analysis).
* ``cp-batch4`` — Table II charge pump (d=36, 5 constraints, all 18 PVT
  corners), 20 LHS initial designs, then three sync ``ask(4)`` batches with
  fantasy lies between picks.  Bound by the maximizer (Nelder-Mead polish)
  and the DC simulator; the fit matters less.
* ``opamp-service-async`` — the op-amp study behind an in-process
  ``StudyServer`` thread, driven by a ``StudyClient`` over loopback HTTP
  with 2 streaming trials in flight, ``async_refit="fantasy-only"`` and a
  full refit every 4 landings: 30 initial + 16 search evaluations, two
  studies per run (its cheap asks vary with checkpoint time).  Same
  surrogate layer used differently (posterior-only ``observe`` /
  ``fantasize``), plus a durable checkpoint after every mutation.

End-to-end metrics (``--trace 0``):

* ``setup_s`` — interpreter start until the study can take its first
  ``ask`` (``repro`` imports, problem, server start, study create); the
  median of four set-ups per run (set-up-only interpreters plus each
  study's own).
* ``evals_per_s`` — committed evaluations per second of study wall time
  (median over the run's studies).
* ``ask_p50_s`` — median latency of a search-phase ``ask``, pooled over
  the run's studies (the info line gives the sample count).
* ``peak_rss_mb`` — peak resident memory of the study's process.

Correctness, checked on every study (``correct`` is false otherwise):
committed evaluations equal the budget with 0 pending; every design is in
bounds and none is a duplicate; the incumbent re-simulates bitwise on a
freshly built problem; on the service workload every ``tell`` reply's
record equals what the client sent.  The trace hash (SHA-256 of the
committed design matrix) is printed in the info line.  On ``--trace 1``
the traced study's hash must equal the untraced study's and every wrapper
must be restored.

Per-layer metrics (``--trace 1``), metric -> layer (public call timed) ->
end-to-end metric it should move -> workload it is mostly / little on:

* ``fit.calls``, ``fit.s``, ``fit.epochs`` (mean epochs per training) ->
  ``core.batched_gp.SurrogateBank.fit``, ``core.trainer.
  BatchedFeatureGPTrainer.train`` -> ``evals_per_s``, ``ask_p50_s`` ->
  opamp-serial / cp-batch4
* ``predict.calls``, ``predict.rows``, ``predict.s`` ->
  ``SurrogateBank.predict_target`` -> ``ask_p50_s`` -> cp-batch4 /
  opamp-service-async
* ``observe.*``, ``fantasize.*`` -> ``SurrogateBank.observe`` /
  ``.fantasize`` -> ``tell_p50_s``, ``ask_p50_s`` -> opamp-service-async
  / opamp-serial (0)
* ``maximize.calls``, ``maximize.s``, ``acq.calls``, ``acq.rows``,
  ``acq.single_row_calls`` (polish probes), ``acq.s`` ->
  ``acquisition.maximize.AcquisitionMaximizer.maximize`` (every subclass),
  ``acquisition.wei.WeightedExpectedImprovement.__call__`` ->
  ``ask_p50_s`` -> cp-batch4 / opamp-serial
* ``sim.runs``, ``sim.s``, ``sim.dc.s``, ``sim.ac.s`` (split by analysis
  plan), ``eval.calls``, ``eval.p50_s``, ``sim.failures``
  (``SizingProblem.n_failures``), ``cache.hits`` ->
  ``sim.base.SimulatorBackend.run`` (every backend), the problem's
  ``evaluate`` -> ``evals_per_s`` -> cp-batch4 / opamp-serial
* ``ask.s``, ``ask.self_s`` (ask minus its child spans: fit, maximize,
  fantasize, predict), ``tell.s`` -> ``bo.study.Study.ask`` / ``.tell``
  -> ``ask_p50_s``, ``tell_p50_s`` -> all three
* ``checkpoint.calls``, ``checkpoint.s``, ``checkpoint.bytes`` ->
  ``Study.checkpoint`` (via ``service.store``) -> ``tell_p50_s``,
  ``ask_p50_s`` -> opamp-service-async / others (0)
* ``rpc.calls``, ``rpc.s``, ``rpc.server_s``, ``rpc.overhead_s`` (client
  time minus server ``StudyStore.ask``/``.tell`` time), ``rpc.bytes`` ->
  ``service.client.StudyClient.ask`` / ``.tell``,
  ``service.store.StudyStore.ask`` / ``.tell`` -> ``ask_p50_s``,
  ``tell_p50_s`` -> opamp-service-async / others (0)
* ``trace_overhead`` (traced wall / untraced wall - 1), ``unattributed_s``
  (study time no fit, maximize, sim, checkpoint or rpc span covers)

Four end-to-end quantities travel with the per-layer metrics, measured on
the untraced study of the ``--trace 1`` run, because a bounded end-to-end
metric must never read 0 and must agree across seeds within its bound:

* ``tell_p50_s`` — median search-phase ``tell`` latency (absorb, plus
  checkpoint and round trip on the service workload).  On the in-process
  workloads a tell is 10-50 us of pure-Python bookkeeping whose
  run-to-run spread follows the shared host's CPU speed (0.30 over ten
  seeds on opamp-serial on a 2-vCPU x86 VM, above any allowed bound).
* ``incumbent_violation``, ``incumbent_objective`` — the incumbent of
  ``repro.acquisition.spaces.incumbent_index`` at budget; deterministic
  per seed, so a changed trace shows what it did to the search result.
* ``error_rate`` — failed ask/tell/evaluate/RPC operations over attempted
  (0 on every workload; ``failed``/``attempted`` in the result carry it too).

The first measured baseline is in ``perfbench/BASELINE.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the whole run, children included, ends within this many seconds
DEADLINE_S = 170.0
#: set-ups measured per run (each study's own set-up counts as one)
SETUP_SAMPLES = 4
#: seconds of ``--seconds`` that one study stands for; a study takes about
#: 18 s (opamp-serial), 33 s (cp-batch4) and 19 s (opamp-service-async) on a
#: 2-vCPU x86 VM, so a 25 s run (``run_seconds``) gives one, one and two studies
SECONDS_PER_STUDY = {"opamp-serial": 25.0, "cp-batch4": 25.0, "opamp-service-async": 12.5}
#: tiny budgets and surrogate for the self-test (numbers not comparable)
SMOKE = {
    "budget": {"n_initial": 4, "n_search": 4},
    "surrogate": {"n_ensemble": 2, "hidden_dims": [8, 8], "n_features": 8, "epochs": 15},
}


class ChildFailed(Exception):
    """A study interpreter exited non-zero or ran out of time."""


class Runner:
    """Spawns ``workload.py`` children, each in its own work directory."""

    def __init__(self, workload: str, seed: int, smoke: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self._dirs = itertools.count()

    def spawn(self, mode: str, sub: int = 0, trace: bool = False) -> dict:
        work = self.work / str(next(self._dirs))
        work.mkdir(parents=True)
        spec = {
            "workload": self.workload,
            "study_seed": (self.seed * 1_000_003 + sub) % 2**32,
            "mode": mode,
            "trace": trace,
            "work": str(work),
        }
        if self.smoke:
            spec.update(SMOKE)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("out of time before the next study")
        spec["t0"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "workload.py"), json.dumps(spec)],
                stdout=subprocess.PIPE,
                text=True,
                timeout=timeout,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} study timed out") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} study exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def load_metric_units(trace: bool) -> dict:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def end_to_end(runner: Runner, n_studies: int) -> tuple[dict, list, dict]:
    n_setups = max(0, SETUP_SAMPLES - n_studies)
    setups = [runner.spawn("setup")["setup_s"] for _ in range(n_setups)]
    reports = [runner.spawn("study", sub=i) for i in range(n_studies)]
    setups += [r["setup_s"] for r in reports]
    asks = [s for r in reports for s in r.get("ask_s", [])]
    metrics = {"setup_s": statistics.median(setups)}
    if all("wall_s" in r for r in reports):
        metrics.update(
            evals_per_s=statistics.median(r["n_evaluations"] / r["wall_s"] for r in reports),
            ask_p50_s=statistics.median(asks),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in reports),
        )
    samples = {"setup": len(setups), "studies": n_studies, "ask": len(asks)}
    return metrics, reports, samples


def per_layer(runner: Runner) -> tuple[dict, list, dict]:
    untraced = runner.spawn("study")
    traced = runner.spawn("study", trace=True)
    reports = [untraced, traced]
    if "layers" not in traced or "wall_s" not in untraced:
        return {}, reports, {}
    attempted = sum(r["attempted"] for r in reports)
    metrics = dict(traced["layers"])
    metrics.update(
        {
            "sim.failures": traced["sim_failures"],
            "cache.hits": traced["cache_hits"],
            "trace_overhead": traced["wall_s"] / untraced["wall_s"] - 1.0,
            "tell_p50_s": statistics.median(untraced["tell_s"]),
            "incumbent_violation": untraced["incumbent"]["violation"],
            "incumbent_objective": untraced["incumbent"]["objective"],
            "error_rate": sum(r["failed"] for r in reports) / attempted,
        }
    )
    hashes = [r.get("trace_hash") for r in reports]
    errors = []
    if hashes[0] != hashes[1]:
        errors.append(f"traced trace hash {hashes[1]} != untraced {hashes[0]}")
    if not traced.get("restored", False):
        errors.append("tracing wrappers were not restored")
    return metrics, reports, {"parity_errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SECONDS_PER_STUDY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets (self-test)")
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    runner = Runner(args.workload, args.seed, args.smoke, work)
    try:
        units = load_metric_units(bool(args.trace))
        if args.trace:
            metrics, reports, extra = per_layer(runner)
        else:
            n_studies = max(1, round(args.seconds / SECONDS_PER_STUDY[args.workload]))
            metrics, reports, extra = end_to_end(runner, n_studies)
    except (ChildFailed, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's work
            work.parent.rmdir()

    errors = [e for r in reports for e in r.get("errors", [])]
    errors += extra.pop("parity_errors", [])
    attempted = sum(r.get("attempted", 0) for r in reports)
    failed = sum(r.get("failed", 0) for r in reports)
    missing = sorted(set(units) - set(metrics))
    if missing:
        errors.append(f"metrics not produced: {missing}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace_hashes": [r.get("trace_hash") for r in reports],
        "samples": extra,
        "errors": errors,
        "fingerprint": reports[0].get("fingerprint") if reports else None,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": not errors and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
