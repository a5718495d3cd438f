"""Unit tests for :class:`~repro.farm.farm.EvaluationFarm` mechanics.

Tenancy, weighted fair-share dispatch, backpressure, per-task
timeout/cancel, elastic resize, and the close lifecycle — all against a
gated evaluator so dispatch order is observable deterministically.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bo.problem import FunctionProblem
from repro.bo.scheduler import ProcessPoolEvaluator, SerialEvaluator
from repro.farm import (
    EvaluationFarm,
    EvaluationTimeout,
    FarmError,
    FarmSaturated,
    UnknownTenant,
)
from farm_helpers import make_picklable_problem, make_second_problem

# dispatch log + per-evaluation gate: objectives append their tag the
# moment a worker starts them, then block until the test releases them,
# so the farm's WRR choices are observable one dispatch at a time
_DISPATCHES: list[str] = []
_GATE = threading.Semaphore(0)


def _gated(tag):
    def objective(x):
        _DISPATCHES.append(tag)
        _GATE.acquire()
        return float(np.sum(x**2))

    return objective


def gated_problem(tag: str) -> FunctionProblem:
    return FunctionProblem(
        f"gated_{tag}", np.zeros(2), np.ones(2), objective=_gated(tag)
    )


def _await_dispatches(n: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while len(_DISPATCHES) < n:
        assert time.monotonic() < deadline, (
            f"expected {n} dispatches, saw {_DISPATCHES}"
        )
        time.sleep(0.005)


@pytest.fixture(autouse=True)
def _reset_gate():
    _DISPATCHES.clear()
    # drain any releases a failing test left behind
    while _GATE.acquire(blocking=False):
        pass
    yield
    while _GATE.acquire(blocking=False):
        pass


class TestTenancy:
    def test_register_resolve_unregister(self):
        with EvaluationFarm("async-thread", n_workers=1) as farm:
            a = farm.register("a", problem=make_picklable_problem())
            b = farm.register("b", problem=make_second_problem(), weight=2.0)
            assert [t.name for t in farm.tenants()] == ["a", "b"]
            assert farm.tenant("b") is b
            farm.unregister(a)
            with pytest.raises(UnknownTenant):
                farm.tenant("a")
            with pytest.raises(UnknownTenant):
                farm.submit("a", [0.5, 0.5])

    def test_duplicate_name_rejected(self):
        with EvaluationFarm("async-thread", n_workers=1) as farm:
            farm.register("a", problem=make_picklable_problem())
            with pytest.raises(FarmError, match="already registered"):
                farm.register("a", problem=make_second_problem())

    def test_invalid_tenant_parameters(self):
        with EvaluationFarm("async-thread", n_workers=1) as farm:
            problem = make_picklable_problem()
            with pytest.raises(ValueError, match="weight"):
                farm.register("w", problem=problem, weight=0.0)
            with pytest.raises(ValueError, match="ewma_alpha"):
                farm.register("e", problem=problem, ewma_alpha=1.5)


class TestFairShare:
    def test_weighted_round_robin_dispatch_order(self):
        """A weight-2 tenant gets twice the dispatches of a weight-1 one.

        Capacity 1 serializes dispatches; releasing evaluations one at a
        time exposes each WRR pick: after A's first task the farm owes B
        (0/1 < 1/2), then A twice (1/2 < 1/1, then tie broken by
        registration order), then B again.
        """
        with EvaluationFarm("async-thread", n_workers=4, capacity=1) as farm:
            a = farm.register("a", problem=gated_problem("a"), weight=2.0)
            b = farm.register("b", problem=gated_problem("b"), weight=1.0)
            tasks = [farm.submit(a, [0.1, 0.1 * i]) for i in range(1, 5)]
            tasks += [farm.submit(b, [0.9, 0.1 * i]) for i in range(1, 3)]
            _await_dispatches(1)
            for done in range(1, 6):
                _GATE.release()
                _await_dispatches(done + 1)
            _GATE.release()
            for task in tasks:
                farm.collect(task, timeout=10.0)
        assert _DISPATCHES == ["a", "b", "a", "a", "b", "a"]

    def test_queue_depth_and_describe(self):
        with EvaluationFarm("async-thread", n_workers=2, capacity=1) as farm:
            a = farm.register("a", problem=gated_problem("a"))
            tasks = [farm.submit(a, [0.2, 0.2]), farm.submit(a, [0.3, 0.3])]
            _await_dispatches(1)
            assert farm.n_running == 1
            assert farm.queue_depth == 1
            snapshot = farm.describe()
            assert snapshot["capacity"] == 1
            assert snapshot["tenants"]["a"]["queue_depth"] == 1
            _GATE.release()
            _GATE.release()
            for task in tasks:
                farm.collect(task, timeout=10.0)
            assert farm.describe()["tenants"]["a"]["completed"] == 2
            assert farm.describe()["tenants"]["a"]["eval_ewma_s"] is not None


class TestBackpressure:
    def test_saturated_tenant_queue_rejects(self):
        with EvaluationFarm("async-thread", n_workers=2, capacity=1) as farm:
            a = farm.register("a", problem=gated_problem("a"), max_queue=1)
            first = farm.submit(a, [0.1, 0.1])
            _await_dispatches(1)
            farm.submit(a, [0.2, 0.2])  # fills the queue bound
            with pytest.raises(FarmSaturated, match="queue is full"):
                farm.submit(a, [0.3, 0.3])
            _GATE.release()
            _GATE.release()
            farm.collect(first, timeout=10.0)

    def test_unbounded_tenant_never_rejects(self):
        with EvaluationFarm("async-thread", n_workers=2, capacity=1) as farm:
            a = farm.register("a", problem=gated_problem("a"))
            tasks = [farm.submit(a, [0.1 * i, 0.5]) for i in range(1, 7)]
            for _ in tasks:
                _GATE.release()
            for task in tasks:
                farm.collect(task, timeout=10.0)


class TestTimeoutAndCancel:
    def test_collect_timeout_cancels(self):
        with EvaluationFarm("async-thread", n_workers=1) as farm:
            a = farm.register("a", problem=gated_problem("a"))
            task = farm.submit(a, [0.4, 0.4])
            with pytest.raises(EvaluationTimeout):
                farm.collect(task, timeout=0.05)
            assert task.cancelled
            _GATE.release()  # unblock the worker for teardown

    def test_queued_task_times_out_before_dispatch(self):
        with EvaluationFarm("async-thread", n_workers=2, capacity=1) as farm:
            a = farm.register("a", problem=gated_problem("a"))
            farm.submit(a, [0.1, 0.1])
            queued = farm.submit(a, [0.2, 0.2])
            with pytest.raises(EvaluationTimeout, match="not dispatched"):
                farm.collect(queued, timeout=0.05)
            _GATE.release()

    def test_cancel_queued_task(self):
        with EvaluationFarm("async-thread", n_workers=2, capacity=1) as farm:
            a = farm.register("a", problem=gated_problem("a"))
            running = farm.submit(a, [0.1, 0.1])
            queued = farm.submit(a, [0.2, 0.2])
            assert farm.cancel(queued) is True
            with pytest.raises(FarmError, match="cancelled"):
                farm.collect(queued, timeout=1.0)
            _GATE.release()
            farm.collect(running, timeout=10.0)
            # the cancelled task never dispatched
            _GATE.release()
            time.sleep(0.05)
            assert _DISPATCHES == ["a"]


def flaky_problem() -> FunctionProblem:
    """Raises for ``x0 > 0.5``; a closure, so it cannot be pickled."""

    def objective(x):
        if x[0] > 0.5:
            raise RuntimeError("simulator diverged")
        return float(np.sum(x**2))

    return FunctionProblem("flaky", np.zeros(2), np.ones(2), objective=objective)


class TestInProcessFailures:
    @pytest.mark.filterwarnings("ignore:problem 'flaky' is not picklable")
    @pytest.mark.parametrize(
        "make_executor",
        [lambda: ProcessPoolEvaluator(n_workers=2), SerialEvaluator],
        ids=["process-fallback", "serial"],
    )
    def test_failed_evaluation_frees_its_slot(self, make_executor):
        """Regression: an in-process evaluation that raised inside
        ``submit`` left its task running forever, so two failures filled
        a two-slot farm and the next design never dispatched."""
        with make_executor() as evaluator, EvaluationFarm(evaluator, capacity=2) as farm:
            tenant = farm.register("flaky", problem=flaky_problem())
            for u in ([0.9, 0.9], [0.8, 0.8]):
                with pytest.raises(RuntimeError, match="diverged"):
                    farm.collect(farm.submit(tenant, u), timeout=2.0)
            assert farm.n_running == 0
            evaluation = farm.collect(farm.submit(tenant, [0.1, 0.2]), timeout=2.0)
        assert evaluation.objective == pytest.approx(0.05)


# two tenants with different problems on one process pool; run in a child
# process so a deadlock fails the test through the timeout
_TWO_TENANT_SCRIPT = """
import json

from farm_helpers import make_picklable_problem, make_second_problem
from repro.farm import EvaluationFarm

problems = {"a": make_picklable_problem(), "b": make_second_problem()}
rounds = [[("a", [0.2, 0.2]), ("b", [0.2, 0.2]), ("a", [0.8, 0.8]),
           ("b", [0.8, 0.8])], [("a", [0.2, 0.2]), ("b", [0.8, 0.8])]]
results = []
with EvaluationFarm("async-process", n_workers=2) as farm:
    tenants = {name: farm.register(name, problem=p) for name, p in problems.items()}
    for designs in rounds:
        tasks = [farm.submit(tenants[name], u) for name, u in designs]
        for task in tasks:
            evaluation = farm.collect(task, timeout=30.0)
            results.append([evaluation.objective, *evaluation.constraints.tolist()])
print(json.dumps({
    "results": results,
    "cache": {name: list(p.cache_stats) for name, p in problems.items()},
}))
"""


class TestProcessPoolTenancy:
    def test_two_tenants_share_one_process_pool(self):
        """Regression: a second tenant's problem made the pool close and
        respawn inside ``farm.submit`` — under the farm lock the pool's
        done-callbacks wait on, so the second submit hung forever."""
        here = Path(__file__).resolve().parent
        path = [str(here.parents[1] / "src"), str(here), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        with subprocess.Popen(
            [sys.executable, "-c", _TWO_TENANT_SCRIPT], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                # kill the pool workers too, not only the hung child
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                pytest.fail("two tenants on one process-pool farm deadlocked")
        assert proc.returncode == 0, stderr
        report = json.loads(stdout)
        problems = {"a": make_picklable_problem(), "b": make_second_problem()}
        designs = [
            ("a", [0.2, 0.2]), ("b", [0.2, 0.2]), ("a", [0.8, 0.8]),
            ("b", [0.8, 0.8]), ("a", [0.2, 0.2]), ("b", [0.8, 0.8]),
        ]
        expected = []
        for name, u in designs:
            evaluation = problems[name].evaluate_unit_uncached(np.array(u))
            expected.append([evaluation.objective, *evaluation.constraints.tolist()])
        assert report["results"] == expected
        # the repeats were answered from each tenant's own parent cache
        assert report["cache"] == {"a": [1, 2], "b": [1, 2]}


class TestResize:
    def test_grow_dispatches_queued_work(self):
        with EvaluationFarm("async-thread", n_workers=4, capacity=1) as farm:
            a = farm.register("a", problem=gated_problem("a"))
            tasks = [farm.submit(a, [0.1 * i, 0.3]) for i in range(1, 4)]
            _await_dispatches(1)
            assert farm.n_running == 1
            farm.resize(3)
            _await_dispatches(3)
            assert farm.n_running == 3
            for _ in tasks:
                _GATE.release()
            for task in tasks:
                farm.collect(task, timeout=10.0)

    def test_shrink_only_gates_new_dispatches(self):
        with EvaluationFarm("async-thread", n_workers=4, capacity=2) as farm:
            a = farm.register("a", problem=gated_problem("a"))
            tasks = [farm.submit(a, [0.1 * i, 0.4]) for i in range(1, 4)]
            _await_dispatches(2)
            farm.resize(1)
            assert farm.n_running == 2  # running work is never cancelled
            _GATE.release()
            _GATE.release()
            farm.collect(tasks[0], timeout=10.0)
            farm.collect(tasks[1], timeout=10.0)
            _await_dispatches(3)
            assert farm.n_running == 1
            _GATE.release()
            farm.collect(tasks[2], timeout=10.0)


class TestLifecycle:
    def test_closed_farm_rejects_submissions(self):
        farm = EvaluationFarm("async-thread", n_workers=1)
        a = farm.register("a", problem=make_picklable_problem())
        farm.close()
        with pytest.raises(FarmError, match="closed"):
            farm.submit(a, [0.5, 0.5])
        farm.close()  # idempotent

    def test_close_cancels_queued_work(self):
        farm = EvaluationFarm("async-thread", n_workers=2, capacity=1)
        a = farm.register("a", problem=gated_problem("a"))
        farm.submit(a, [0.1, 0.1])
        queued = farm.submit(a, [0.2, 0.2])
        _await_dispatches(1)
        # close() blocks on the owned pool until the gated worker exits,
        # so drive it from a helper thread and release the gate once the
        # queued task is observably cancelled
        closer = threading.Thread(target=farm.close)
        closer.start()
        deadline = time.monotonic() + 10.0
        while not queued.cancelled:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        _GATE.release()
        closer.join(timeout=10.0)
        assert not closer.is_alive()

    def test_executor_instance_is_not_owned(self):
        from repro.bo.scheduler import ThreadPoolEvaluator

        evaluator = ThreadPoolEvaluator(n_workers=1)
        try:
            with EvaluationFarm(evaluator) as farm:
                a = farm.register("a", problem=make_picklable_problem())
                farm.collect(farm.submit(a, [0.5, 0.5]), timeout=10.0)
            # the farm closed, the caller's executor must still work
            future = evaluator.submit(make_picklable_problem(), np.array([0.2, 0.2]))
            future.result(timeout=10.0)
        finally:
            evaluator.close()

    def test_executor_instance_rejects_n_workers(self):
        from repro.bo.scheduler import ThreadPoolEvaluator

        evaluator = ThreadPoolEvaluator(n_workers=1)
        try:
            with pytest.raises(ValueError, match="n_workers"):
                EvaluationFarm(evaluator, n_workers=2)
        finally:
            evaluator.close()
