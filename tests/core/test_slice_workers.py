"""Split fits on the slice workers (``repro.core.slice_workers``).

A fit whose likelihood phase is split into slice groups must leave bitwise
what one ``_train_nll`` over the whole stack leaves: whatever the group
count, whichever worker dies or raises, and however many threads fit at
once.  The group count follows ``default_pool_workers()``; the tests set
it through that function, so they split on one-CPU hosts too.
"""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.bo.scheduler as scheduler
from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import SchedulerConfig, SurrogateConfig
from repro.bo.scheduler import FakeClock
from repro.core import NNBO, BatchedFeatureGPTrainer, BatchedNeuralFeatureGP
from repro.core import slice_workers
from repro.core.slice_workers import WORKERS, blas_single_thread
from repro.gp.linalg import CholeskyError, jitter_cholesky
from repro.nn.layers import Layer

from test_batched_gp import KW, make_data

#: the compaction test's stalling scenario: slices freeze at different
#: epochs, so every group's loss history ends in NaN-marked rows
STALLING = dict(epochs=200, patience=8, lr=0.2)

SMALL_NN = SurrogateConfig(n_ensemble=2, hidden_dims=(10, 10), n_features=6, epochs=20)


@pytest.fixture(scope="module", autouse=True)
def close_workers():
    """Leave no worker process behind this module."""
    yield
    WORKERS.close()


@pytest.fixture
def groups(monkeypatch):
    """Set the split's group count (``default_pool_workers()``)."""

    def set_groups(n: int):
        monkeypatch.setattr(scheduler, "default_pool_workers", lambda: n)

    return set_groups


@pytest.fixture
def split_sizes(monkeypatch):
    """Group count of every split fit that ran (one entry per split)."""
    sizes = []
    run = WORKERS.run

    def recording_run(workers, fn, tasks):
        sizes.append(len(tasks))
        return run(workers, fn, tasks)

    monkeypatch.setattr(WORKERS, "run", recording_run)
    return sizes


def stalling_fit(layer=None):
    """The stalling scenario's fit: ``(gp, trainer)``."""
    x, targets = make_data(n=30)
    gp = BatchedNeuralFeatureGP(
        3, n_stack=4, seed=[np.random.default_rng(s) for s in (31, 32, 33, 34)], **KW
    )
    if layer is not None:
        gp.network.layers.append(layer)
    trainer = BatchedFeatureGPTrainer(**STALLING)
    gp.fit(
        x,
        np.stack([targets[0], targets[1], targets[0] * 2.0, targets[1] - 1.0]),
        trainer=trainer,
    )
    return gp, trainer


def assert_same_fit(got, want):
    (gp, trainer), (gp_ref, trainer_ref) = got, want
    np.testing.assert_array_equal(
        gp.network.get_stacked_params(), gp_ref.network.get_stacked_params()
    )
    np.testing.assert_array_equal(gp.log_noise_variance, gp_ref.log_noise_variance)
    np.testing.assert_array_equal(gp.log_prior_variance, gp_ref.log_prior_variance)
    # NaN positions included: assert_array_equal matches NaN with NaN
    np.testing.assert_array_equal(
        np.array(trainer.loss_history), np.array(trainer_ref.loss_history)
    )
    x_query = np.random.default_rng(12).uniform(size=(9, 3))
    for value, value_ref in zip(gp.predict(x_query), gp_ref.predict(x_query)):
        np.testing.assert_array_equal(value, value_ref)


@pytest.fixture
def reference(groups):
    """The stalling fit as one ``_train_nll`` over the whole stack."""
    groups(1)
    return stalling_fit()


class TestBitwiseSplit:
    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    def test_matches_one_pass_over_the_stack(self, reference, groups, split_sizes, n_groups):
        groups(n_groups)
        gp, trainer = stalling_fit()
        assert split_sizes == ([n_groups] if n_groups > 1 else [])
        history = np.array(trainer.loss_history)
        assert np.isnan(history).any()  # the scenario must exercise freezing
        assert_same_fit((gp, trainer), reference)

    def test_best_nll_matches(self, groups):
        x, targets = make_data(n=30)
        z = np.stack([targets[0], targets[1], targets[0] * 2.0, targets[1] - 1.0])
        best = {}
        for n_groups in (1, 3):
            groups(n_groups)
            gp = BatchedNeuralFeatureGP(
                3, n_stack=4, seed=[np.random.default_rng(s) for s in (31, 32, 33, 34)], **KW
            )
            best[n_groups] = BatchedFeatureGPTrainer(**STALLING).train(gp, x, z)
        np.testing.assert_array_equal(best[3], best[1])

    @pytest.mark.parametrize(
        "scheduler_config",
        [
            SchedulerConfig(),
            SchedulerConfig(q=3),
            SchedulerConfig(executor="async-thread", n_eval_workers=2, clock=FakeClock()),
        ],
        ids=["serial-q1", "sync-q3", "async-fakeclock"],
    )
    def test_study_traces_match(self, groups, split_sizes, scheduler_config):
        def run():
            return NNBO(
                toy_constrained_quadratic(2),
                n_initial=5,
                max_evaluations=9,
                surrogate=SMALL_NN,
                scheduler_config=scheduler_config,
                seed=7,
            ).run()

        groups(1)
        single = run()
        assert split_sizes == []
        groups(2)
        split = run()
        assert split_sizes and set(split_sizes) == {2}
        np.testing.assert_array_equal(split.x_matrix, single.x_matrix)
        np.testing.assert_array_equal(split.objectives, single.objectives)


class _RaiseWhenMarked(Layer):
    """Identity layer whose forward factorizes ``-2 I`` if it holds a marked slice."""

    def __init__(self, marked):
        self.marked = np.asarray(marked, dtype=bool)

    def forward(self, x):
        if self.marked.any():
            jitter_cholesky(-2.0 * np.eye(3))
        return x

    def backward(self, grad_out):
        return grad_out

    def gather_slices(self, idx):
        return _RaiseWhenMarked(self.marked[idx])


class TestFailurePaths:
    def test_worker_killed_mid_fit(self, reference, groups, split_sizes, monkeypatch):
        groups(2)
        stalling_fit()  # the worker is up before the kill is armed
        send = slice_workers._Worker.send
        killed = []

        def send_then_die(worker, obj):
            send(worker, obj)
            killed.append(worker.proc.pid)
            worker.proc.kill()

        monkeypatch.setattr(slice_workers._Worker, "send", send_then_die)
        assert_same_fit(stalling_fit(), reference)
        assert len(killed) == 1
        monkeypatch.setattr(slice_workers._Worker, "send", send)
        # the next fit starts a replacement and splits again
        assert_same_fit(stalling_fit(), reference)
        assert [worker.proc.pid for worker in WORKERS._workers] != killed
        assert split_sizes == [2, 2, 2]

    def test_worker_exception_reaches_the_caller_unchanged(self, groups):
        marked = [False, False, False, True]  # slice 3 is in the worker's group
        groups(1)
        with pytest.raises(CholeskyError) as in_caller:
            stalling_fit(_RaiseWhenMarked(marked))
        groups(2)
        with pytest.raises(CholeskyError) as from_worker:
            stalling_fit(_RaiseWhenMarked(marked))
        assert str(from_worker.value) == str(in_caller.value)
        assert "last jitter 1e-06" in str(from_worker.value)
        # the worker that raised replied normally and keeps serving
        pids = [worker.proc.pid for worker in WORKERS._workers]
        stalling_fit()
        assert [worker.proc.pid for worker in WORKERS._workers] == pids

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_fit_in_multiprocessing_child_spawns_nothing(self, reference, groups):
        groups(2)
        stalling_fit()  # the child inherits a live worker set
        assert WORKERS._workers
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
            n_workers, params = pool.submit(_fit_and_count_workers).result(timeout=120)
        assert n_workers == 0
        np.testing.assert_array_equal(params, reference[0].network.get_stacked_params())

    def test_concurrent_fits_are_bitwise_and_never_deadlock(self, reference, groups):
        groups(2)
        results, errors = [None] * 4, []

        def fit(i):
            try:
                results[i] = stalling_fit()
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=fit, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for result in results:
            assert_same_fit(result, reference)

    def test_held_workers_mean_one_group(self, reference, groups, split_sizes):
        groups(2)
        with WORKERS.checkout(4) as lent:
            assert lent
            fit = stalling_fit()
        assert split_sizes == []
        assert_same_fit(fit, reference)

    def test_unguarded_script_runs_once(self, tmp_path):
        marker = tmp_path / "runs.txt"
        script = tmp_path / "unguarded.py"
        src = str(Path(repro.__file__).resolve().parents[1])
        script.write_text(
            textwrap.dedent(
                f"""
                import sys
                sys.path.insert(0, {src!r})  # in-process, as perfbench does
                import repro.bo.scheduler
                repro.bo.scheduler.default_pool_workers = lambda: 2
                from repro.api import NNBO, SurrogateConfig
                from repro.benchfns import toy_constrained_quadratic
                from repro.core.slice_workers import WORKERS
                with open({str(marker)!r}, "a") as f:
                    f.write("run\\n")
                NNBO(
                    toy_constrained_quadratic(2), n_initial=4, max_evaluations=6,
                    surrogate=SurrogateConfig(
                        n_ensemble=2, hidden_dims=(8, 8), n_features=5, epochs=20
                    ),
                    seed=0,
                ).run()
                print("workers", len(WORKERS._workers))
                """
            )
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
            cwd=tmp_path,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["workers", "1"]
        assert marker.read_text() == "run\n"


def _blas_threads():
    return [get() for get, _ in slice_workers._blas_thread_controls()]


def _fit_and_count_workers():
    gp, _ = stalling_fit()
    return len(WORKERS._workers), gp.network.get_stacked_params()


class TestLifecycle:
    def test_close_reaps_every_worker(self, groups):
        groups(3)
        stalling_fit()
        procs = [worker.proc for worker in WORKERS._workers]
        assert len(procs) == 2
        WORKERS.close()
        assert WORKERS._workers == []
        assert all(proc.returncode is not None for proc in procs)

    def test_every_group_trains_on_one_blas_thread(self, groups):
        """Group 0 under the pin, the others in workers started with
        ``OPENBLAS_NUM_THREADS=1``."""
        if not slice_workers._blas_thread_controls():
            pytest.skip("no bundled OpenBLAS exposes its thread controls here")
        groups(2)
        with WORKERS.checkout(4) as workers:
            assert len(workers) == 1
            here, there = WORKERS.run(workers, _blas_threads, [(), ()])
        assert here == there == [1] * len(here)

    def test_blas_pin_restores_the_callers_threads(self):
        controls = slice_workers._blas_thread_controls()
        if not controls:
            pytest.skip("no bundled OpenBLAS exposes its thread controls here")
        before = [get() for get, _ in controls]
        with pytest.raises(KeyError):
            with blas_single_thread():
                assert [get() for get, _ in controls] == [1] * len(controls)
                raise KeyError("the pin is undone on the way out")
        assert [get() for get, _ in controls] == before
