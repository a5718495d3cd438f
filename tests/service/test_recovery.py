"""Crash-recovery and paper-testbench acceptance tests.

The brutal version of the durability contract: SIGKILL a *real* server
process (no atexit, no flush, no goodbye) holding several studies with
trials in flight, restart on the same store directory, and require every
study to continue bitwise — plus the headline acceptance pin, a
:class:`StudyClient`-driven study on the paper's charge-pump testbench
bitwise-identical to an in-process :class:`Study`.  Checkpoints written
by the previous on-disk format keep resuming bitwise, and a damaged
checkpoint is reported as a checkpoint conflict, not as a bad request.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import SurrogateConfig
from repro.bo.study import CHECKPOINT_FORMAT, CheckpointMismatch, Study
from repro.circuits.testbenches import ChargePumpProblem
from repro.service import StudyClient, StudyServer
from repro.service.problems import build_problem
from repro.service.store import StudyStore

TINY = {"n_ensemble": 2, "hidden_dims": [10, 10], "n_features": 6, "epochs": 20}
PROBLEM = toy_constrained_quadratic(2)

_SRC = Path(__file__).resolve().parents[2] / "src"

#: a store written by the ``repro.study/v1`` checkpoint writer (commit
#: 89dba6d): study "v1" on toy_constrained_quadratic, seed 5, a 2-member
#: surrogate with one 4-unit layer, 3 features and 30 epochs,
#: ``async_refit="fantasy-only"`` with a full refit every 2 landings, 4
#: initial designs of a 9-evaluation budget.  It was checkpointed right
#: after the first search ask (trial 4 pending), so the warm bank travels
#: as nested float lists.  ``recorded.json`` holds, from that build, the
#: SHA-256 of each bank array it restored from the file, and what its
#: store did next (see ``replay_v1_store``).
V1_STORE = Path(__file__).resolve().parent / "fixtures" / "v1_store"


def boot_server(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{_SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--root",
            str(root),
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = json.loads(process.stdout.readline())
    return process, (banner["host"], banner["port"])


class TestSigkillRecovery:
    def test_killed_server_resumes_every_study_bitwise(self, tmp_path):
        root = tmp_path / "store"
        seeds = {"alpha": 3, "beta": 5}
        in_flight = {}

        process, address = boot_server(root)
        try:
            for name, seed in seeds.items():
                client = StudyClient.create(
                    address,
                    name,
                    problem="toy_constrained_quadratic",
                    n_initial=3,
                    max_evaluations=9,
                    seed=seed,
                    surrogate=TINY,
                )
                asked = client.ask(2)  # both studies have in-flight trials
                if name == "alpha":  # one also has a committed landing
                    client.tell(asked[0], PROBLEM.evaluate(asked[0].x))
                    asked = asked[1:]
                in_flight[name] = asked
        finally:
            # SIGKILL: no shutdown hooks, no flush — durability must
            # already be on disk from the per-mutation checkpoints
            process.kill()
            process.wait(timeout=30)

        process, address = boot_server(root)
        try:
            for name, seed in seeds.items():
                client = StudyClient.connect(address, name)
                pending = client.pending_trials()
                assert [t.id for t in pending] == [
                    t.id for t in in_flight[name]
                ]
                for expected, got in zip(in_flight[name], pending):
                    np.testing.assert_array_equal(expected.u, got.u)
                for trial in pending:
                    client.tell(trial, PROBLEM.evaluate(trial.x))
                records = []
                while not client.done:
                    for trial in client.ask(1):
                        records.append(
                            client.tell(trial, PROBLEM.evaluate(trial.x))
                        )

                reference = Study(
                    toy_constrained_quadratic(2),
                    n_initial=3,
                    max_evaluations=9,
                    seed=seed,
                    surrogate=SurrogateConfig(**TINY),
                )
                asked = reference.ask(2)
                if name == "alpha":
                    reference.tell(asked[0], PROBLEM.evaluate(asked[0].x))
                    asked = asked[1:]
                for trial in asked:
                    reference.tell(trial, PROBLEM.evaluate(trial.x))
                while not reference.done:
                    for trial in reference.ask(1):
                        reference.tell(trial, PROBLEM.evaluate(trial.x))

                best = client.best()
                reference_best = reference.best()
                np.testing.assert_array_equal(best.x, reference_best.x)
                assert (
                    best.evaluation.objective
                    == reference_best.evaluation.objective
                )
                # the full post-restart tail, bitwise
                tail = reference.result.records[-len(records):]
                np.testing.assert_array_equal(
                    np.array([r.x for r in tail]),
                    np.array([r.x for r in records]),
                )
                np.testing.assert_array_equal(
                    np.array([r.evaluation.objective for r in tail]),
                    np.array([r.evaluation.objective for r in records]),
                )
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)


@pytest.mark.slow
class TestChargePumpAcceptance:
    def test_client_driven_charge_pump_bitwise_vs_in_process(self, tmp_path):
        problem = ChargePumpProblem()
        budget, n_initial, seed = 8, 4, 0

        with StudyServer(tmp_path / "store", port=0) as server:
            client = StudyClient.create(
                server.address,
                "cp",
                problem="charge_pump",
                n_initial=n_initial,
                max_evaluations=budget,
                seed=seed,
                surrogate=TINY,
            )
            remote = []
            while not client.done:
                for trial in client.ask(1):
                    remote.append(
                        client.tell(trial, problem.evaluate(trial.x))
                    )

        reference = Study(
            ChargePumpProblem(),
            n_initial=n_initial,
            max_evaluations=budget,
            seed=seed,
            surrogate=SurrogateConfig(**TINY),
        )
        while not reference.done:
            for trial in reference.ask(1):
                reference.tell(trial, problem.evaluate(trial.x))

        np.testing.assert_array_equal(
            reference.result.x_matrix,
            np.array([record.x for record in remote]),
        )
        np.testing.assert_array_equal(
            reference.result.objectives,
            np.array([record.evaluation.objective for record in remote]),
        )
        np.testing.assert_array_equal(
            reference.result.constraint_matrix,
            np.array([record.evaluation.constraints for record in remote]),
        )


def bank_digests(store, name) -> dict:
    """SHA-256 of each learned array of the study's live surrogate bank."""
    with store._entry(name) as entry:
        gp = entry.study.proposer.fitted.bank.gp
    arrays = {
        "network": gp.network.get_stacked_params(),
        "log_noise": gp.log_noise_variance,
        "log_prior": gp.log_prior_variance,
        "y_mean": gp._y_mean,
        "y_scale": gp._y_scale,
        "x_train": gp._x_train,
        "z_train": gp._z_train,
    }
    return {
        key: hashlib.sha256(np.ascontiguousarray(value, dtype="<f8").tobytes()).hexdigest()
        for key, value in arrays.items()
    }


def replay_v1_store(root):
    """Resume the fixture, replay what the v1 build did next, finish the budget.

    Ask one trial with trial 4 still pending, tell trial 4 and then that
    trial, ask one more; returns the store and those two asked trials.
    """
    shutil.copytree(V1_STORE, root)
    problem = build_problem("toy_constrained_quadratic")
    store = StudyStore(root)
    _, pending, _ = store.status("v1")
    ((first, _),) = store.ask("v1", 1)
    for trial in (*pending, first):
        store.tell("v1", trial.id, problem.evaluate_unit(trial.u))
    ((second, _),) = store.ask("v1", 1)
    store.tell("v1", second.id, problem.evaluate_unit(second.u))
    while not store.status("v1")[0]["done"]:
        ((trial, _),) = store.ask("v1", 1)
        store.tell("v1", trial.id, problem.evaluate_unit(trial.u))
    return store, (first, second)


class TestOldAndDamagedCheckpoints:
    def test_v1_store_restores_the_v1_bank_bitwise_and_finishes(self, tmp_path):
        recorded = json.loads((V1_STORE / "recorded.json").read_text())
        assert json.loads((V1_STORE / "v1.study.json").read_text())["format"] == "repro.study/v1"
        store = StudyStore(shutil.copytree(V1_STORE, tmp_path / "loaded"))
        _, pending, _ = store.status("v1")
        assert [t.id for t in pending] == recorded["pending"]
        assert bank_digests(store, "v1") == recorded["bank_sha256"]

        store, _ = replay_v1_store(tmp_path / "replayed")
        describe, pending, _ = store.status("v1")
        assert describe["n_evaluations"] == 9
        assert pending == []
        # every mutation re-checkpoints, now in the current format
        study_file = tmp_path / "replayed" / "v1.study.json"
        assert json.loads(study_file.read_text())["format"] == CHECKPOINT_FORMAT

    def test_v1_store_replays_the_recorded_asks_bitwise(self, tmp_path):
        # the recorded asks are floating-point results of the machine that
        # wrote the fixture; BLAS and SIMD kernels of other machines round
        # differently.  Rerun the study up to the fixture's checkpoint: when
        # its bank matches the fixture's bit for bit, this machine computes
        # what that one did, and the resumed asks must match too
        meta = json.loads((V1_STORE / "v1.meta.json").read_text())
        # the fixture's meta still carries the retired ``linalg_threads``
        # (null: the serial loop, now the only one), which create rejects
        surrogate = {k: v for k, v in meta["surrogate"].items() if k != "linalg_threads"}
        fresh = StudyStore(tmp_path / "fresh")
        fresh.create(
            "v1",
            meta["problem_spec"],
            n_initial=4,
            max_evaluations=9,
            seed=meta["seed"],
            surrogate=surrogate,
            acquisition=meta["acquisition"],
            scheduler=meta["scheduler"],
        )
        problem = build_problem("toy_constrained_quadratic")
        for trial, _ in fresh.ask("v1", 4):
            fresh.tell("v1", trial.id, problem.evaluate_unit(trial.u))
        fresh.ask("v1", 1)
        recorded = json.loads((V1_STORE / "recorded.json").read_text())
        if bank_digests(fresh, "v1") != recorded["bank_sha256"]:
            pytest.skip("this machine's float arithmetic differs from the fixture's")

        _, asked = replay_v1_store(tmp_path / "replayed")
        for trial, want in zip(asked, recorded["asks"]):
            assert trial.id == want["id"]
            assert trial.u.tobytes() == np.asarray(want["u"], dtype=float).tobytes()

    def test_damaged_checkpoint_is_a_checkpoint_mismatch_over_the_wire(self, tmp_path):
        root = tmp_path / "store"
        with StudyServer(root, port=0) as first:
            client = StudyClient.create(
                first.address,
                "s",
                problem="toy_constrained_quadratic",
                n_initial=3,
                max_evaluations=6,
                seed=2,
                surrogate=TINY,
                scheduler={"async_refit": "fantasy-only"},
            )
            for trial in client.ask(3):
                client.tell(trial, PROBLEM.evaluate(trial.x))
            client.ask(1)  # the checkpoint now carries the warm bank
        path = root / "s.study.json"
        intact = path.read_bytes()
        payload = json.loads(intact)
        network = payload["warm_surrogate"]["bank"]["network"]
        network["f8"] = network["f8"][:-8]  # still base64, too short for its shape
        short_blob = json.dumps(payload).encode()

        damaged = [(intact[:cut], "document") for cut in (0, len(intact) // 2, len(intact) - 1)]
        damaged.append((short_blob, "warm_surrogate.bank.network"))
        with StudyServer(root, port=0) as second:
            client = StudyClient(second.address, "s")
            for data, field in damaged:
                path.write_bytes(data)
                with pytest.raises(CheckpointMismatch) as err:
                    client.ask(1)
                assert err.value.code == "checkpoint-mismatch"
                assert err.value.field == field
                assert "s.study.json" in str(err.value)
            # a failed load leaves nothing behind: the repaired file serves
            path.write_bytes(intact)
            assert len(client.ask(1)) == 1

    def test_damaged_meta_is_a_checkpoint_mismatch_over_the_wire(self, tmp_path):
        """Regression: a damaged meta file surfaced as a 400 parse error,
        a 500 ``AttributeError`` or a 400 ``KeyError``."""
        root = tmp_path / "store"
        with StudyServer(root, port=0) as first:
            client = StudyClient.create(
                first.address,
                "s",
                problem="toy_constrained_quadratic",
                n_initial=3,
                max_evaluations=6,
                seed=2,
                surrogate=TINY,
            )
            for trial in client.ask(3):
                client.tell(trial, PROBLEM.evaluate(trial.x))
        path = root / "s.meta.json"
        intact = path.read_bytes()
        meta = json.loads(intact)
        no_spec = {k: v for k, v in meta.items() if k != "problem_spec"}
        damaged = [
            (intact[: len(intact) // 2], "document"),
            (b"[]", "document"),
            (json.dumps(dict(meta, format="other/v1")).encode(), "format"),
            (json.dumps(no_spec).encode(), "problem_spec"),
        ]
        with StudyServer(root, port=0) as second:
            client = StudyClient(second.address, "s")
            for data, field in damaged:
                path.write_bytes(data)
                with pytest.raises(CheckpointMismatch) as err:
                    client.ask(1)
                assert err.value.code == "checkpoint-mismatch"
                assert err.value.field == field
                assert "s.meta.json" in str(err.value)
            # a failed load leaves nothing behind: the repaired file serves
            path.write_bytes(intact)
            assert len(client.ask(1)) == 1
