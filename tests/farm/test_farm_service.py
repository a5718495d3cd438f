"""The service's farm integration: the ``evaluate`` verb and crash recovery.

Tell-by-reference semantics (the server runs its own registered
simulator), the refusal paths (no farm, external problem, unknown
trial), and the brutal pin: a SIGKILL'd farm-backed server restarted on
the same store directory resumes its studies bitwise — server-side
evaluations and client-side tells interleaved.
"""

import json
import os
import signal
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import SurrogateConfig
from repro.bo.study import Study, UnknownTrial
from repro.farm import EvaluationFarm
from repro.service import BadRequest, StudyClient, StudyServer

TINY = {"n_ensemble": 2, "hidden_dims": [10, 10], "n_features": 6, "epochs": 20}
PROBLEM = toy_constrained_quadratic(2)

_SRC = Path(__file__).resolve().parents[2] / "src"


def boot_server(root, farm_workers=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{_SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    argv = [
        sys.executable,
        "-m",
        "repro.service",
        "--root",
        str(root),
        "--port",
        "0",
    ]
    if farm_workers is not None:
        argv += ["--farm-workers", str(farm_workers)]
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=env
    )
    banner = json.loads(process.stdout.readline())
    return process, (banner["host"], banner["port"])


def stop_server(process, signum):
    process.send_signal(signum)
    process.wait(timeout=30)
    process.stdout.close()


def make_client(server, name, seed=3, budget=9):
    return StudyClient.create(
        server.address if isinstance(server, StudyServer) else server,
        name,
        problem="toy_constrained_quadratic",
        n_initial=3,
        max_evaluations=budget,
        seed=seed,
        surrogate=TINY,
    )


class TestEvaluateVerb:
    def test_server_side_evaluation_matches_local_simulator(self, tmp_path):
        with EvaluationFarm("async-thread", n_workers=2) as farm:
            with StudyServer(tmp_path / "store", farm=farm) as server:
                with closing(make_client(server, "farmed", seed=3)) as client:
                    trials = client.ask(2)
                    record = client.evaluate(trials[0])
                    reference = PROBLEM.evaluate(trials[0].x)
                    assert record.evaluation.objective == reference.objective
                    np.testing.assert_array_equal(
                        record.evaluation.constraints, reference.constraints
                    )
                    # mixing verbs is fine: tell the second one client-side
                    client.tell(trials[1], PROBLEM.evaluate(trials[1].x))
                    assert client.describe()["n_evaluations"] == 2

    def test_evaluate_by_trial_id(self, tmp_path):
        with EvaluationFarm("async-thread", n_workers=2) as farm:
            with StudyServer(tmp_path / "store", farm=farm) as server:
                with closing(make_client(server, "by-id", seed=5)) as client:
                    trial = client.ask(1)[0]
                    record = client.evaluate(trial.id)
                    assert record.index == 0

    def test_unknown_trial_rejected(self, tmp_path):
        with EvaluationFarm("async-thread", n_workers=2) as farm:
            with StudyServer(tmp_path / "store", farm=farm) as server:
                with closing(make_client(server, "unknown", seed=5)) as client:
                    with pytest.raises(UnknownTrial, match="no pending trial"):
                        client.evaluate(999)

    def test_external_problem_refused(self, tmp_path):
        with EvaluationFarm("async-thread", n_workers=2) as farm:
            with StudyServer(tmp_path / "store", farm=farm) as server:
                client = StudyClient.create(
                    server.address,
                    "external",
                    problem={
                        "name": "lab_bench",
                        "lower": [0.0, 0.0],
                        "upper": [1.0, 1.0],
                        "n_constraints": 1,
                    },
                    n_initial=2,
                    max_evaluations=4,
                    seed=0,
                )
                with closing(client):
                    trial = client.ask(1)[0]
                    with pytest.raises(BadRequest, match="externally-evaluated"):
                        client.evaluate(trial)

    def test_farmless_server_refuses(self, tmp_path):
        with StudyServer(tmp_path / "store") as server:
            with closing(make_client(server, "nofarm", seed=1)) as client:
                trial = client.ask(1)[0]
                with pytest.raises(BadRequest, match="disabled"):
                    client.evaluate(trial)

    def test_farm_with_prebuilt_store_rejected(self, tmp_path):
        from repro.service import StudyStore

        store = StudyStore(tmp_path / "store")
        with EvaluationFarm("async-thread", n_workers=1) as farm:
            with pytest.raises(ValueError, match="prebuilt"):
                StudyServer(store=store, farm=farm)

    def test_delete_unregisters_farm_tenant(self, tmp_path):
        with EvaluationFarm("async-thread", n_workers=2) as farm:
            with StudyServer(tmp_path / "store", farm=farm) as server:
                with closing(make_client(server, "deleted", seed=2)) as client:
                    client.evaluate(client.ask(1)[0])
                    assert [t.name for t in farm.tenants()] == ["deleted"]
                    client.delete()
                    assert farm.tenants() == []


class TestSigkillFarmRecovery:
    def test_killed_farm_server_resumes_bitwise(self, tmp_path):
        """SIGKILL mid-flight; the restarted farm server continues bitwise.

        The study mixes server-side ``evaluate`` landings with a pending
        client-side trial at kill time; after restart the remainder runs
        entirely through the farm and must match an in-process reference
        study evaluated with the same simulator.
        """
        root = tmp_path / "store"
        seed, budget = 3, 9

        process, address = boot_server(root, farm_workers=2)
        try:
            client = StudyClient.create(
                address,
                "farmed",
                problem="toy_constrained_quadratic",
                n_initial=3,
                max_evaluations=budget,
                seed=seed,
                surrogate=TINY,
            )
            with closing(client):
                asked = client.ask(2)
                client.evaluate(asked[0])  # lands server-side via the farm
                in_flight = asked[1:]
        finally:
            stop_server(process, signal.SIGKILL)

        process, address = boot_server(root, farm_workers=2)
        try:
            with closing(StudyClient.connect(address, "farmed")) as client:
                pending = client.pending_trials()
                assert [t.id for t in pending] == [t.id for t in in_flight]
                np.testing.assert_array_equal(pending[0].u, in_flight[0].u)
                records = [client.evaluate(t) for t in pending]
                while not client.done:
                    for trial in client.ask(1):
                        records.append(client.evaluate(trial))
                best = client.best()

            reference = Study(
                toy_constrained_quadratic(2),
                n_initial=3,
                max_evaluations=budget,
                seed=seed,
                surrogate=SurrogateConfig(**TINY),
            )
            asked = reference.ask(2)
            reference.tell(asked[0], PROBLEM.evaluate(asked[0].x))
            reference.tell(asked[1], PROBLEM.evaluate(asked[1].x))
            while not reference.done:
                for trial in reference.ask(1):
                    reference.tell(trial, PROBLEM.evaluate(trial.x))

            reference_best = reference.best()
            np.testing.assert_array_equal(best.x, reference_best.x)
            assert (
                best.evaluation.objective
                == reference_best.evaluation.objective
            )
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
            stop_server(process, signal.SIGTERM)
