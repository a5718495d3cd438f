"""Server + client integration tests over a real loopback HTTP socket.

The headline contract: a driver loop written against
:class:`~repro.bo.study.Study` runs unchanged against a
:class:`~repro.service.StudyClient` and produces the bitwise-identical
trace — same proposals, same objectives, same error types.
"""

import gc
import json
import socket
import statistics
import threading
import time
import warnings

import numpy as np
import pytest

from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import SurrogateConfig
from repro.bo.study import BudgetExhausted, Study, StudyError, UnknownTrial
from repro.service import (
    ProtocolMismatch,
    ServiceError,
    StudyClient,
    StudyExists,
    StudyServer,
    UnknownProblem,
    UnknownStudy,
    delete_study,
    health,
    list_studies,
)
from repro.service.client import ServiceConnection
from repro.service.protocol import PROTOCOL_VERSION, URL_PREFIX
from repro.service.store import StudyStore

TINY = {"n_ensemble": 2, "hidden_dims": [10, 10], "n_features": 6, "epochs": 20}
PROBLEM = toy_constrained_quadratic(2)


@pytest.fixture
def server(tmp_path):
    with StudyServer(tmp_path / "store", port=0) as running:
        yield running


def create_toy(address, name, *, seed, budget=9, n_initial=3):
    return StudyClient.create(
        address,
        name,
        problem="toy_constrained_quadratic",
        n_initial=n_initial,
        max_evaluations=budget,
        seed=seed,
        surrogate=TINY,
    )


def drive_client(client):
    while not client.done:
        for trial in client.ask(1):
            client.tell(trial, PROBLEM.evaluate(trial.x))


def reference_study(seed, budget=9, n_initial=3) -> Study:
    study = Study(
        toy_constrained_quadratic(2),
        n_initial=n_initial,
        max_evaluations=budget,
        seed=seed,
        surrogate=SurrogateConfig(**TINY),
    )
    while not study.done:
        for trial in study.ask(1):
            study.tell(trial, PROBLEM.evaluate(trial.x))
    return study


class TestClientMirrorsStudy:
    def test_client_loop_is_bitwise_identical_to_in_process(self, server):
        client = create_toy(server.address, "toy", seed=7)
        records = []
        while not client.done:
            for trial in client.ask(1):
                records.append(client.tell(trial, PROBLEM.evaluate(trial.x)))
        reference = reference_study(7)
        np.testing.assert_array_equal(
            reference.result.x_matrix,
            np.array([record.x for record in records]),
        )
        np.testing.assert_array_equal(
            reference.result.objectives,
            np.array([record.evaluation.objective for record in records]),
        )
        # best() crosses the wire as the same record, bitwise
        best = client.best()
        reference_best = reference.best()
        np.testing.assert_array_equal(best.x, reference_best.x)
        assert best.evaluation.objective == reference_best.evaluation.objective
        assert best.index == reference_best.index

    def test_trials_carry_full_provenance(self, server):
        client = create_toy(server.address, "toy", seed=0, n_initial=2, budget=6)
        for trial in client.ask(2):
            assert trial.phase == "initial"
            client.tell(trial, PROBLEM.evaluate(trial.x))
        (search_trial,) = client.ask(1)
        assert search_trial.phase == "search"
        assert search_trial.proposal_id is not None
        client.retract(search_trial)
        describe = client.describe()
        assert describe["retracted_ids"] == [search_trial.id]

    def test_tell_accepts_study_shapes(self, server):
        client = create_toy(server.address, "toy", seed=1)
        evaluation = PROBLEM.evaluate(client.ask(1)[0].x)
        # full Evaluation (metrics preserved on the committed record)
        (t0,) = client.pending_trials()
        record = client.tell(t0, evaluation)
        assert record.evaluation.objective == evaluation.objective
        # (objective, constraints) tuple and bare trial id
        (t1,) = client.ask(1)
        record = client.tell(
            t1.id, (evaluation.objective, list(evaluation.constraints))
        )
        np.testing.assert_array_equal(
            record.evaluation.constraints, evaluation.constraints
        )

    def test_status_and_pending_trials_roundtrip(self, server):
        client = create_toy(server.address, "toy", seed=2)
        asked = client.ask(2)
        status = client.status()
        assert status["protocol_version"] == PROTOCOL_VERSION
        json.dumps(status)  # whole body JSON-safe by construction
        pending = client.pending_trials()
        assert [t.id for t in pending] == [t.id for t in asked]
        np.testing.assert_array_equal(pending[0].u, asked[0].u)

    def test_checkpoint_endpoint_reports_counters(self, server):
        client = create_toy(server.address, "toy", seed=2)
        client.ask(1)
        body = client.checkpoint()
        assert body["study"] == "toy"
        assert body["n_evaluations"] == 0
        assert body["n_pending"] == 1


class TestErrorsOverTheWire:
    def test_study_taxonomy_reraises_same_types(self, server):
        client = create_toy(server.address, "toy", seed=0, budget=4, n_initial=2)
        with pytest.raises(UnknownTrial, match="999") as err:
            client.tell(999, 1.0)
        assert err.value.code == "unknown-trial"
        (trial,) = client.ask(1)
        client.tell(trial, PROBLEM.evaluate(trial.x))
        with pytest.raises(StudyError, match="already told"):
            client.tell(trial, 1.0)
        drive_client(client)
        with pytest.raises(BudgetExhausted):
            client.ask(1)
        # the taxonomy is a hierarchy remotely too
        with pytest.raises(StudyError):
            client.ask(1)

    def test_service_errors_reraise_same_types(self, server):
        address = server.address
        with pytest.raises(UnknownStudy, match="ghost"):
            StudyClient.connect(address, "ghost")
        create_toy(address, "toy", seed=0)
        with pytest.raises(StudyExists):
            create_toy(address, "toy", seed=1)
        with pytest.raises(UnknownProblem, match="not_a_problem"):
            StudyClient.create(address, "x", problem="not_a_problem")

    def test_refused_constructors_close_their_connection(self, server):
        """Regression: a refused ``create``/``connect`` left its client's
        socket open, and the caller never got the client to close it."""
        address = server.address
        create_toy(address, "toy", seed=0).close()

        def refused():
            with pytest.raises(StudyExists):
                create_toy(address, "toy", seed=1)
            with pytest.raises(UnknownStudy):
                StudyClient.connect(address, "ghost")

        # clients that earlier tests dropped unclosed sit in reference
        # cycles; collect them first so only this test's sockets are judged
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            refused()
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_protocol_mismatch_rejected(self, server):
        conn = ServiceConnection(server.address)
        try:
            with pytest.raises(ProtocolMismatch) as err:
                conn.request("POST", "/v1/studies", {"protocol_version": 99})
            assert err.value.detail == {
                "client": 99,
                "server": PROTOCOL_VERSION,
            }
        finally:
            conn.close()

    def test_unknown_endpoint_and_wrong_method(self, server):
        conn = ServiceConnection(server.address)
        try:
            with pytest.raises(ServiceError, match="endpoint"):
                conn.request("GET", "/v1/nope")
            with pytest.raises(ServiceError, match="expects POST"):
                conn.request("GET", "/v1/studies/x/ask")
        finally:
            conn.close()

    def test_malformed_json_body_is_bad_request(self, server):
        import http.client

        conn = http.client.HTTPConnection(*server.address, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/studies",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "bad-request"
            assert body["protocol_version"] == PROTOCOL_VERSION
        finally:
            conn.close()


class TestServerLifecycle:
    def test_health_and_listing(self, server):
        address = server.address
        body = health(address)
        assert body["status"] == "ok"
        assert body["n_studies"] == 0
        create_toy(address, "a", seed=0)
        create_toy(address, "b", seed=1)
        assert list_studies(address) == ["a", "b"]
        assert health(address)["n_studies"] == 2
        assert delete_study(address, "a") == "a"
        assert list_studies(address) == ["b"]

    def test_restart_on_same_store_resumes_three_studies_bitwise(self, tmp_path):
        root = tmp_path / "store"
        seeds = {"a": 3, "b": 5, "c": 9}
        in_flight = {}
        with StudyServer(root, port=0) as first:
            for name, seed in seeds.items():
                client = create_toy(first.address, name, seed=seed)
                # every study gets in-flight trials; "a" also a landing
                asked = client.ask(2)
                if name == "a":
                    client.tell(asked[0], PROBLEM.evaluate(asked[0].x))
                    asked = asked[1:]
                in_flight[name] = asked
        # `with` exit stopped the server; its store dies with it

        with StudyServer(root, port=0) as second:
            for name, seed in seeds.items():
                client = StudyClient.connect(second.address, name)
                pending = client.pending_trials()
                assert [t.id for t in pending] == [t.id for t in in_flight[name]]
                for trial in pending:
                    client.tell(trial, PROBLEM.evaluate(trial.x))
                drive_client(client)

                reference = Study(
                    toy_constrained_quadratic(2),
                    n_initial=3,
                    max_evaluations=9,
                    seed=seed,
                    surrogate=SurrogateConfig(**TINY),
                )
                asked = reference.ask(2)
                if name == "a":
                    reference.tell(asked[0], PROBLEM.evaluate(asked[0].x))
                    asked = asked[1:]
                for trial in asked:
                    reference.tell(trial, PROBLEM.evaluate(trial.x))
                while not reference.done:
                    for trial in reference.ask(1):
                        reference.tell(trial, PROBLEM.evaluate(trial.x))

                with second.store._entry(name) as entry:
                    got = entry.study.result
                np.testing.assert_array_equal(
                    reference.result.x_matrix, got.x_matrix
                )
                np.testing.assert_array_equal(
                    reference.result.objectives, got.objectives
                )

    def test_lease_expiry_through_reaper_thread(self, tmp_path):
        # short lease + fast reaper: the trial is auto-retracted without
        # any client call, and the study still reaches full budget
        with StudyServer(
            tmp_path / "store",
            port=0,
            default_lease_s=0.2,
            reap_interval_s=0.05,
        ) as running:
            client = create_toy(running.address, "s", seed=3, budget=6)
            (abandoned,) = client.ask(1, lease_s=0.1)
            pause = threading.Event()
            for _ in range(100):
                if not client.status()["pending_trials"]:
                    break
                pause.wait(0.05)
            assert client.status()["pending_trials"] == []
            drive_client(client)
            assert client.describe()["n_evaluations"] == 6
            # the reaped id is settled (an initial-phase trial re-queues
            # under the same id and was since told; either way, telling
            # it now is a protocol violation, not a commit)
            with pytest.raises(StudyError):
                client.tell(abandoned, 1.0)


class _SlowReplyStore(StudyStore):
    """Serves every ask, then holds its reply for ``delay_s`` seconds."""

    def __init__(self, root, delay_s):
        super().__init__(root)
        self.delay_s = delay_s
        self.n_asks = 0

    def ask(self, name, n=1, lease_s=None):
        self.n_asks += 1
        pairs = super().ask(name, n=n, lease_s=lease_s)
        time.sleep(self.delay_s)
        return pairs


class TestWire:
    def test_replies_do_not_wait_for_delayed_acks(self, server):
        assert server._httpd.RequestHandlerClass.disable_nagle_algorithm is True
        client = create_toy(server.address, "s", seed=0)
        client.describe()  # open the keep-alive connection
        latencies = []
        for _ in range(20):
            start = time.perf_counter()
            client.describe()
            latencies.append(time.perf_counter() - start)
        # a reply's header and body writes used to stall ~40 ms on Nagle
        assert statistics.median(latencies) < 0.010

    def test_timed_out_ask_is_not_replayed(self, tmp_path):
        store = _SlowReplyStore(tmp_path / "store", delay_s=0.6)
        with StudyServer(store=store, port=0) as running:
            create_toy(running.address, "s", seed=0)
            impatient = StudyClient(running.address, "s", timeout=0.3)
            with pytest.raises(TimeoutError):
                impatient.ask(1)
            # the server committed the one ask it got; a replay would
            # have left a second trial that nobody holds
            assert store.n_asks == 1
            assert len(StudyClient(running.address, "s").pending_trials()) == 1

    def test_stale_keep_alive_is_retried_on_a_fresh_connection(self, server):
        conn = ServiceConnection(server.address)
        conn.request("GET", f"{URL_PREFIX}/health")
        stale = conn._local.conn
        stale.sock.shutdown(socket.SHUT_RDWR)  # as if the server had closed it
        assert conn.request("GET", f"{URL_PREFIX}/health")["status"] == "ok"
        assert conn._local.conn is not stale
        conn.close()

    @pytest.mark.parametrize("quiet", [True, False])
    def test_handler_error_report_obeys_quiet(self, tmp_path, capsys, quiet):
        server = StudyServer(tmp_path / "store", port=0, quiet=quiet)
        try:
            try:
                raise BrokenPipeError("client hung up before the reply")
            except BrokenPipeError:
                server._httpd.handle_error(None, ("127.0.0.1", 1))
        finally:
            server.stop()
        assert ("BrokenPipeError" in capsys.readouterr().err) is not quiet


class TestHammer:
    def test_eight_threads_one_study_no_duplicates_commit_equals_tell_order(
        self, tmp_path
    ):
        # 8 client threads hammer one study: every id handed out exactly
        # once, commits land in tell order, full budget reached
        budget = 16
        with StudyServer(tmp_path / "store", port=0) as running:
            client = StudyClient.create(
                running.address,
                "hammer",
                problem="toy_constrained_quadratic",
                n_initial=8,
                max_evaluations=budget,
                seed=0,
                surrogate=TINY,
            )
            seen_ids: list[int] = []
            tell_order: list[int] = []
            x_by_id: dict[int, tuple] = {}
            lock = threading.Lock()
            errors: list[Exception] = []

            def worker():
                while True:
                    try:
                        trials = client.ask(1)
                    except BudgetExhausted:
                        return
                    except StudyError:
                        # initial-design race: another thread's initial
                        # trial is still in flight — retry until it lands
                        threading.Event().wait(0.01)
                        continue
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return
                    for trial in trials:
                        evaluation = PROBLEM.evaluate(trial.x)
                        with lock:
                            seen_ids.append(trial.id)
                            x_by_id[trial.id] = tuple(trial.x)
                            # serialize tell + order bookkeeping so the
                            # recorded order IS the wire order
                            try:
                                tell_order.append(trial.id)
                                client.tell(trial, evaluation)
                            except Exception as exc:  # pragma: no cover
                                errors.append(exc)
                                return

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert len(seen_ids) == len(set(seen_ids)), "duplicate trial ids"
            describe = client.describe()
            assert describe["n_evaluations"] == budget
            assert describe["n_pending"] == 0
            with running.store._entry("hammer") as entry:
                records = entry.study.result.records
            committed = [
                next(
                    tid
                    for tid, x in x_by_id.items()
                    if x == tuple(record.x)
                )
                for record in records
            ]
            assert committed == tell_order[: len(committed)]
