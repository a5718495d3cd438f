"""StudyStore unit tests: durability, residency, leases, concurrency.

The contracts pinned here are the service's reason to exist:

* every mutation is durably checkpointed, so a store rebuilt from the
  same directory (= a SIGKILL'd server) continues every study bitwise,
  in-flight trials included;
* LRU eviction under ``max_resident`` is invisible to results — a study
  thrashed in and out of memory produces the bitwise trace of one that
  never left;
* expired leases auto-retract so an abandoned trial cannot wedge a
  study short of its full budget.
"""

import json
import threading

import numpy as np
import pytest

from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import SurrogateConfig
from repro.bo.study import Study
from repro.service.errors import BadRequest, StudyExists, UnknownStudy
from repro.service.store import StudyStore

TINY = {"n_ensemble": 2, "hidden_dims": [10, 10], "n_features": 6, "epochs": 20}
PROBLEM = toy_constrained_quadratic(2)


def make_store(tmp_path, **kwargs):
    return StudyStore(tmp_path / "store", **kwargs)


def create_toy(store, name, *, seed, budget=9, n_initial=3):
    return store.create(
        name,
        "toy_constrained_quadratic",
        n_initial=n_initial,
        max_evaluations=budget,
        seed=seed,
        surrogate=TINY,
    )


def drive_store(store, name):
    """ask/tell the named study to completion, evaluating locally."""
    while not store.status(name)[0]["done"]:
        for trial, _lease in store.ask(name, 1):
            store.tell(name, trial.id, PROBLEM.evaluate(trial.x))


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


def store_result(store, name):
    with store._entry(name) as entry:
        return entry.study.result


class TestLifecycle:
    def test_create_returns_describe_and_persists_files(self, tmp_path):
        store = make_store(tmp_path)
        describe = create_toy(store, "s", seed=0)
        assert describe["problem"] == "toy_quadratic_2d"
        assert describe["n_evaluations"] == 0
        assert (store.root / "s.study.json").exists()
        assert (store.root / "s.meta.json").exists()

    def test_duplicate_name_raises_study_exists(self, tmp_path):
        store = make_store(tmp_path)
        create_toy(store, "s", seed=0)
        with pytest.raises(StudyExists, match="'s'"):
            create_toy(store, "s", seed=1)

    def test_failed_create_leaves_no_trace(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(BadRequest):
            store.create("bad", "toy_constrained_quadratic", surrogate={"zzz": 1})
        assert store.study_names() == []
        assert not (store.root / "bad.meta.json").exists()
        create_toy(store, "bad", seed=0)  # the name is reusable

    @pytest.mark.parametrize("name", ["", "a/b", "../up", ".hidden", "a" * 130])
    def test_unsafe_names_rejected(self, tmp_path, name):
        store = make_store(tmp_path)
        with pytest.raises(BadRequest, match="name"):
            store.create(name, "toy_constrained_quadratic")

    def test_delete_removes_entry_and_files(self, tmp_path):
        store = make_store(tmp_path)
        create_toy(store, "s", seed=0)
        assert store.delete("s") == "s"
        assert store.study_names() == []
        assert not (store.root / "s.study.json").exists()
        with pytest.raises(UnknownStudy):
            store.status("s")
        with pytest.raises(UnknownStudy):
            store.delete("s")

    def test_unknown_study_everywhere(self, tmp_path):
        store = make_store(tmp_path)
        for call in (
            lambda: store.ask("ghost"),
            lambda: store.tell("ghost", 0, 1.0),
            lambda: store.retract("ghost", 0),
            lambda: store.best("ghost"),
            lambda: store.status("ghost"),
        ):
            with pytest.raises(UnknownStudy, match="ghost"):
                call()


class TestDurability:
    def test_restart_discovers_and_resumes_bitwise(self, tmp_path):
        store = make_store(tmp_path)
        create_toy(store, "s", seed=7)
        # interrupt mid-flight: 2 asked, 1 told
        (t0, _), (t1, _) = store.ask("s", 2)
        store.tell("s", t0.id, PROBLEM.evaluate(t0.x))
        del store  # nothing flushed here — every mutation already was

        reborn = StudyStore(tmp_path / "store")
        assert reborn.study_names() == ["s"]
        _, pending, _ = reborn.status("s")
        assert [t.id for t in pending] == [t1.id]
        reborn.tell("s", t1.id, PROBLEM.evaluate(t1.x))
        drive_store(reborn, "s")

        reference = Study(
            toy_constrained_quadratic(2),
            n_initial=3,
            max_evaluations=9,
            seed=7,
            surrogate=SurrogateConfig(**TINY),
        )
        ts = reference.ask(2)
        reference.tell(ts[0], PROBLEM.evaluate(ts[0].x))
        reference.tell(ts[1], PROBLEM.evaluate(ts[1].x))
        while not reference.done:
            for trial in reference.ask(1):
                reference.tell(trial, PROBLEM.evaluate(trial.x))
        got = store_result(reborn, "s")
        np.testing.assert_array_equal(reference.result.x_matrix, got.x_matrix)
        np.testing.assert_array_equal(reference.result.objectives, got.objectives)

    def test_checkpoint_files_are_valid_json_after_every_mutation(self, tmp_path):
        store = make_store(tmp_path)
        create_toy(store, "s", seed=0)
        path = store.root / "s.study.json"
        for trial, _ in store.ask("s", 1):
            json.loads(path.read_text())  # ask checkpointed
            store.tell("s", trial.id, PROBLEM.evaluate(trial.x))
            payload = json.loads(path.read_text())  # tell checkpointed
        assert payload["result"]["records"], "tell must be on disk"
        assert not list(store.root.glob("*.tmp")), "atomic replace leaves no tmp"


    def test_meta_with_retired_engine_key_still_loads(self, tmp_path):
        check_retired_key_loads(tmp_path, "engine", "auto")

    def test_meta_with_retired_linalg_threads_key_still_loads(self, tmp_path):
        check_retired_key_loads(tmp_path, "linalg_threads", 2)


def check_retired_key_loads(tmp_path, key, value):
    """Meta files persist the resolved SurrogateConfig; those written
    while it had an ``engine`` or ``linalg_threads`` field carry it.
    The load path drops the retired key; ``create`` still rejects it."""
    store = make_store(tmp_path)
    create_toy(store, "old", seed=3)
    meta_path = store.root / "old.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["surrogate"][key] = value
    meta_path.write_text(json.dumps(meta, indent=1))

    reborn = StudyStore(tmp_path / "store")
    drive_store(reborn, "old")  # initial design, then search asks
    assert reborn.status("old")[0]["n_evaluations"] == 9
    with pytest.raises(BadRequest, match=key):
        reborn.create(
            "new",
            "toy_constrained_quadratic",
            surrogate={**TINY, key: value},
        )


class TestResidency:
    def test_eviction_and_reload_is_bitwise_invisible(self, tmp_path):
        # max_resident=1 with two interleaved studies = every touch is an
        # evict + resume-from-disk; the traces must not notice
        store = make_store(tmp_path, max_resident=1)
        create_toy(store, "a", seed=7)
        create_toy(store, "b", seed=11)
        done = {"a": False, "b": False}
        while not all(done.values()):
            for name in ("a", "b"):
                if done[name]:
                    continue
                if store.status(name)[0]["done"]:
                    done[name] = True
                    continue
                for trial, _ in store.ask(name, 1):
                    store.tell(name, trial.id, PROBLEM.evaluate(trial.x))
        assert store.n_resident == 1
        assert store.n_studies == 2
        for name, seed in (("a", 7), ("b", 11)):
            reference = reference_study(seed)
            got = store_result(store, name)
            np.testing.assert_array_equal(
                reference.result.x_matrix, got.x_matrix
            )
            np.testing.assert_array_equal(
                reference.result.objectives, got.objectives
            )

    def test_max_resident_validated(self, tmp_path):
        with pytest.raises(ValueError, match="max_resident"):
            make_store(tmp_path, max_resident=0)


class TestLeases:
    def test_expired_lease_auto_retracts_and_budget_completes(self, tmp_path):
        clock = [0.0]
        store = make_store(
            tmp_path, default_lease_s=10.0, clock=lambda: clock[0]
        )
        create_toy(store, "s", seed=3, budget=6)
        pairs = store.ask("s", 2)
        assert [lease for _, lease in pairs] == [10.0, 10.0]
        assert store.reap_expired() == []  # not expired yet
        clock[0] = 10.5
        reaped = store.reap_expired()
        assert sorted(reaped) == [("s", pairs[0][0].id), ("s", pairs[1][0].id)]
        describe, pending, leases = store.status("s")
        assert describe["n_pending"] == 0
        assert leases == {}
        # the freed slots are usable: the study still reaches full budget
        drive_store(store, "s")
        assert store.status("s")[0]["n_evaluations"] == 6

    def test_per_request_lease_overrides_default(self, tmp_path):
        clock = [0.0]
        store = make_store(
            tmp_path, default_lease_s=1000.0, clock=lambda: clock[0]
        )
        create_toy(store, "s", seed=3)
        ((trial, lease),) = store.ask("s", 1, lease_s=5.0)
        assert lease == 5.0
        clock[0] = 6.0
        assert store.reap_expired() == [("s", trial.id)]

    def test_tell_clears_lease_before_expiry_wins(self, tmp_path):
        clock = [0.0]
        store = make_store(
            tmp_path, default_lease_s=10.0, clock=lambda: clock[0]
        )
        create_toy(store, "s", seed=3)
        ((trial, _),) = store.ask("s", 1)
        store.tell("s", trial.id, PROBLEM.evaluate(trial.x))
        clock[0] = 100.0
        assert store.reap_expired() == []

    def test_no_default_lease_means_no_expiry(self, tmp_path):
        clock = [0.0]
        store = make_store(tmp_path, clock=lambda: clock[0])
        create_toy(store, "s", seed=3)
        ((trial, lease),) = store.ask("s", 1)
        assert lease is None
        clock[0] = 1e9
        assert store.reap_expired() == []
        _, pending, _ = store.status("s")
        assert [t.id for t in pending] == [trial.id]

    def test_orphaned_pending_trials_get_leases_on_reload(self, tmp_path):
        # a client asked, then client AND server died: on reload the
        # pending trial must pick up a fresh default lease so the reaper
        # eventually frees its slot
        store = make_store(tmp_path, default_lease_s=50.0)
        create_toy(store, "s", seed=3)
        ((trial, _),) = store.ask("s", 1)
        del store

        clock = [0.0]
        reborn = StudyStore(
            tmp_path / "store", default_lease_s=50.0, clock=lambda: clock[0]
        )
        _, _, leases = reborn.status("s")
        assert leases == {trial.id: 50.0}
        clock[0] = 51.0
        assert reborn.reap_expired() == [("s", trial.id)]


class TestConcurrency:
    def test_parallel_tells_one_study_commit_in_tell_order(self, tmp_path):
        store = make_store(tmp_path)
        create_toy(store, "s", seed=0, budget=8, n_initial=8)
        trials = [trial for trial, _ in store.ask("s", 8)]
        tell_order: list[int] = []
        tell_lock = threading.Lock()
        errors: list[Exception] = []

        def worker(trial):
            try:
                evaluation = PROBLEM.evaluate(trial.x)
                with tell_lock:
                    tell_order.append(trial.id)
                    store.tell("s", trial.id, evaluation)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(trial,)) for trial in trials
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        describe, _, _ = store.status("s")
        assert describe["n_evaluations"] == 8
        # commit order is tell order, not ask order
        got = store_result(store, "s")
        # trial.x and record.x come from the same inverse transform of the
        # same u, so they match bitwise and key the id mapping exactly
        id_by_x = {tuple(trial.x): trial.id for trial in trials}
        committed = [id_by_x[tuple(record.x)] for record in got.records]
        assert committed == tell_order
