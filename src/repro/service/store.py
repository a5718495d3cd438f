"""Durable multi-study store behind the BO service.

:class:`StudyStore` owns every named :class:`~repro.bo.study.Study` the
service hosts.  Three properties do the heavy lifting:

* **Durability** — every state mutation (``create``/``ask``/``tell``/
  ``retract``/reap) is followed by an atomic checkpoint (tmp file +
  ``os.replace``), so a SIGKILL'd server restarted on the same store
  directory resumes every study bitwise, including studies with trials
  in flight.  Each study persists as two files: ``{name}.study.json``
  (the :meth:`Study.checkpoint` payload) and ``{name}.meta.json`` (the
  problem spec, config payloads and seed needed to rebuild the
  non-JSON-able constructor arguments).
* **Concurrency** — a global table lock guards only the name->entry map;
  each study has its own lock, so requests against different studies
  run fully in parallel while requests against one study serialize
  (commit order == tell order).
* **Bounded residency** — studies load lazily and at most
  ``max_resident`` live in memory; admission past the cap evicts the
  least-recently-used idle study (safe: its checkpoint is already
  durable).  If every resident study is mid-request the store raises
  :class:`~repro.service.errors.ServiceBusy` rather than block.

Leases make abandonment safe: each asked trial carries a deadline (from
an injectable monotonic clock), and :meth:`reap_expired` — driven by the
server's reaper thread — auto-``retract()``s trials whose lease lapsed,
freeing their budget slot so a crashed client cannot wedge a study short
of its full budget.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from pathlib import Path

from repro.bo.config import (
    AcquisitionConfig,
    SchedulerConfig,
    SurrogateConfig,
    config_to_dict,
)
from repro.bo.study import CheckpointMismatch, Study, StudyError, UnknownTrial
from repro.farm.errors import FarmSaturated, UnknownTenant
from repro.service.errors import (
    BadRequest,
    ServiceBusy,
    StudyExists,
    UnknownStudy,
)
from repro.service.problems import ExternalProblem, build_problem

#: study names double as file stems, so keep them filesystem-portable
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,119}$")

#: marker identifying a store meta file (see ``{name}.meta.json``)
META_FORMAT = "repro.service.meta/v1"

#: SurrogateConfig fields that no longer exist; meta files written while
#: they did still carry them, so loading drops them (``create`` rejects them)
_RETIRED_SURROGATE_KEYS = ("engine", "linalg_threads")


class _Entry:
    """Book-keeping for one named study (resident or not)."""

    __slots__ = ("name", "lock", "study", "meta", "leases", "last_used", "deleted")

    def __init__(self, name: str):
        self.name = name
        self.lock = threading.Lock()
        self.study: Study | None = None
        self.meta: dict | None = None
        #: trial id -> absolute lease deadline on the store clock
        self.leases: dict[int, float] = {}
        self.last_used = 0
        self.deleted = False


class StudyStore:
    """Owns the studies of a BO service; see the module docstring.

    Parameters
    ----------
    root:
        Directory holding the per-study files (created if missing).
        Existing studies in it are discovered and served immediately.
    max_resident:
        Residency cap — at most this many studies live in memory at
        once; ``None`` means unbounded.
    default_lease_s:
        Lease granted to asked trials when the ``ask`` request names
        none, and re-granted to orphaned pending trials when a study is
        loaded after a crash.  ``None`` disables leases by default:
        pending trials then wait indefinitely for their ``tell`` (or an
        explicit ``retract``).
    clock:
        Monotonic time source for lease deadlines (injectable so tests
        can expire leases without sleeping).
    farm:
        Optional :class:`~repro.farm.farm.EvaluationFarm` enabling the
        ``evaluate`` verb (tell-by-reference): clients of registered
        problems may ask the server to run its own simulator on a
        pending trial instead of shipping numbers back.  The store
        registers one farm tenant per study lazily and never closes the
        farm — ownership stays with the caller.  ``None`` (the default)
        keeps the original contract: the server never evaluates.
    """

    def __init__(
        self,
        root,
        *,
        max_resident: int | None = 16,
        default_lease_s: float | None = None,
        clock=time.monotonic,
        farm=None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_resident is not None and max_resident < 1:
            raise ValueError(
                f"max_resident must be a positive count or None, got "
                f"{max_resident}"
            )
        self.max_resident = max_resident
        self.default_lease_s = default_lease_s
        self._clock = clock
        self.farm = farm
        self._table_lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}
        self._use_counter = itertools.count(1)
        for meta_path in sorted(self.root.glob("*.meta.json")):
            name = meta_path.name[: -len(".meta.json")]
            self._entries[name] = _Entry(name)

    # -- introspection --------------------------------------------------------------

    def study_names(self) -> list[str]:
        with self._table_lock:
            return sorted(self._entries)

    @property
    def n_studies(self) -> int:
        with self._table_lock:
            return len(self._entries)

    @property
    def n_resident(self) -> int:
        with self._table_lock:
            return sum(1 for e in self._entries.values() if e.study is not None)

    # -- lifecycle ------------------------------------------------------------------

    def create(
        self,
        name: str,
        problem_spec,
        *,
        n_initial: int = 30,
        max_evaluations: int = 100,
        initial_design: str = "lhs",
        seed: int | None = None,
        surrogate: dict | None = None,
        acquisition: dict | None = None,
        scheduler: dict | None = None,
    ) -> dict:
        """Register, build and durably checkpoint a new named study.

        Returns the new study's :meth:`Study.describe` snapshot.  The
        study always runs the paper's NNBO algorithm; the optional config
        dicts are keyword overrides for the typed configs
        (:class:`~repro.bo.config.SurrogateConfig` etc.).
        """
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise BadRequest(
                f"invalid study name {name!r}: names are 1-120 chars of "
                "letters, digits, '.', '_' or '-', starting with a letter "
                "or digit (they double as checkpoint file stems)"
            )
        meta = {
            "format": META_FORMAT,
            "name": name,
            "problem_spec": problem_spec,
            "seed": seed,
            "surrogate": None,
            "acquisition": None,
            "scheduler": None,
        }
        # validate the spec and configs *before* reserving the name
        problem = build_problem(problem_spec)
        configs = _build_configs(
            surrogate=surrogate, acquisition=acquisition, scheduler=scheduler
        )
        # persist the *resolved* config payloads, not the raw overrides:
        # a later library version with different defaults must still
        # rebuild this study with the configs it was created with
        for key, config in configs.items():
            meta[key] = config_to_dict(config)

        entry = _Entry(name)
        with self._table_lock:
            if name in self._entries:
                raise StudyExists(
                    f"a study named {name!r} already exists; delete it "
                    "first or pick another name"
                )
            self._entries[name] = entry
        try:
            with entry.lock:
                study = Study(
                    problem,
                    n_initial=n_initial,
                    max_evaluations=max_evaluations,
                    initial_design=initial_design,
                    seed=seed,
                    **configs,
                )
                _atomic_write_json(self._meta_path(name), meta)
                entry.meta = meta
                entry.study = study
                self._checkpoint(entry)
                self._touch(entry)
                self._enforce_residency(keep=entry)
                return study.describe()
        except BaseException:
            with self._table_lock:
                self._entries.pop(name, None)
            self._meta_path(name).unlink(missing_ok=True)
            self._study_path(name).unlink(missing_ok=True)
            raise

    def delete(self, name: str) -> str:
        """Remove a study and its files; returns the deleted name."""
        with self._table_lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise UnknownStudy(f"no study named {name!r}")
        with entry.lock:
            entry.deleted = True
            entry.study = None
            entry.leases.clear()
            if self.farm is not None:
                try:
                    self.farm.unregister(name)
                except UnknownTenant:
                    pass  # the study never used the evaluate verb
            self._meta_path(name).unlink(missing_ok=True)
            self._study_path(name).unlink(missing_ok=True)
        return name

    # -- the ask/tell surface ---------------------------------------------------------

    def ask(self, name: str, n: int = 1, lease_s: float | None = None):
        """Propose ``n`` trials; returns ``[(trial, lease_remaining_s)]``.

        Each trial is leased for ``lease_s`` seconds (the store default
        when ``None``); an expired lease auto-retracts the trial on the
        next :meth:`reap_expired` sweep.
        """
        lease = self.default_lease_s if lease_s is None else float(lease_s)
        with self._entry(name) as entry:
            trials = entry.study.ask(n)
            if lease is not None:
                now = self._clock()
                for trial in trials:
                    entry.leases[trial.id] = now + lease
            self._checkpoint(entry)
            # remaining seconds, not absolute deadlines: the store clock
            # is monotonic and means nothing outside this process
            return [(trial, lease) for trial in trials]

    def tell(self, name: str, trial_id: int, evaluation):
        """Commit one evaluated trial; returns the new record."""
        with self._entry(name) as entry:
            record = entry.study.tell(trial_id, evaluation)
            entry.leases.pop(trial_id, None)
            self._checkpoint(entry)
            return record

    def retract(self, name: str, trial_id: int):
        """Abandon a pending trial; returns the retracted trial."""
        with self._entry(name) as entry:
            trial = entry.study.retract(trial_id)
            entry.leases.pop(trial_id, None)
            self._checkpoint(entry)
            return trial

    def evaluate(self, name: str, trial_id: int):
        """Run one pending trial on the server's farm and commit it.

        Tell-by-reference: only meaningful for registry problems, whose
        simulator the server owns.  The study stays locked for the
        duration (commit order == completion order still holds — there
        is exactly one evaluation in flight per study), a saturated farm
        surfaces as :class:`~repro.service.errors.ServiceBusy`, and an
        :class:`ExternalProblem` is refused outright.  Returns the
        committed record.
        """
        if self.farm is None:
            raise BadRequest(
                "server-side evaluation is disabled: this store was "
                "built without an evaluation farm (pass farm= to the "
                "store/server, or --farm-workers to python -m "
                "repro.service)"
            )
        with self._entry(name) as entry:
            study = entry.study
            trial_id = int(trial_id)
            trial = next(
                (t for t in study.pending_trials() if t.id == trial_id), None
            )
            if trial is None:
                raise UnknownTrial(
                    f"study {name!r} has no pending trial {trial_id}; "
                    "only asked-but-untold trials can be evaluated"
                )
            problem = study.problem
            if isinstance(problem, ExternalProblem):
                raise BadRequest(
                    f"study {name!r} declares the externally-evaluated "
                    f"problem {problem.name!r}: the client owns the "
                    "simulator and must tell() results itself"
                )
            tenant = self._farm_tenant(name, problem)
            try:
                task = self.farm.submit(tenant, trial.u)
            except FarmSaturated as exc:
                raise ServiceBusy(
                    f"evaluation farm is saturated for study {name!r}: "
                    f"{exc}; retry after in-flight evaluations drain"
                ) from exc
            evaluation = self.farm.collect(task)
            record = study.tell(trial, evaluation)
            entry.leases.pop(trial_id, None)
            self._checkpoint(entry)
            return record

    def best(self, name: str):
        """Best feasible record so far (or ``None``)."""
        with self._entry(name) as entry:
            return entry.study.best()

    def status(self, name: str):
        """``(describe_dict, pending_trials, lease_remaining)`` snapshot."""
        with self._entry(name) as entry:
            now = self._clock()
            leases = {
                tid: max(0.0, deadline - now)
                for tid, deadline in entry.leases.items()
            }
            return entry.study.describe(), entry.study.pending_trials(), leases

    def checkpoint(self, name: str):
        """Force a durable checkpoint; returns ``(n_evaluations, n_pending)``.

        Every mutation already checkpoints, so this is a consistency
        affordance (and the way to materialize files after out-of-band
        study surgery in tests).
        """
        with self._entry(name) as entry:
            self._checkpoint(entry)
            study = entry.study
            return study.n_evaluations, len(study.pending_trials())

    # -- leases -----------------------------------------------------------------------

    def reap_expired(self) -> list[tuple[str, int]]:
        """Auto-retract every trial whose lease has expired.

        Returns ``(study_name, trial_id)`` pairs reaped this sweep.
        Studies currently serving a request are skipped (their leases are
        re-examined on the next sweep), so the reaper never blocks the
        request path.
        """
        now = self._clock()
        with self._table_lock:
            candidates = [
                e
                for e in self._entries.values()
                if any(deadline <= now for deadline in e.leases.values())
            ]
        reaped: list[tuple[str, int]] = []
        for entry in candidates:
            if not entry.lock.acquire(blocking=False):
                continue
            try:
                if entry.deleted:
                    continue
                expired = [
                    tid
                    for tid, deadline in entry.leases.items()
                    if deadline <= self._clock()
                ]
                if not expired:
                    continue
                self._ensure_resident(entry)
                for tid in expired:
                    entry.leases.pop(tid, None)
                    try:
                        entry.study.retract(tid)
                    except StudyError:
                        # told/retracted through another path; lease was
                        # stale — nothing to free
                        continue
                    reaped.append((entry.name, tid))
                self._checkpoint(entry)
                self._touch(entry)
            finally:
                entry.lock.release()
        return reaped

    # -- internals --------------------------------------------------------------------

    def _farm_tenant(self, name: str, problem):
        """The study's farm tenant, registered lazily on first evaluate."""
        try:
            return self.farm.tenant(name)
        except UnknownTenant:
            return self.farm.register(name, problem=problem)

    def _entry(self, name: str):
        """Context manager: the named entry, locked and resident."""
        with self._table_lock:
            entry = self._entries.get(name)
        if entry is None:
            raise UnknownStudy(f"no study named {name!r}")
        return _LockedEntry(self, entry)

    def _ensure_resident(self, entry: _Entry) -> None:
        """Load the entry's study from disk if needed (entry lock held)."""
        if entry.study is not None:
            self._touch(entry)
            return
        meta = entry.meta
        if meta is None:
            meta = entry.meta = _read_meta(entry.name, self._meta_path(entry.name))
        problem = build_problem(meta["problem_spec"])
        surrogate = meta["surrogate"]
        if surrogate is not None:
            surrogate = {
                k: v for k, v in surrogate.items() if k not in _RETIRED_SURROGATE_KEYS
            }
        configs = _build_configs(
            surrogate=surrogate,
            acquisition=meta["acquisition"],
            scheduler=meta["scheduler"],
        )
        study = Study.resume(
            self._study_path(entry.name),
            problem,
            seed=meta.get("seed"),
            **configs,
        )
        entry.study = study
        if self.default_lease_s is not None:
            # orphaned pending trials (the asking client may have died
            # with the server) get a fresh default lease so the reaper
            # eventually frees their budget slots
            now = self._clock()
            for trial in study.pending_trials():
                entry.leases.setdefault(trial.id, now + self.default_lease_s)
        self._touch(entry)
        self._enforce_residency(keep=entry)

    def _enforce_residency(self, keep: _Entry) -> None:
        """Evict LRU idle studies until the residency cap holds."""
        if self.max_resident is None:
            return
        with self._table_lock:
            resident = [
                e for e in self._entries.values() if e.study is not None
            ]
            excess = len(resident) - self.max_resident
            if excess <= 0:
                return
            for candidate in sorted(resident, key=lambda e: e.last_used):
                if candidate is keep:
                    continue
                # non-blocking: a study serving a request is not evictable
                if not candidate.lock.acquire(blocking=False):
                    continue
                try:
                    # every mutation checkpointed, so dropping the live
                    # object loses nothing; leases stay on the entry
                    candidate.study = None
                finally:
                    candidate.lock.release()
                excess -= 1
                if excess <= 0:
                    return
        raise ServiceBusy(
            f"all {self.max_resident} resident-study slots are serving "
            "requests; retry shortly"
        )

    def _checkpoint(self, entry: _Entry) -> None:
        if entry.deleted:
            raise UnknownStudy(f"study {entry.name!r} was deleted")
        path = self._study_path(entry.name)
        tmp = path.with_name(path.name + ".tmp")
        entry.study.checkpoint(tmp)
        os.replace(tmp, path)

    def _touch(self, entry: _Entry) -> None:
        entry.last_used = next(self._use_counter)

    def _meta_path(self, name: str) -> Path:
        return self.root / f"{name}.meta.json"

    def _study_path(self, name: str) -> Path:
        return self.root / f"{name}.study.json"


class _LockedEntry:
    """``with store._entry(name) as entry:`` — locked, resident, alive."""

    def __init__(self, store: StudyStore, entry: _Entry):
        self._store = store
        self._entry = entry

    def __enter__(self) -> _Entry:
        self._entry.lock.acquire()
        try:
            if self._entry.deleted:
                raise UnknownStudy(f"no study named {self._entry.name!r}")
            self._store._ensure_resident(self._entry)
        except BaseException:
            self._entry.lock.release()
            raise
        return self._entry

    def __exit__(self, *exc_info):
        self._entry.lock.release()
        return False


#: meta fields a resident load reads unconditionally
_META_KEYS = ("problem_spec", "surrogate", "acquisition", "scheduler")


def _read_meta(name: str, meta_path: Path) -> dict:
    """A study's parsed meta file; damage is a :class:`CheckpointMismatch`.

    Like a damaged ``.study.json``, a damaged meta file is the store's
    fault, not the request's: the error names the file and the field
    (``document``, ``format`` or the missing key) instead of surfacing as a
    parse error or a crash.
    """
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        raise UnknownStudy(f"study {name!r} has no meta file at {meta_path}") from None
    except ValueError as exc:
        raise CheckpointMismatch(
            f"{meta_path} is damaged: the document is not valid JSON ({exc})",
            field="document",
            expected="a JSON object",
            actual=str(exc),
        ) from exc
    if not isinstance(meta, dict):
        raise CheckpointMismatch(
            f"{meta_path} is damaged: the document is a JSON "
            f"{type(meta).__name__}, not an object",
            field="document",
            expected="a JSON object",
            actual=type(meta).__name__,
        )
    if meta.get("format") != META_FORMAT:
        raise CheckpointMismatch(
            f"{meta_path} is not a store meta file: field 'format' is "
            f"{meta.get('format')!r}, expected {META_FORMAT!r}",
            field="format",
            expected=META_FORMAT,
            actual=meta.get("format"),
        )
    for key in _META_KEYS:
        if key not in meta:
            raise CheckpointMismatch(
                f"{meta_path} is damaged: field {key!r} is missing",
                field=key,
                expected="present",
                actual=None,
            )
    return meta


def _build_configs(*, surrogate, acquisition, scheduler) -> dict:
    """Typed configs from wire/meta dicts (``None`` -> defaults)."""
    out = {}
    for key, cls, payload in (
        ("surrogate", SurrogateConfig, surrogate),
        ("acquisition", AcquisitionConfig, acquisition),
        ("scheduler", SchedulerConfig, scheduler),
    ):
        if payload is not None and not isinstance(payload, dict):
            raise BadRequest(
                f"{key} config must be an object of keyword overrides, "
                f"got {type(payload).__name__}"
            )
        try:
            out[key] = cls(**(payload or {}))
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"invalid {key} config: {exc}") from exc
    return out


def _atomic_write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1))
    os.replace(tmp, path)


__all__ = ["META_FORMAT", "StudyStore"]
