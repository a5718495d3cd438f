"""Persistence for optimization runs, studies and surrogate banks.

Long experiments (Table II at paper scale runs for hours) need restartable
artifacts: runs serialize to JSON (portable, diffable) and a fitted
:class:`~repro.core.batched_gp.SurrogateBank` to a JSON-safe snapshot
(:func:`bank_state_to_dict`, exact float64 arrays).  :func:`result_to_dict` round-trips
the *complete* trace — including scheduler provenance (iteration, batch
index, pending sets) and the asynchronous proposal ledger — so a restored
run can be audited exactly like a live one; these primitives also back
:meth:`repro.bo.study.Study.checkpoint` / ``resume``.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from repro.bo.config import config_to_dict
from repro.bo.history import OptimizationResult
from repro.bo.problem import Evaluation
from repro.bo.scheduler import ProposalEntry, ProposalLedger


def ledger_to_dict(ledger) -> dict | None:
    """JSON-safe form of a run's proposal ledger (``None`` passes through)."""
    if ledger is None:
        return None
    return {"entries": [config_to_dict(entry) for entry in ledger.entries]}


def ledger_from_dict(data: dict | None):
    """Inverse of :func:`ledger_to_dict`.

    Entries written before ``strategy``, ``retracted`` or ``speculative``
    existed load with those fields' defaults.
    """
    if data is None:
        return None
    ledger = ProposalLedger()
    for item in data.get("entries", ()):
        entry = ProposalEntry(**item)
        ledger.entries.append(entry)
        if entry.committed_at is not None:
            ledger._n_committed += 1
    return ledger


def scalar_metrics(metrics: dict) -> dict:
    """The JSON-scalar entries of a metrics dict.

    The one rule for metrics that leave the process (run files, checkpoint
    histories, the service's wire records and client tells): nested
    simulator payloads are dropped.
    """
    return {k: v for k, v in metrics.items() if isinstance(v, (int, float, str, bool))}


def result_to_dict(result: OptimizationResult) -> dict:
    """JSON-safe dictionary form of an optimization run.

    Round-trips the full trace: per-record batch/async provenance
    (``iteration``, ``batch_index``, ``pending``, ``proposal_id``,
    ``pending_at_proposal``), the cache counters, and the proposal ledger
    (``result.ledger``: every :class:`~repro.bo.study.Study` run has one;
    the GASPAD and DE baselines leave it ``None``).  Only
    :func:`scalar_metrics` survive.  The record form is written by hand:
    it puts ``phase`` before ``objective``, which is not the field order
    of :class:`~repro.bo.history.EvaluationRecord`.
    """
    records = []
    for record in result.records:
        ev = record.evaluation
        records.append(
            {
                "index": record.index,
                "x": record.x.tolist(),
                "phase": record.phase,
                "objective": ev.objective,
                "constraints": ev.constraints.tolist(),
                "metrics": scalar_metrics(ev.metrics),
                "iteration": record.iteration,
                "batch_index": record.batch_index,
                "pending": list(record.pending),
                "proposal_id": record.proposal_id,
                "pending_at_proposal": list(record.pending_at_proposal),
            }
        )
    return {
        "problem": result.problem_name,
        "algorithm": result.algorithm,
        "records": records,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "ledger": ledger_to_dict(result.ledger),
    }


def result_from_dict(data: dict) -> OptimizationResult:
    """Inverse of :func:`result_to_dict` (tolerates pre-provenance dicts)."""
    result = OptimizationResult(data["problem"], data["algorithm"])
    for entry in data["records"]:
        evaluation = Evaluation(
            objective=entry["objective"],
            constraints=np.asarray(entry["constraints"], dtype=float),
            metrics=dict(entry.get("metrics", {})),
        )
        result.append(
            np.asarray(entry["x"], dtype=float),
            evaluation,
            phase=entry.get("phase", "search"),
            iteration=entry.get("iteration"),
            batch_index=entry.get("batch_index", 0),
            pending=tuple(entry.get("pending", ())),
            proposal_id=entry.get("proposal_id"),
            pending_at_proposal=tuple(entry.get("pending_at_proposal", ())),
        )
    result.cache_hits = int(data.get("cache_hits", 0))
    result.cache_misses = int(data.get("cache_misses", 0))
    result.ledger = ledger_from_dict(data.get("ledger"))
    return result


def save_result(result: OptimizationResult, path) -> Path:
    """Write a run to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(result), indent=1))
    return path


def load_result(path) -> OptimizationResult:
    """Read a run back from :func:`save_result` output."""
    data = json.loads(Path(path).read_text())
    return result_from_dict(data)


# -- study-checkpoint primitives ----------------------------------------------------


def rng_state_to_dict(rng: np.random.Generator) -> dict:
    """JSON-safe snapshot of a generator's bit-stream position.

    PCG64 (the :func:`numpy.random.default_rng` family) state is plain
    Python integers, which JSON carries at arbitrary precision — the
    restored stream continues bit-exactly.
    """
    return _json_safe_state(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """Restore a snapshot from :func:`rng_state_to_dict` into ``rng``.

    The generator must use the same bit-generator family the snapshot was
    taken from (numpy validates and raises otherwise, naming both).
    """
    rng.bit_generator.state = state
    return rng


def _json_safe_state(value):
    if isinstance(value, dict):
        return {k: _json_safe_state(v) for k, v in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def config_digest(config) -> str:
    """Short stable digest of a typed config.

    SHA-256 over the canonical (sorted-key, compact) JSON form of
    :func:`~repro.bo.config.config_to_dict`, truncated to 12 hex chars.
    Two studies with equal digests were built from field-identical
    configs; the service's
    ``status`` endpoint exposes these so clients can verify a resumed or
    remote study matches their local expectations without shipping whole
    config objects over the wire.
    """
    import hashlib

    blob = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# -- float64 array codec ----------------------------------------------------------


class DamagedArray(ValueError):
    """A stored array whose bytes cannot be decoded into its declared shape.

    ``field`` names the array; ``expected`` is the byte count its shape
    needs and ``actual`` the decoded byte count (or the base64 error text
    when the blob does not decode at all).
    """

    def __init__(self, message, *, field, expected, actual):
        super().__init__(message)
        self.field = field
        self.expected = expected
        self.actual = actual


def array_to_dict(array) -> dict:
    """``{"shape", "f8"}``: the shape plus base64 of the little-endian float64 bytes.

    Bitwise by construction (signed zeros, NaN payloads and subnormals
    included), and the JSON encoder writes one string instead of one
    float repr per element.
    """
    data = np.ascontiguousarray(array, dtype="<f8")
    return {
        "shape": list(data.shape),
        "f8": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def array_from_dict(data: dict, field: str = "array") -> np.ndarray:
    """Inverse of :func:`array_to_dict`; a native float64 array.

    Raises :class:`DamagedArray` naming ``field`` when the blob is not
    base64 or its byte count does not match the shape.
    """
    shape = [int(n) for n in data["shape"]]
    expected = 8 * math.prod(shape)
    try:
        raw = base64.b64decode(data["f8"], validate=True)
    except ValueError as exc:
        raise DamagedArray(
            f"array {field!r} is not valid base64 ({exc})",
            field=field,
            expected=expected,
            actual=str(exc),
        ) from exc
    if len(raw) != expected:
        raise DamagedArray(
            f"array {field!r} holds {len(raw)} bytes, but its shape "
            f"{shape} needs {expected}",
            field=field,
            expected=expected,
            actual=len(raw),
        )
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


# -- surrogate-bank snapshots (warm fantasy-only resume) ----------------------------


def bank_state_to_dict(bank) -> dict:
    """JSON-safe snapshot of a fitted :class:`~repro.core.batched_gp.SurrogateBank`.

    Captures the learned state only — stacked network weights, GP scales,
    target normalization, and the *real* training set (fantasies are
    deliberately dropped: the streaming proposer rebuilds them from the
    pending set on every proposal).  Each array travels through
    :func:`array_to_dict`, so the restored float64 arrays are bitwise
    identical to the live ones.
    """
    gp = bank.gp
    if gp._x_train is None:
        raise ValueError("cannot snapshot an unfitted surrogate bank")
    xb = gp.xb
    host = xb.from_device
    return {
        "n_targets": bank.n_targets,
        "n_members": bank.n_members,
        "network": array_to_dict(host(gp.network.get_stacked_params())),
        "log_noise": array_to_dict(host(gp.log_noise_variance)),
        "log_prior": array_to_dict(host(gp.log_prior_variance)),
        "y_mean": array_to_dict(host(gp._y_mean)),
        "y_scale": array_to_dict(host(gp._y_scale)),
        "x_train": array_to_dict(gp._x_train),
        "z_train": array_to_dict(host(gp._z_train)),
    }


def restore_bank_state(bank, data: dict):
    """Restore a :func:`bank_state_to_dict` snapshot into a fresh bank.

    The caller provides a bank built with the same architecture (the
    surrogate config's ``bank_factory`` guarantees that); this function
    overwrites its parameters and recomputes the cached posterior, after
    which predictions are bitwise identical to the snapshotted bank's.
    Snapshots written as nested float lists (``repro.study/v1``
    checkpoints) load too.
    """
    gp = bank.gp
    if (bank.n_targets, bank.n_members) != (
        int(data["n_targets"]),
        int(data["n_members"]),
    ):
        raise ValueError(
            f"bank layout mismatch: snapshot has "
            f"{data['n_targets']} targets x {data['n_members']} members, "
            f"bank has {bank.n_targets} x {bank.n_members}"
        )

    def load(key):
        value = data[key]
        if isinstance(value, dict):
            return array_from_dict(value, field=key)
        return np.asarray(value, dtype=float)

    xb = gp.xb
    gp.network.set_stacked_params(xb.to_device(load("network")))
    gp.log_noise_variance = xb.to_device(load("log_noise"))
    gp.log_prior_variance = xb.to_device(load("log_prior"))
    gp._y_mean = xb.to_device(load("y_mean"))
    gp._y_scale = xb.to_device(load("y_scale"))
    gp._x_train = load("x_train")
    gp._z_train = xb.to_device(load("z_train"))
    gp._x_fantasy = []
    gp._z_fantasy = []
    gp.update_posterior()
    return bank

