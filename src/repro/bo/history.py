"""Run histories and result summaries.

The paper reports, per run: the performances of the best design, and the
*average number of simulations* needed to reach it (Tables I and II).
:class:`OptimizationResult` therefore tracks every evaluation in order and
derives best-feasible / sims-to-best statistics from the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bo.problem import Evaluation


@dataclass
class EvaluationRecord:
    """One evaluated design in chronological order.

    ``phase`` is ``"initial"`` for the random starting set and ``"search"``
    for points proposed by the optimizer.

    Batch provenance (filled by the propose/evaluate scheduler):

    ``iteration``
        Proposal round this design belongs to (0 for the initial design,
        1, 2, ... for search batches); ``None`` for records appended
        outside the scheduler.
    ``batch_index``
        Position of this design inside its proposal batch (0..q-1).
    ``pending``
        Global record indices of evaluations that were *pending* (proposed
        but not yet simulated) when this design was proposed — i.e. the
        fantasy points the q-point acquisition conditioned on.

    Ledger provenance, filled by :class:`~repro.bo.study.Study` (the
    refill-on-completion loop commits in completion order):

    ``proposal_id``
        This design's id in the run's proposal ledger
        (:attr:`OptimizationResult.ledger`); ``None`` for records
        appended outside a study.  Async records are committed in completion order, so
        proposal ids need not be monotone along the trace.
    ``pending_at_proposal``
        Proposal ids (not record indices — the in-flight designs had no
        history row yet) that were pending when this design was proposed:
        the fantasy points its acquisition conditioned on.
    """

    index: int
    x: np.ndarray
    evaluation: Evaluation
    phase: str = "search"
    iteration: int | None = None
    batch_index: int = 0
    pending: tuple[int, ...] = ()
    proposal_id: int | None = None
    pending_at_proposal: tuple[int, ...] = ()

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).ravel()
        if self.phase not in ("initial", "search"):
            raise ValueError(f"unknown phase {self.phase!r}")
        self.batch_index = int(self.batch_index)
        self.pending = tuple(int(i) for i in self.pending)
        if self.proposal_id is not None:
            self.proposal_id = int(self.proposal_id)
        self.pending_at_proposal = tuple(int(i) for i in self.pending_at_proposal)


class OptimizationResult:
    """Chronological record of an optimization run with summary accessors."""

    def __init__(self, problem_name: str, algorithm: str):
        self.problem_name = str(problem_name)
        self.algorithm = str(algorithm)
        self.records: list[EvaluationRecord] = []
        #: simulator-cache traffic during this run (filled by the optimizer
        #: from Problem.cache_stats deltas); hits are proposals answered
        #: from the memoization cache without re-running the simulator
        self.cache_hits = 0
        self.cache_misses = 0
        #: the :class:`~repro.bo.scheduler.ProposalLedger` (proposal/commit
        #: order provenance) of every :class:`~repro.bo.study.Study` run;
        #: ``None`` for the GASPAD and DE baselines
        self.ledger = None

    # -- recording ------------------------------------------------------------

    def append(
        self,
        x: np.ndarray,
        evaluation: Evaluation,
        phase: str = "search",
        iteration: int | None = None,
        batch_index: int = 0,
        pending: tuple[int, ...] = (),
        proposal_id: int | None = None,
        pending_at_proposal: tuple[int, ...] = (),
    ):
        """Add one evaluated design to the trace (with batch provenance)."""
        self.records.append(
            EvaluationRecord(
                index=len(self.records),
                x=x,
                evaluation=evaluation,
                phase=phase,
                iteration=iteration,
                batch_index=batch_index,
                pending=pending,
                proposal_id=proposal_id,
                pending_at_proposal=pending_at_proposal,
            )
        )

    # -- bulk views -------------------------------------------------------------

    @property
    def n_evaluations(self) -> int:
        """Total number of simulator calls."""
        return len(self.records)

    @property
    def x_matrix(self) -> np.ndarray:
        """All evaluated designs, shape ``(n, d)``."""
        if not self.records:
            return np.empty((0, 0))
        return np.stack([r.x for r in self.records])

    @property
    def objectives(self) -> np.ndarray:
        """Objective trace, shape ``(n,)``."""
        return np.array([r.evaluation.objective for r in self.records])

    @property
    def constraint_matrix(self) -> np.ndarray:
        """Constraint values, shape ``(n, Nc)`` (``(n, 0)`` if unconstrained)."""
        if not self.records:
            return np.empty((0, 0))
        return np.stack([r.evaluation.constraints for r in self.records])

    @property
    def feasible_mask(self) -> np.ndarray:
        """Boolean mask of feasible evaluations."""
        return np.array([r.evaluation.feasible for r in self.records])

    def batches(self, phase: str | None = "search") -> list[list[EvaluationRecord]]:
        """Records grouped by proposal round, in iteration order.

        Records without scheduler provenance (``iteration is None``) are
        skipped; pass ``phase=None`` to include the initial design as
        iteration 0.
        """
        grouped: dict[int, list[EvaluationRecord]] = {}
        for record in self.records:
            if record.iteration is None:
                continue
            if phase is not None and record.phase != phase:
                continue
            grouped.setdefault(record.iteration, []).append(record)
        return [
            sorted(grouped[it], key=lambda r: r.batch_index)
            for it in sorted(grouped)
        ]

    # -- summaries ----------------------------------------------------------------

    @property
    def success(self) -> bool:
        """True iff any feasible design was found (paper's ``# Success``)."""
        return bool(np.any(self.feasible_mask))

    def best_feasible(self) -> EvaluationRecord | None:
        """The feasible record with the lowest objective, or ``None``."""
        best = None
        for record in self.records:
            if not record.evaluation.feasible:
                continue
            if best is None or record.evaluation.objective < best.evaluation.objective:
                best = record
        return best

    def best_objective(self) -> float:
        """Best feasible objective (``inf`` when no feasible point exists)."""
        best = self.best_feasible()
        return np.inf if best is None else best.evaluation.objective

    def n_sims_to_best(self, rel_tol: float = 1e-9) -> int | None:
        """Simulations spent until the final best value was first reached.

        This is the paper's ``Avg. # Sim`` notion: an algorithm that
        plateaus early gets credit for the simulations it actually needed,
        not for its full budget.  Returns ``None`` for failed runs.
        """
        best = self.best_feasible()
        if best is None:
            return None
        target = best.evaluation.objective
        margin = abs(target) * rel_tol + 1e-12
        for record in self.records:
            if (
                record.evaluation.feasible
                and record.evaluation.objective <= target + margin
            ):
                return record.index + 1
        return best.index + 1

    def n_sims_to_first_feasible(self) -> int | None:
        """Simulations spent until the first feasible design (or ``None``)."""
        mask = self.feasible_mask
        if not np.any(mask):
            return None
        return int(np.argmax(mask)) + 1

    def best_so_far(self) -> np.ndarray:
        """Running best feasible objective per evaluation (inf before any).

        This is the convergence curve used by the example scripts.
        """
        out = np.empty(self.n_evaluations)
        best = np.inf
        for i, record in enumerate(self.records):
            if record.evaluation.feasible:
                best = min(best, record.evaluation.objective)
            out[i] = best
        return out

    def __repr__(self) -> str:
        return (
            f"OptimizationResult({self.algorithm} on {self.problem_name}: "
            f"{self.n_evaluations} evals, best={self.best_objective():.6g})"
        )
