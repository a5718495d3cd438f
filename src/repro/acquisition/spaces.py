"""Proposal subspaces: where the inner-loop maximizer is allowed to look.

Full-space acquisition maximization stalls in high dimension: DE needs a
population of ``4 * dim`` and the Nelder-Mead polish budget grows with
``dim``, so the proposal cycle explodes exactly where the acquisition
surface is flattest.  LinEasyBO (arXiv 2109.00617) keeps analog-sizing BO
effective at high ``d`` by maximizing along one-dimensional subspaces, and
TuRBO-style trust regions restrict proposals to a box around the
incumbent that grows on success and shrinks on failure.

A :class:`ProposalSpace` is itself an
:class:`~repro.acquisition.maximize.AcquisitionMaximizer`: each proposal
it lays out frames around the incumbent, runs its own engine on the
acquisition seen through each frame, and keeps the best champion lifted
back to the unit box.  The whole unit box is no space at all:
:func:`make_proposal_space` returns ``None`` for it and the driver keeps
its full-box maximizer, so the default stays bitwise unchanged.

* :class:`LineSpace` — a fan of random one-dimensional lines through
  the incumbent, each clipped to the unit box and maximized by a dense
  1-D scan plus a bounded scalar polish in the embedded coordinate,
* :class:`TrustRegionSpace` — a TuRBO-style box around the incumbent
  with success/failure counters driving expand/shrink; its engine is a
  chunked candidate scan with a capped polish.

Greedy q-batches, the pending-point strategies and the async refill
proposer call only ``maximize``/``maximize_batch``, so they compose with
subspace proposals unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acquisition.maximize import (
    AcquisitionMaximizer,
    ScanPolishMaximizer,
    _masked_values,
)
from repro.utils.rng import ensure_rng

#: proposal-space specs resolvable by :func:`make_proposal_space`
PROPOSAL_SPACES = ("full", "line", "trust-region")


@dataclass(frozen=True)
class TrustRegionConfig:
    """Knobs of the TuRBO-style trust region (unit-box side lengths).

    The region is a box of side ``length`` centred on the incumbent,
    clipped to ``[0, 1]^d``.  ``success_tolerance`` consecutive improving
    landings expand ``length`` by ``expand`` (capped at ``length_max``);
    ``failure_tolerance`` consecutive non-improving landings shrink it by
    ``shrink``.  A region shrunk below ``length_min`` restarts at
    ``length_init`` (the TuRBO restart rule — the region has collapsed
    onto a local optimum and searching it further is wasted budget).
    ``n_candidates`` sizes the embedded candidate scan.
    """

    length_init: float = 0.8
    length_min: float = 0.5**7
    length_max: float = 1.6
    success_tolerance: int = 3
    failure_tolerance: int = 8
    shrink: float = 0.5
    expand: float = 2.0
    n_candidates: int = 2048

    def __post_init__(self):
        if not 0.0 < self.length_min <= self.length_init <= self.length_max:
            raise ValueError(
                "trust-region lengths must satisfy 0 < length_min <= "
                f"length_init <= length_max, got length_min={self.length_min}, "
                f"length_init={self.length_init}, length_max={self.length_max}"
            )
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"shrink must be in (0, 1), got {self.shrink}")
        if self.expand <= 1.0:
            raise ValueError(f"expand must be > 1, got {self.expand}")
        for name in ("success_tolerance", "failure_tolerance", "n_candidates"):
            value = int(getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)


class LineFrame:
    """Affine map from ``z in [0, 1]`` onto a line segment in the unit box.

    The segment is ``center + t * direction`` for ``t in [t_lo, t_hi]``
    (the intersection of the line with ``[0, 1]^d``); ``z`` parametrizes
    it linearly.
    """

    def __init__(self, center: np.ndarray, direction: np.ndarray,
                 t_lo: float, t_hi: float):
        self.center = np.asarray(center, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)

    @property
    def dim(self) -> int:
        return 1

    def lift(self, z: np.ndarray) -> np.ndarray:
        """Map embedded points ``z`` of shape ``(n, 1)`` to ``(n, d)``."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        t = self.t_lo + z[:, 0] * (self.t_hi - self.t_lo)
        x = self.center[None, :] + t[:, None] * self.direction[None, :]
        # the endpoints are exact by construction; interior points can
        # drift out by float error, so clip defensively
        return np.clip(x, 0.0, 1.0)


class BoxFrame:
    """Affine map from ``[0, 1]^d`` onto an axis-aligned sub-box."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def lift(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return self.lo[None, :] + z * (self.hi - self.lo)[None, :]


class ProposalSpace(AcquisitionMaximizer):
    """A maximizer that searches frames around the incumbent.

    The driver sets the incumbent (best-known unit design) before each
    proposal round.  ``frames(dim, rng)`` lays out the embeddings one
    proposal searches; ``engine`` maximizes the acquisition inside each
    of them.  ``observe(improved)`` feeds landing outcomes to adaptive
    spaces (trust-region counters); the state travels through study
    checkpoints via ``state_to_dict`` / ``restore_state``.
    """

    name = "full"
    #: the current best unit-box design (``None`` = box centre)
    incumbent: np.ndarray | None = None
    #: the maximizer run in each frame's embedded coordinates
    engine: AcquisitionMaximizer

    def set_incumbent(self, u) -> None:
        """Record the current best unit-box design (``None`` = box centre)."""
        self.incumbent = None if u is None else np.asarray(u, dtype=float).ravel()

    def _center(self, dim: int) -> np.ndarray:
        """The incumbent clipped to the unit box, or the box centre."""
        if self.incumbent is None:
            return np.full(dim, 0.5)
        return np.clip(self.incumbent, 0.0, 1.0)

    def frames(self, dim: int, rng) -> list:
        """The embeddings searched for one proposal (champion-of-frames)."""
        raise NotImplementedError

    def maximize(self, acquisition, dim: int, rng=None) -> np.ndarray:
        rng = ensure_rng(rng)
        best_x: np.ndarray | None = None
        best_value = -np.inf
        for frame in self.frames(dim, rng):
            z = self.engine.maximize(
                lambda z, lift=frame.lift: acquisition(lift(z)), frame.dim, rng
            )
            x = frame.lift(np.atleast_2d(z))[0]
            value = float(_masked_values(acquisition(x[None, :]))[0])
            if best_x is None or value > best_value:
                best_x, best_value = x, value
        return best_x

    def observe(self, improved: bool) -> None:
        """Feed one landing outcome (no-op for non-adaptive spaces)."""

    def state_to_dict(self) -> dict:
        """JSON-safe adaptive state (empty for stateless spaces)."""
        return {}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`state_to_dict`."""


class DenseLineMaximizer(AcquisitionMaximizer):
    """Dense 1-D grid scan plus a bounded scalar polish.

    The embedded engine of :class:`LineSpace`: evaluate the acquisition
    on ``n_grid`` equispaced points of the segment in ONE batched call,
    then refine the champion with bounded golden-section/Brent descent
    inside its grid cell.  Cost is independent of the ambient dimension.
    """

    def __init__(self, n_grid: int = 256, polish: bool = True,
                 polish_xatol: float = 1e-6):
        if n_grid < 2:
            raise ValueError(f"n_grid must be >= 2, got {n_grid}")
        self.n_grid = int(n_grid)
        self.polish = bool(polish)
        self.polish_xatol = float(polish_xatol)

    def maximize(self, acquisition, dim: int, rng=None) -> np.ndarray:
        if dim != 1:
            raise ValueError(
                f"DenseLineMaximizer works in 1 embedded dimension, got {dim}"
            )
        grid = np.linspace(0.0, 1.0, self.n_grid)
        values = _masked_values(acquisition(grid[:, None]))
        i = int(np.argmax(values))
        z0, f0 = float(grid[i]), float(values[i])
        if not (self.polish and np.isfinite(f0)):
            return np.array([z0])
        lo = float(grid[max(i - 1, 0)])
        hi = float(grid[min(i + 1, self.n_grid - 1)])

        def negative(z: float) -> float:
            value = float(
                _masked_values(acquisition(np.array([[np.clip(z, 0.0, 1.0)]])))[0]
            )
            return -value if np.isfinite(value) else np.inf

        from scipy import optimize as sopt

        res = sopt.minimize_scalar(
            negative, bounds=(lo, hi), method="bounded",
            options={"xatol": self.polish_xatol},
        )
        if np.isfinite(res.fun) and -float(res.fun) >= f0:
            return np.array([float(np.clip(res.x, 0.0, 1.0))])
        return np.array([z0])


class LineSpace(ProposalSpace):
    """A fan of random one-dimensional lines through the incumbent.

    LinEasyBO-style: each proposal draws ``n_lines`` fresh isotropic
    directions, intersects each line through the incumbent with the unit
    box, maximizes the acquisition along every segment with
    :class:`DenseLineMaximizer`, and keeps the best champion across the
    fan.  One random line often points nowhere useful — on constrained
    problems progress needs directions with the right projection onto the
    active coordinates — and a small fan fixes that failure mode while
    the proposal cost stays ``O(n_lines * n_grid)`` surrogate
    evaluations, independent of the ambient dimension.  Greedy q-batches
    search q *different* fans — the direction draws are part of the
    proposal RNG stream, so runs stay seeded-deterministic.
    """

    name = "line"

    def __init__(self, n_grid: int = 256, polish: bool = True,
                 n_lines: int = 4):
        if n_lines < 1:
            raise ValueError(f"n_lines must be >= 1, got {n_lines}")
        self.n_lines = int(n_lines)
        self.engine = DenseLineMaximizer(n_grid=n_grid, polish=polish)

    def frames(self, dim: int, rng) -> list:
        center = self._center(dim)
        frames = []
        for _ in range(self.n_lines):
            direction = rng.standard_normal(dim)
            norm = float(np.linalg.norm(direction))
            if norm == 0.0 or not np.isfinite(norm):  # pathological draw
                direction = np.zeros(dim)
                direction[0] = 1.0
            else:
                direction = direction / norm
            t_lo, t_hi = _segment_range(center, direction)
            frames.append(LineFrame(center, direction, t_lo, t_hi))
        return frames


class TrustRegionSpace(ProposalSpace):
    """A TuRBO-style box around the incumbent with adaptive side length.

    ``observe(improved)`` drives the success/failure counters;
    ``state_to_dict``/``restore_state`` round-trip the adaptive state
    through :meth:`repro.bo.study.Study.checkpoint`, so a resumed study
    continues with the exact region the interrupted run had reached.
    """

    name = "trust-region"

    def __init__(self, config: TrustRegionConfig | None = None):
        self.config = config if config is not None else TrustRegionConfig()
        self.length = float(self.config.length_init)
        self.n_success = 0
        self.n_failure = 0
        self.n_expansions = 0
        self.n_shrinks = 0
        self.n_restarts = 0
        self.engine = ScanPolishMaximizer(n_samples=self.config.n_candidates)

    def frames(self, dim: int, rng) -> list:
        center = self._center(dim)
        half = 0.5 * self.length
        return [BoxFrame(np.clip(center - half, 0.0, 1.0),
                         np.clip(center + half, 0.0, 1.0))]

    def observe(self, improved: bool) -> None:
        cfg = self.config
        if improved:
            self.n_success += 1
            self.n_failure = 0
            if self.n_success >= cfg.success_tolerance:
                self.length = min(self.length * cfg.expand, cfg.length_max)
                self.n_success = 0
                self.n_expansions += 1
        else:
            self.n_failure += 1
            self.n_success = 0
            if self.n_failure >= cfg.failure_tolerance:
                self.length *= cfg.shrink
                self.n_failure = 0
                self.n_shrinks += 1
                if self.length < cfg.length_min:
                    self.length = float(cfg.length_init)
                    self.n_restarts += 1

    def state_to_dict(self) -> dict:
        return {
            "length": self.length,
            "n_success": self.n_success,
            "n_failure": self.n_failure,
            "n_expansions": self.n_expansions,
            "n_shrinks": self.n_shrinks,
            "n_restarts": self.n_restarts,
        }

    def restore_state(self, state: dict) -> None:
        self.length = float(state["length"])
        self.n_success = int(state["n_success"])
        self.n_failure = int(state["n_failure"])
        self.n_expansions = int(state.get("n_expansions", 0))
        self.n_shrinks = int(state.get("n_shrinks", 0))
        self.n_restarts = int(state.get("n_restarts", 0))


def _segment_range(center: np.ndarray, direction: np.ndarray) -> tuple[float, float]:
    """The ``t`` range keeping ``center + t * direction`` inside the box.

    ``center`` is inside ``[0, 1]^d``, so the range always contains 0; a
    degenerate corner case (center at a vertex, direction pointing out)
    collapses to ``[0, 0]`` and the duplicate filter downstream resamples.
    """
    t_lo, t_hi = -np.inf, np.inf
    for c, v in zip(center, direction):
        if v == 0.0:
            continue
        bounds = sorted(((0.0 - c) / v, (1.0 - c) / v))
        t_lo = max(t_lo, bounds[0])
        t_hi = min(t_hi, bounds[1])
    if not np.isfinite(t_lo) or not np.isfinite(t_hi) or t_hi < t_lo:
        return 0.0, 0.0
    return float(t_lo), float(t_hi)


def incumbent_index(result) -> int | None:
    """Record index of the incumbent design of a history.

    Best feasible record when one exists; otherwise the least-violating
    record (ties broken by objective) — the same point a human would call
    "current best" while the run is still hunting for feasibility.
    """
    best = result.best_feasible()
    if best is not None:
        return best.index
    best_idx = None
    best_key = None
    for record in result.records:
        violation = record.evaluation.violation
        objective = record.evaluation.objective
        key = (
            violation if np.isfinite(violation) else np.inf,
            objective if np.isfinite(objective) else np.inf,
        )
        if best_key is None or key < best_key:
            best_key = key
            best_idx = record.index
    return best_idx


def make_proposal_space(
    spec: str, trust_region: TrustRegionConfig | None = None
) -> ProposalSpace | None:
    """Build the space for an :class:`~repro.bo.config.AcquisitionConfig` spec.

    Returns ``None`` for ``"full"`` — the driver then keeps its full-box
    maximizer, so the default path stays bitwise identical to the
    pre-subspace code.
    """
    spec = str(spec).replace("_", "-").lower()
    if spec not in PROPOSAL_SPACES:
        raise ValueError(
            f"proposal_space must be one of {PROPOSAL_SPACES}, got {spec!r}"
        )
    if spec == "full":
        return None
    if spec == "line":
        return LineSpace()
    return TrustRegionSpace(trust_region)


__all__ = [
    "PROPOSAL_SPACES",
    "BoxFrame",
    "DenseLineMaximizer",
    "LineFrame",
    "LineSpace",
    "ProposalSpace",
    "TrustRegionConfig",
    "TrustRegionSpace",
    "incumbent_index",
    "make_proposal_space",
]
