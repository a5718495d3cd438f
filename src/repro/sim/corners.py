"""Worst-case-over-corners robust sizing (the PVT wrapper).

The paper's charge pump bakes its 18 PVT corners into the testbench; this
module generalizes the idea to *any* sizing problem: a
:class:`CornerRobustProblem` instantiates one member problem per
:class:`~repro.circuits.pvt.PVTCorner` (via a user factory) and scores a
design by its worst corner —

    F(x)   = max_c  f_c(x)
    G_i(x) = max_c  g_{i,c}(x)

so a feasible robust design is feasible at *every* corner and the
minimized objective is the guaranteed (worst-case) performance.  Corner
evaluations are independent, so they fan out over a thread pool when
``n_workers > 1`` — the same executor shape the BO loop's thread pool uses,
which composes with any simulator backend (the external ngspice backend
runs one subprocess per corner in parallel).

:func:`two_stage_opamp_pvt` and :func:`folded_cascode_pvt` wrap the two
amplifier testbenches this way with JSON-able kwargs, so the BO service
can host robust variants next to the nominal ones.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.bo.problem import Evaluation, Problem
from repro.circuits.pvt import PVTCorner, standard_corners


class CornerRobustProblem(Problem):
    """Worst-case wrapper over per-corner instances of a sizing problem.

    Parameters
    ----------
    factory:
        ``factory(corner) -> Problem`` building the testbench configured
        for one :class:`~repro.circuits.pvt.PVTCorner`.  Members must all
        share bounds and constraint count (checked at construction).
    corners:
        Corner grid (default: the paper's 18-corner
        :func:`~repro.circuits.pvt.standard_corners`).
    n_workers:
        Corner fan-out width: >1 evaluates corners on a thread pool,
        1/None stays serial.  Results are order-preserving, so the
        aggregate is identical either way.
    """

    def __init__(
        self,
        factory,
        corners: list[PVTCorner] | None = None,
        n_workers: int | None = None,
        name: str | None = None,
        cache_dir=None,
    ):
        corners = list(corners) if corners is not None else standard_corners()
        if not corners:
            raise ValueError("need at least one PVT corner")
        self.corners = corners
        self.members = [factory(corner) for corner in corners]
        base = self.members[0]
        for member, corner in zip(self.members, self.corners):
            if member.dim != base.dim or member.n_constraints != base.n_constraints:
                raise ValueError(
                    f"corner {corner.name}: member problem shape "
                    f"(d={member.dim}, Nc={member.n_constraints}) differs from "
                    f"the first corner's (d={base.dim}, Nc={base.n_constraints})"
                )
        self.n_workers = int(n_workers) if n_workers else 1
        super().__init__(
            name or f"{base.name}_pvt",
            base.lower,
            base.upper,
            base.n_constraints,
            cache_dir=cache_dir,
        )

    def cache_context(self) -> tuple:
        """Member context plus the corner grid: a cache entry only matches
        the same backend evaluated over the same corners."""
        member_context = tuple(self.members[0].cache_context())
        return member_context + ("corners",) + tuple(c.name for c in self.corners)

    # threads cannot be pickled with the pool handle; the pool is created
    # per evaluate() call, so only Problem's lock state needs handling
    # (done by the base class).

    def _corner_evaluations(self, x: np.ndarray) -> list[Evaluation]:
        if self.n_workers > 1 and len(self.members) > 1:
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                return list(pool.map(lambda m: m.evaluate(x), self.members))
        return [member.evaluate(x) for member in self.members]

    def evaluate(self, x: np.ndarray) -> Evaluation:
        """Evaluate every corner; aggregate by the worst case."""
        x = np.asarray(x, dtype=float)
        evaluations = self._corner_evaluations(x)
        objectives = np.array([e.objective for e in evaluations])
        worst = int(np.argmax(objectives))
        constraints = (
            np.max(np.stack([e.constraints for e in evaluations]), axis=0)
            if self.n_constraints
            else np.empty(0)
        )
        metrics = {
            "worst_corner": self.corners[worst].name,
            "corner_objectives": {
                corner.name: float(e.objective)
                for corner, e in zip(self.corners, evaluations)
            },
            "n_failed_corners": sum(
                1 for e in evaluations if e.metrics.get("failed")
            ),
        }
        # surface the worst corner's raw performances for reporting
        for key, value in evaluations[worst].metrics.items():
            metrics.setdefault(key, value)
        return Evaluation(
            objective=float(objectives[worst]),
            constraints=constraints,
            metrics=metrics,
        )


def _amplifier_pvt(
    cls,
    processes=("TT", "FF", "SS"),
    vdd_scales=(0.9, 1.1),
    temps_c=(-40.0, 27.0, 125.0),
    n_workers: int | None = None,
    sim_backend="mna",
    cache_dir=None,
    **testbench_kwargs,
) -> CornerRobustProblem:
    corners = standard_corners(processes, vdd_scales, temps_c)

    def factory(corner):
        return cls(corner=corner, sim_backend=sim_backend, **testbench_kwargs)

    return CornerRobustProblem(
        factory, corners=corners, n_workers=n_workers, cache_dir=cache_dir
    )


def two_stage_opamp_pvt(**kwargs) -> CornerRobustProblem:
    """Worst-case two-stage op-amp sizing over a PVT grid.

    Keyword arguments: ``processes``/``vdd_scales``/``temps_c`` select the
    corner grid (defaults give the paper-style 18 corners), ``n_workers``
    the corner fan-out, ``sim_backend`` the engine; everything else is
    forwarded to
    :class:`~repro.circuits.testbenches.two_stage_opamp.TwoStageOpAmpProblem`.
    """
    from repro.circuits.testbenches.two_stage_opamp import TwoStageOpAmpProblem

    return _amplifier_pvt(TwoStageOpAmpProblem, **kwargs)


def folded_cascode_pvt(**kwargs) -> CornerRobustProblem:
    """Worst-case folded-cascode OTA sizing over a PVT grid (see
    :func:`two_stage_opamp_pvt` for the keyword arguments)."""
    from repro.circuits.testbenches.folded_cascode import FoldedCascodeOTAProblem

    return _amplifier_pvt(FoldedCascodeOTAProblem, **kwargs)
