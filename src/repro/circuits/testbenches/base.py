"""Common machinery for circuit sizing problems.

A sizing testbench is a :class:`~repro.bo.problem.Problem` whose
``evaluate`` runs the circuit simulator.  Design variables are named and
unit-carrying, and simulator failures (non-convergent bias points) are
converted into finite penalty evaluations so the optimizers always receive
usable data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bo.problem import Evaluation, Problem
from repro.circuits.dc import ConvergenceError


@dataclass(frozen=True)
class DesignVariable:
    """One named design variable with box bounds (natural units)."""

    name: str
    lower: float
    upper: float
    unit: str = ""

    def __post_init__(self):
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ValueError(f"{self.name}: bounds must be finite")
        if self.lower >= self.upper:
            raise ValueError(
                f"{self.name}: lower ({self.lower}) must be < upper ({self.upper})"
            )


class SizingProblem(Problem):
    """Base class for simulator-backed sizing problems.

    Subclasses define ``variables`` (list of :class:`DesignVariable`) and
    implement :meth:`simulate` returning a metrics dict; they also
    implement :meth:`_to_evaluation` mapping metrics to the eq. 1 form.

    ``sim_backend`` selects the simulation engine (a name from
    :data:`repro.sim.base.SIM_BACKENDS` or a
    :class:`~repro.sim.base.SimulatorBackend` instance); resolution is
    lazy so merely constructing a problem never probes for external
    binaries, but string names are validated eagerly so typos fail at
    construction.  The resolved backend's identity enters every
    evaluation cache key via :meth:`cache_context`.
    """

    def __init__(
        self,
        name: str,
        variables: list[DesignVariable],
        n_constraints: int,
        cache_dir=None,
        sim_backend="mna",
    ):
        from repro.sim.base import check_sim_backend

        if not variables:
            raise ValueError("sizing problem needs at least one design variable")
        if isinstance(sim_backend, str):
            check_sim_backend(sim_backend)
        # set before super().__init__: loading a disk cache needs
        # cache_context(), which resolves the backend
        self._sim_backend_spec = sim_backend
        self._sim_backend = None
        self.variables = list(variables)
        lower = np.array([v.lower for v in self.variables])
        upper = np.array([v.upper for v in self.variables])
        super().__init__(name, lower, upper, n_constraints, cache_dir=cache_dir)
        self.n_failures = 0

    @property
    def sim_backend(self):
        """The resolved :class:`~repro.sim.base.SimulatorBackend` (lazy;
        an unavailable external backend falls back to MNA with one
        warning at first use)."""
        if self._sim_backend is None:
            from repro.sim.base import resolve_sim_backend

            self._sim_backend = resolve_sim_backend(self._sim_backend_spec)
        return self._sim_backend

    def cache_context(self) -> tuple:
        """Backend identity ``(name, version)`` — evaluations from one
        engine are never served to a problem configured for another."""
        return self.sim_backend.cache_context()

    @property
    def variable_names(self) -> list[str]:
        """Names of the design variables, in vector order."""
        return [v.name for v in self.variables]

    def as_dict(self, x: np.ndarray) -> dict[str, float]:
        """Map a design vector to a name -> value dict."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} variables, got {x.shape[0]}")
        return {v.name: float(val) for v, val in zip(self.variables, x)}

    def simulate(self, x: np.ndarray) -> dict:
        """Run the simulator; return named metrics.  May raise
        :class:`~repro.circuits.dc.ConvergenceError`."""
        raise NotImplementedError

    def _to_evaluation(self, metrics: dict) -> Evaluation:
        """Translate simulator metrics into objective/constraints."""
        raise NotImplementedError

    def _failure_evaluation(self) -> Evaluation:
        """Penalty evaluation used when the simulator fails to converge."""
        raise NotImplementedError

    def evaluate(self, x: np.ndarray) -> Evaluation:
        """Simulate a design; convergence failures become penalties."""
        try:
            metrics = self.simulate(x)
        except ConvergenceError:
            self.n_failures += 1
            evaluation = self._failure_evaluation()
            evaluation.metrics["failed"] = True
            return evaluation
        return self._to_evaluation(metrics)
