"""GASPAD baseline: GP-assisted differential evolution with prescreening.

Re-implements the surrogate-assisted evolutionary framework of Liu et al.
(TCAD 2014), reference [11] of the paper: differential-evolution variation
operators generate a batch of child candidates each generation, Gaussian-
process surrogates (trained on *all* simulations so far) prescreen them,
and only the most promising child is actually simulated.

Prescreening ranks children by a surrogate analogue of Deb's rules using
optimistic (lower-confidence-bound) estimates:

1. children whose every constraint LCB is negative (plausibly feasible)
   rank by the objective LCB,
2. the rest rank by predicted total constraint violation,

so one simulation per generation is spent on the candidate most likely to
advance the search — the mechanism that puts GASPAD between plain DE and
full Bayesian optimization in simulation efficiency (paper Tables I, II).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.de import feasibility_key, trial_vector
from repro.bo.design import latin_hypercube
from repro.bo.history import OptimizationResult
from repro.bo.loop import _sanitize_targets
from repro.bo.problem import Evaluation, Problem
from repro.gp.gpr import GPRegression
from repro.gp.kernels import make_kernel
from repro.utils.rng import ensure_rng


class GASPAD:
    """Surrogate-assisted DE for constrained sizing (paper baseline [11]).

    Parameters
    ----------
    problem:
        Constrained problem to minimize.
    n_initial:
        Initial Latin-hypercube simulations.
    pop_size:
        Evolutionary population size (best ``pop_size`` simulated designs).
    children_per_gen:
        Candidates generated and prescreened per generation.
    kappa:
        LCB optimism factor for prescreening.
    max_evaluations:
        Total simulation budget.
    """

    algorithm_name = "GASPAD"

    def __init__(
        self,
        problem: Problem,
        n_initial: int = 30,
        pop_size: int = 20,
        children_per_gen: int = 40,
        kappa: float = 2.0,
        max_evaluations: int = 200,
        kernel: str = "gaussian",
        n_restarts: int = 1,
        mutation: float = 0.6,
        crossover: float = 0.9,
        seed=None,
        verbose: bool = False,
    ):
        if pop_size < 5:
            raise ValueError(f"pop_size must be >= 5, got {pop_size}")
        if n_initial < pop_size:
            raise ValueError("n_initial must be >= pop_size")
        if max_evaluations < n_initial:
            raise ValueError("budget must cover the initial design")
        self.problem = problem
        self.n_initial = int(n_initial)
        self.pop_size = int(pop_size)
        self.children_per_gen = int(children_per_gen)
        self.kappa = float(kappa)
        self.max_evaluations = int(max_evaluations)
        self.kernel_name = str(kernel)
        self.n_restarts = int(n_restarts)
        self.mutation = float(mutation)
        self.crossover = float(crossover)
        self.rng = ensure_rng(seed)
        self.verbose = bool(verbose)

    # -- main loop -------------------------------------------------------------

    def run(self) -> OptimizationResult:
        """Run the surrogate-assisted evolution until budget exhaustion."""
        result = OptimizationResult(self.problem.name, self.algorithm_name)
        archive_x: list[np.ndarray] = []
        archive_eval: list[Evaluation] = []

        for u in latin_hypercube(self.n_initial, self.problem.dim, self.rng):
            self._simulate(u, result, archive_x, archive_eval, phase="initial")

        generation = 0
        while result.n_evaluations < self.max_evaluations:
            generation += 1
            population = self._select_population(archive_x, archive_eval)
            children = self._generate_children(population)
            best_child = self._prescreen(children, archive_x, archive_eval)
            self._simulate(best_child, result, archive_x, archive_eval)
            if self.verbose:
                print(
                    f"[GASPAD] gen {generation:3d} evals {result.n_evaluations:4d} "
                    f"best {result.best_objective():.6g}"
                )
        return result

    # -- pieces -----------------------------------------------------------------

    def _simulate(self, u, result, archive_x, archive_eval, phase="search"):
        evaluation = self.problem.evaluate_unit(u)
        result.append(
            self.problem.scaler.inverse_transform(u), evaluation, phase=phase
        )
        archive_x.append(np.asarray(u, dtype=float))
        archive_eval.append(evaluation)

    def _select_population(self, archive_x, archive_eval) -> np.ndarray:
        """Best ``pop_size`` archive members under the feasibility rules."""
        order = sorted(
            range(len(archive_eval)), key=lambda i: feasibility_key(archive_eval[i])
        )
        chosen = order[: self.pop_size]
        return np.stack([archive_x[i] for i in chosen])

    def _generate_children(self, population: np.ndarray) -> np.ndarray:
        n_pop, dim = population.shape
        children = np.empty((self.children_per_gen, dim))
        for c in range(self.children_per_gen):
            target = self.rng.integers(0, n_pop)
            children[c] = trial_vector(
                population, target, self.mutation, self.crossover, self.rng
            )
        return children

    def _prescreen(self, children, archive_x, archive_eval) -> np.ndarray:
        """Rank children on GP surrogates; return the most promising one."""
        x_train = np.stack(archive_x)
        objective = _sanitize_targets(
            np.array([e.objective for e in archive_eval])
        )
        obj_model = self._fit_gp(x_train, objective)
        obj_lcb = self._lcb(obj_model, children)

        n_constraints = self.problem.n_constraints
        if n_constraints == 0:
            return children[int(np.argmin(obj_lcb))].copy()

        constraint_matrix = np.stack([e.constraints for e in archive_eval])
        con_lcbs = np.empty((len(children), n_constraints))
        for i in range(n_constraints):
            model = self._fit_gp(x_train, constraint_matrix[:, i])
            con_lcbs[:, i] = self._lcb(model, children)

        plausibly_feasible = np.all(con_lcbs < 0.0, axis=1)
        violation = np.sum(np.maximum(con_lcbs, 0.0), axis=1)
        # rank: feasible-by-LCB children by objective LCB, others by violation
        key = np.where(plausibly_feasible, obj_lcb, np.inf)
        if np.any(plausibly_feasible):
            return children[int(np.argmin(key))].copy()
        return children[int(np.argmin(violation))].copy()

    def _fit_gp(self, x_train, y_train) -> GPRegression:
        model = GPRegression(
            kernel=make_kernel(self.kernel_name, self.problem.dim),
            n_restarts=self.n_restarts,
            seed=self.rng,
        )
        model.fit(x_train, y_train)
        return model

    def _lcb(self, model: GPRegression, x: np.ndarray) -> np.ndarray:
        mean, var = model.predict(x)
        return mean - self.kappa * np.sqrt(np.maximum(var, 1e-18))
