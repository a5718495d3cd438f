"""Plain differential evolution with feasibility-rule constraint handling.

The paper's weakest baseline (reference [7]): a population-based global
optimizer that consumes roughly an order of magnitude more simulations
than the surrogate methods (Tables I and II give DE budgets of 1100 and
~2000 simulations).

Constraint handling follows Deb's feasibility rules, the standard choice
for evolutionary sizing:

1. a feasible candidate beats any infeasible one,
2. two infeasible candidates compare by total constraint violation,
3. two feasible candidates compare by objective value.
"""

from __future__ import annotations

import numpy as np

from repro.bo.design import latin_hypercube
from repro.bo.history import OptimizationResult
from repro.bo.problem import Evaluation, Problem
from repro.utils.rng import ensure_rng


def feasibility_key(evaluation: Evaluation) -> tuple[int, float]:
    """Sort key implementing Deb's rules (smaller is better)."""
    if evaluation.feasible:
        return (0, evaluation.objective)
    return (1, evaluation.violation)


def better(a: Evaluation, b: Evaluation) -> bool:
    """True iff evaluation ``a`` beats ``b`` under the feasibility rules."""
    return feasibility_key(a) < feasibility_key(b)


def trial_vector(
    population: np.ndarray,
    target: int,
    mutation: float,
    crossover: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """DE/rand/1/bin trial vector for ``population[target]`` in the unit box."""
    n_pop, dim = population.shape
    choices = [j for j in range(n_pop) if j != target]
    r1, r2, r3 = rng.choice(choices, size=3, replace=False)
    mutant = population[r1] + mutation * (population[r2] - population[r3])
    mutant = np.clip(mutant, 0.0, 1.0)
    cross = rng.uniform(size=dim) < crossover
    cross[rng.integers(0, dim)] = True
    return np.where(cross, mutant, population[target])


class DifferentialEvolution:
    """DE/rand/1/bin over the unit box with Deb-rule selection.

    Parameters
    ----------
    problem:
        Constrained problem to minimize.
    pop_size:
        Population size; the initial population counts toward the budget.
    max_evaluations:
        Total simulation budget.
    mutation, crossover:
        DE control parameters F and CR.
    """

    algorithm_name = "DE"

    def __init__(
        self,
        problem: Problem,
        pop_size: int = 50,
        max_evaluations: int = 1000,
        mutation: float = 0.6,
        crossover: float = 0.9,
        seed=None,
        verbose: bool = False,
    ):
        if pop_size < 5:
            raise ValueError(f"pop_size must be >= 5, got {pop_size}")
        if max_evaluations < pop_size:
            raise ValueError("budget must at least cover the initial population")
        self.problem = problem
        self.pop_size = int(pop_size)
        self.max_evaluations = int(max_evaluations)
        self.mutation = float(mutation)
        self.crossover = float(crossover)
        self.rng = ensure_rng(seed)
        self.verbose = bool(verbose)

    def run(self) -> OptimizationResult:
        """Evolve until the simulation budget is exhausted."""
        result = OptimizationResult(self.problem.name, self.algorithm_name)
        dim = self.problem.dim
        population = latin_hypercube(self.pop_size, dim, self.rng)
        fitness: list[Evaluation] = []
        for u in population:
            evaluation = self.problem.evaluate_unit(u)
            result.append(
                self.problem.scaler.inverse_transform(u), evaluation, phase="initial"
            )
            fitness.append(evaluation)

        generation = 0
        while result.n_evaluations < self.max_evaluations:
            generation += 1
            for i in range(self.pop_size):
                if result.n_evaluations >= self.max_evaluations:
                    break
                trial = trial_vector(
                    population, i, self.mutation, self.crossover, self.rng
                )
                evaluation = self.problem.evaluate_unit(trial)
                result.append(
                    self.problem.scaler.inverse_transform(trial), evaluation
                )
                if better(evaluation, fitness[i]):
                    population[i] = trial
                    fitness[i] = evaluation
            if self.verbose:
                print(
                    f"[DE] gen {generation:3d} evals {result.n_evaluations:4d} "
                    f"best {result.best_objective():.6g}"
                )
        return result
