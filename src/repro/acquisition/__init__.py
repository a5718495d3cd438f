"""Acquisition functions and maximizers for constrained Bayesian optimization.

The paper uses weighted Expected Improvement (eq. 7): EI of the objective
(eq. 5–6) multiplied by the probability of satisfying every constraint.
Plain EI, PI, LCB/UCB and PoF are provided as building blocks, and
``maximize`` contains the inner "optimize engine" of Fig. 2.
"""

from repro.acquisition.base import (
    expected_improvement,
    lower_confidence_bound,
    probability_of_feasibility,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.acquisition.fantasy import (
    FANTASY_STRATEGIES,
    PerTargetBank,
    fantasy_lies,
)
from repro.acquisition.maximize import (
    AcquisitionMaximizer,
    DifferentialEvolutionMaximizer,
    ScanPolishMaximizer,
)
from repro.acquisition.penalization import (
    PENDING_STRATEGIES,
    HallucinatedUCB,
    LocalPenalizer,
    PenalizedAcquisition,
    estimate_lipschitz,
)
from repro.acquisition.spaces import (
    PROPOSAL_SPACES,
    LineSpace,
    ProposalSpace,
    TrustRegionConfig,
    TrustRegionSpace,
    make_proposal_space,
)
from repro.acquisition.wei import WeightedExpectedImprovement

__all__ = [
    "AcquisitionMaximizer",
    "DifferentialEvolutionMaximizer",
    "FANTASY_STRATEGIES",
    "HallucinatedUCB",
    "LineSpace",
    "LocalPenalizer",
    "PENDING_STRATEGIES",
    "PROPOSAL_SPACES",
    "PenalizedAcquisition",
    "PerTargetBank",
    "ProposalSpace",
    "ScanPolishMaximizer",
    "TrustRegionConfig",
    "TrustRegionSpace",
    "WeightedExpectedImprovement",
    "make_proposal_space",
    "estimate_lipschitz",
    "expected_improvement",
    "fantasy_lies",
    "lower_confidence_bound",
    "probability_of_feasibility",
    "probability_of_improvement",
    "upper_confidence_bound",
]
