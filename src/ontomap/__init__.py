"""Translate utility functions between finite state model ontologies by
optimizing a pair of stochastic maps under a column-KL bisimulation
objective."""

__version__ = "0.1.0"

from .corridor import CorridorSpec, build_corridor, corridor_goal
from .divergence import SmoothingPolicy, kl_columns
from .model import (
    Alphabet,
    FiniteStateModel,
    ModelFormatError,
    ModelValidationError,
    StateDistribution,
    observe,
    read_model,
    step,
    validate_model,
    write_model,
)
from .objective import ObjectiveReport, OntologyMap, evaluate, read_map, write_map
from .optimizer import (
    OptimizationResult,
    OptimizerConfig,
    hill_climb,
    optimize,
    random_map,
)
from .oracle import oracle_search
from .utility import UtilityVector, read_utility, translate, write_utility

__all__ = [
    "Alphabet",
    "CorridorSpec",
    "FiniteStateModel",
    "ModelFormatError",
    "ModelValidationError",
    "ObjectiveReport",
    "OntologyMap",
    "OptimizationResult",
    "OptimizerConfig",
    "SmoothingPolicy",
    "StateDistribution",
    "UtilityVector",
    "build_corridor",
    "corridor_goal",
    "evaluate",
    "hill_climb",
    "kl_columns",
    "observe",
    "optimize",
    "oracle_search",
    "random_map",
    "read_map",
    "read_model",
    "read_utility",
    "step",
    "translate",
    "validate_model",
    "write_map",
    "write_model",
    "write_utility",
]
