"""Fuzzy finite element model updating for mass-spring structures.

Measured modal data with triangular membership functions go in; fuzzy
membership functions of the uncertain stiffness parameters come out, one
constrained interval optimization per alpha-cut level. Continuous ant
colony optimization and particle swarm optimization drive the search, with
a random-walk Metropolis-Hastings sampler as the probabilistic baseline.
"""

__version__ = "0.1.0"

from .bayes import (
    Chain,
    ChainSummary,
    McmcConfig,
    log_posterior,
    log_posterior_batch,
    mh_sample,
    summarize,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateVectorError,
    DiagnosticsError,
    DomainError,
    EvaluationError,
    FfemuError,
    ShapeError,
)
from .fuzzy import AlphaCutStack, alpha_cuts, default_levels, triangles
from .linalg import ModalSolution, pair_modes
from .model import GROUND, SpringElement, StructuralModel, load_model, model_from_dict
from .objective import (
    MeasuredFuzzyModalData,
    load_measured,
    residual_batch,
    save_measured,
    vertex_modes,
)
from .optim import (
    AcoConfig,
    Box,
    OptimizationResult,
    PsoConfig,
    SolutionArchive,
    aco_construct,
    aco_minimize,
    aco_weights,
    least_squares_polish,
    pso_minimize,
    selection_probabilities,
)
from .pipeline import (
    FfemuResult,
    FfemuRun,
    load_run_config,
    propagate_outputs,
    run_ffemu,
    simulate_measurements,
)

__all__ = [name for name in dir() if not name.startswith("_")]
