"""Chained model melding: pooled priors over shared quantities and
multi-stage MCMC for the resulting melded posterior."""

__version__ = "0.1.0"

from .chain import (
    ChainModel,
    Coord,
    PhiBlock,
    SubmodelSpec,
    UnitFactorization,
    discrete_coords,
    log_melded_density,
    markov_combination_density,
    positive_coords,
    real_coords,
    submodel_log_ratio,
    unit_additivity_gap,
)
from .errors import (
    ChainmeldError,
    ConfigError,
    InitializationError,
    ModelInconsistencyError,
    NumericalFailureError,
    PoolingConfigError,
    StructureError,
    UnsupportedConfigError,
)
from .gaussian import (
    GaussianDensity,
    block_diag_stack,
    log_pool_gaussian_chain,
)
from .pooling import (
    GridSpec,
    GridTable,
    PoolFactorization,
    PooledPrior,
    dictatorial_complete,
    dictatorial_partial,
    factorize_for_sampler,
    grid_normalize,
    linear_pooling,
    log_pooling,
    poe_pooling,
)
from .samplers import (
    MeldedChainOutput,
    SampleStore,
    run_parallel_stage_two,
    run_parallel_stage_two_unitwise,
    run_random_walk,
    run_sequential,
    run_stage_one,
    run_stage_one_pair,
)
from .normal_approx import (
    MomentDiagnostics,
    build_normal_approx_target,
    fit_gaussian_moments,
    moment_diagnostics,
)
from .diagnostics import EssResult, RhatResult, ess, ess_bulk, ess_tail, split_rhat
from .builtins import (
    BuiltChain,
    DiscreteTable,
    builtin_discrete_chain,
    builtin_gaussian_chain,
    empirical_table,
    enumerate_melded_posterior,
    enumerate_pooled_prior,
    tv_distance,
)
