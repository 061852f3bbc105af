"""Randomized concentration bounds for random symmetric matrices.

Semidefinite-order Markov, Chebyshev, and Chernoff bounds sharpened by
an external randomizer; supermartingale versions for matrix-valued
processes with optional stopping; exchangeable running-mean bounds; a
scalar trace-exponential e-process; the sequential processes that step
them along paths (:mod:`matconc.processes`); and a Monte Carlo harness
that verifies every stated bound empirically.
"""

from .errors import (
    AssumptionViolated,
    ConfigError,
    DimMismatch,
    DomainError,
    GammaOutOfRange,
    IncompatiblePair,
    MatconcError,
    ParamMismatch,
    PreconditionFailed,
)
from .symmat import (
    TOL_PSD,
    eigh_decomp,
    lambda_max,
    lambda_min,
    loewner_leq,
    mat_abs,
    mat_exp,
    mat_inv,
    mat_log,
    mat_pow,
    mat_sqrt,
    parse_matrix_json,
    spectral_norm,
    trace,
    trace_product,
)
from .rng import default_seed, spawn_pair, substream
from .report import McReport, wilson_interval
from .randomizers import (
    MatrixRandomizer,
    ScalarRandomizer,
    verify_trace_superuniform,
)
from .fixed_bounds import (
    MgfSpec,
    chebyshev1_bound,
    chebyshev_n_bound,
    chebyshev_n_event,
    chernoff1_bound,
    chernoff1_event,
    chernoff_hoeffding_bound,
    chernoff_hoeffding_event,
    markov_threshold,
    mgf_trace_bound,
    pcheb1_bound,
    pcheb1_event,
    spectral_pcheb_moment_bound,
    sum_pth_moment_bound,
    ummi_bound,
    ummi_event,
    vector_pcheb_bound,
)
from .martingales import (
    MatSupermartingaleState,
    betting_gamma_interval,
    build_factors,
    default_gamma_schedule,
    doob_bound,
    trace_pcheb_bound,
    ville_bound,
    ville_event,
    xmci2_bound,
    xmci_bound,
    xmpci_bound,
)
from .scalar_e import (
    TraceExpState,
    hoeffding_eprocess_value,
    matrix_test_decide,
    mhi_threshold,
    oracle_A_choice,
    scalar_test_decide,
    sn_process_step,
    ursn_event,
    usmhi_event,
    usmhi_threshold,
)
from .generators import GENERATOR_KINDS, GeneratorSpec
from .processes import (
    FactorProcess,
    MeanScan,
    TraceExpProcess,
    first_crossing,
    sequential_test_stops,
)
from .simulator import (
    FalsifyRecord,
    McConfig,
    compatible_generators,
    default_generator,
    falsify_conjecture,
    registry_names,
    run_coverage,
    run_default_suite,
)

__version__ = "0.1.0"
