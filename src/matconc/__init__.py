"""Randomized concentration bounds for random symmetric matrices.

Semidefinite-order Markov, Chebyshev, and Chernoff bounds sharpened by
an external randomizer; supermartingale versions for matrix-valued
processes with optional stopping; exchangeable running-mean bounds; a
scalar trace-exponential e-process; and a Monte Carlo harness that
verifies every stated bound empirically.
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
    anticommutator,
    curlyvee,
    eigh_decomp,
    lambda_max,
    lambda_min,
    loewner_geq,
    loewner_leq,
    load_matrix,
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
    vec_pcheb_event,
    vector_pcheb_bound,
)
from .martingales import (
    DEFAULT_N_MAX,
    FactorStream,
    MatSupermartingaleState,
    betting_gamma_interval,
    build_factors,
    default_gamma_schedule,
    doob_bound,
    doob_event,
    eprocess_min,
    mvi_event,
    trace_pcheb_bound,
    trace_pcheb_event,
    ville_bound,
    ville_event,
    xmci2_bound,
    xmci2_event,
    xmci_bound,
    xmci_event,
    xmpci_bound,
    xmpci_event,
)
from .scalar_e import (
    TestConfig,
    TraceExpState,
    hoeffding_eprocess_value,
    matrix_test_decide,
    mhi_threshold,
    oracle_A_choice,
    scalar_test_decide,
    sn_process_step,
    te_step,
    ursn_event,
    usmhi_event,
    usmhi_threshold,
)
from .generators import GENERATOR_KINDS, GeneratorSpec, generate_path
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
