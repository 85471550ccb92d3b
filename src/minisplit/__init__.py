"""Averaged frugal splitting methods with minimal lifting.

A library and benchmark harness for solving monotone inclusions
0 in sum_i A_i(x) + sum_j C_j(x) with splitting methods that evaluate each
resolvent and each cocoercive operator exactly once per iteration while
storing only n-1 variables between iterations.
"""

from .bench import (
    compare,
    method_for_problem,
    reference_solution,
    run_experiment,
)
from .engine import RunReport, extract_solution, run, run_lifted, split_step
from .errors import (
    DivergenceError,
    IngestionError,
    NotCausalError,
    NotRepresentableError,
    ParameterError,
    StepSizeViolationError,
)
from .graphs import GraphSpec, complete_graph, graph_laplacian, path_graph, ring_graph
from .heuristics import RoutingResult, optimize_routing, sfb_plus_params
from .linalg import consensus_variance, spectral_norm
from .oracles import ForwardOracle, ProblemSpec, ResolventOracle, counting_problem
from .params import (
    SplittingParams,
    ValidationReport,
    assemble,
    factor_laplacian,
    factor_slack,
    from_components,
    load_params,
    params_from_dict,
    params_to_dict,
    random_coupling,
    random_slack,
    save_params,
    validate_params,
)
from .presets import (
    MethodDescriptor,
    agfb_params,
    davis_yin_params,
    gfb_params,
    graph_drs_params,
)
from .problems import (
    PortfolioProblemConfig,
    ToyProblemConfig,
    gen_portfolio_problem,
    gen_toy_problem,
)
from .prox import (
    huber_grad,
    huber_value,
    project_halfspace,
    project_simplex,
    prox_norm_offset,
    soft_threshold_offset,
)
from .schedule import (
    CausalPair,
    infer_schedule,
    is_causal_pair,
    is_valid_schedule,
    random_causal_pair,
    random_schedule,
)

__version__ = "0.1.0"
