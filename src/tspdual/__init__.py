"""Quadratic-programming encoding of the TSP, its reduced form, the
classic Lagrangian dual, and the inverse feasibility search."""

from .instance import (
    DistanceMatrix,
    OracleResult,
    Tour,
    brute_force_optimum,
    canonical_tour,
    load_instance,
    random_euclidean_instance,
    save_instance,
    tour_length,
    validate_distance_matrix,
)
from .formulation import (
    QpFormulation,
    build_formulation,
    encode_tour,
    objective,
)
from .reduction import (
    ReducedProblem,
    embed_tour,
    linear_maps,
    reduce_formulation,
    reduced_objective,
)
from .dual import (
    AscentResult,
    DualEvaluation,
    DualPoint,
    Termination,
    Verdict,
    assemble,
    default_start,
    dual_ascent,
    dual_feasible,
    dual_value,
    point,
    verify_global,
)
from .inverse import (
    InverseCandidate,
    InverseSearchReport,
    SearchConfig,
    default_target,
    edm_violations,
    eliminate_mu,
    feasibility_score,
    inverse_search,
    optimality_margins,
)

__version__ = "0.1.0"
