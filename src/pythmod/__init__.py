"""pythmod: exact arithmetic and verified counting for the congruence
x1^2 + x2^2 = x3^2 mod p^n with unit coordinates."""

__version__ = "0.1.0"

from .circle import (
    CircleParamPoint,
    SolutionTriple,
    enumerate_admissible_t,
    enumerate_circle_solutions,
    excluded_param_count,
    hensel_lift_solution,
    inverse_param,
    param_point,
)
from .counting import (
    CountConfig,
    CountReport,
    DualTerms,
    TransitionResult,
    count_box_exact,
    count_equation_box,
    count_pythagorean,
    count_smoothed,
    dual_triple_count,
    predict_dual_terms,
    predict_main_term,
    transition_check,
)
from .expsums import (
    ExpSumSpec,
    StationaryPoints,
    additive_character,
    canonical_sqrt,
    circle_exponential_sum,
    curvature_symbol,
    curvature_symbol_sqrt_form,
    gauss_factor,
    gauss_factor_unified,
    gauss_sum_bruteforce,
    gauss_sum_closed,
    lattice_circle_weight,
    lift_stationary_point,
    phase_function,
    residue_class_sum,
    residue_class_sum_closed,
    stationary_phase_identity,
    stationary_points,
)
from .padic import (
    Poly,
    PrimePowerModulus,
    RationalFunction,
    Residue,
    eval_rational_mod,
    inv_mod,
    is_prime,
    jacobi_symbol,
    sqrt_mod,
)
from .weights import PoissonCheck, WeightSpec, gaussian, poisson_check

__all__ = [name for name in dir() if not name.startswith("_")]
