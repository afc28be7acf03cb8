"""Approximate conformal maps of the unit disk onto plane domains.

Smooth boundaries get a polynomial map through the boundary
reparametrization solver; domains with a corner or slender domains get a
fraction-polynomial map that sandwiches the polynomial core between a
straightening power and a recursive root approximant.
"""

import logging

from .fourier_boundary import (
    CornerGapQuery,
    FourierCurve,
    corner_gap_F,
    curvature,
    derivative_curve,
    eval_curve,
    fit_from_samples,
    load_curve,
    save_curve,
    unwrap_arg,
)
from .geometry_checks import (
    DeviationReport,
    boundary_deviation,
    render_polar_net,
    univalence_check,
)
from .pipelines import (
    ComposedMap,
    PipelineConfig,
    PlaneTransform,
    corner_map,
    evaluate_composed,
    measure_corner_angle,
    slender_map,
    smooth_map,
)
from .reparam_solver import (
    BlockSystem,
    PolynomialMap,
    ReparamSolution,
    assemble_system,
    kernel_K,
    kernel_L,
    load_polynomial_map,
    save_polynomial_map,
    solve_reparam,
    taylor_coeffs,
)
from .root_cf import (
    CFApproximant,
    RationalMap,
    cf_rational_form,
    rate_estimate,
    root_cf,
    sqrt_cf,
)

__all__ = [
    "CornerGapQuery", "FourierCurve", "corner_gap_F", "curvature",
    "derivative_curve", "eval_curve", "fit_from_samples", "load_curve",
    "save_curve", "unwrap_arg", "DeviationReport", "boundary_deviation",
    "render_polar_net", "univalence_check", "ComposedMap", "PipelineConfig",
    "PlaneTransform", "corner_map", "evaluate_composed",
    "measure_corner_angle", "slender_map", "smooth_map", "BlockSystem",
    "PolynomialMap", "ReparamSolution", "assemble_system", "kernel_K",
    "kernel_L", "load_polynomial_map", "save_polynomial_map",
    "solve_reparam", "taylor_coeffs", "CFApproximant", "RationalMap",
    "cf_rational_form", "rate_estimate", "root_cf", "sqrt_cf",
]

__version__ = "0.1.0"

# diagnostics go to the "cforge" logger, silent unless the application
# configures logging
logging.getLogger("cforge").addHandler(logging.NullHandler())
