"""Weighted mean inequalities: chains, gap bounds and operator analogues."""

import types as _types

from .convex import (
    BUILTINS,
    ConvexFnSpec,
    ConvexityError,
    chain_eval,
    chain_terms,
    gap_sandwich_check,
    get_builtin,
    make_convex_fn,
    refined_gap_check,
    split_integral_avg,
)
from .bounds import (
    curvature_gap_bounds,
    deriv_gap_bounds,
    derivative_bounds,
    identric_ratio_refinement,
    identric_ratio_reverse,
    logmean_diff_refinement,
    logmean_diff_reverse,
    midpoint_gap_bounds,
    trapezoid_gap_bounds,
)
from .harness import (
    SuiteConfig,
    SuiteReport,
    merge_reports,
    reference_value_check,
    run_bounds_suite,
    run_operator_suite,
    run_scalar_suite,
)
from .operators import (
    LoewnerVerdict,
    NumericalBreakdown,
    OperatorChainReport,
    SpdMatrix,
    loewner_leq,
    logmean_gm_check,
    operator_chain,
    representing_chain,
)
from .quadrature import QuadConfig, QuadratureError, integrate
from .reports import ChainReport, GapBoundReport
from .scalar import (
    identric_chain,
    log_mean_unit,
    log_weighted_identric,
    logarithmic_chain,
    weighted_arithmetic,
    weighted_geometric,
    weighted_identric,
    weighted_logarithmic,
)

__version__ = "0.1.0"

# the public surface: every name imported above, sorted (the submodules are not in it)
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
