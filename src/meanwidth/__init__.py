"""Mean width of regular polytopes: closed forms, quadrature, Monte Carlo."""

from .extremes import (
    ComparisonReport,
    ExtremeValueResult,
    NumericalError,
    QuadratureConfig,
    QuadratureError,
    comparison_report,
    expected_max,
    expected_max_abs,
    solve_t_n,
    u_sequence,
)
from .limits import CLT_CONSTANTS, LimitLaw, ks_statistic, limit_cdf
from .polytopes import (
    MomentEstimate,
    PolytopeKind,
    RegularPolytope,
    sudakov_v1,
    v1_from_mean_width,
    width_moment,
    width_moments,
)
from .sampling import McConfig, estimate_moment, estimate_moments, sample_correlated_max
from .conjecture import (
    GramConfiguration,
    SearchResult,
    conjecture_bound_check,
    optimize_configuration,
    regular_simplex_gram,
)

__version__ = "0.1.0"
