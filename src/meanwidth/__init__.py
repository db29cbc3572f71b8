"""Mean width of regular polytopes: closed forms, quadrature, Monte Carlo."""

from .extremes import (
    ComparisonReport,
    NumericalError,
    QuadratureError,
    comparison_reports,
    expected_max,
    solve_t_n,
    u_sequence,
)
from .limits import LIMIT_VAR, LimitLaw, ks_statistic, limit_cdf
from .polytopes import (
    MomentEstimate,
    PolytopeKind,
    RegularPolytope,
    family_width_moments,
    sudakov_v1,
    v1_from_mean_width,
    width_moment,
)
from .sampling import McConfig, estimate_moments, sample_correlated_max
from .conjecture import (
    GramConfiguration,
    SearchResult,
    conjecture_bound_check,
    optimize_configuration,
    regular_simplex_gram,
)

__version__ = "0.1.0"
