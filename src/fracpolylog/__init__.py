"""Fractional polylogarithm Li_alpha on the universal cover of C minus {0, 1}.

Evaluation through six representations (power series, two integral
forms, the bilateral branch-term sum, a zeta-coefficient expansion, and
Jonquiere's relation to two Hurwitz zeta values), the exact monodromy
action of the loop group on branches, and a cross-checking validation
suite.

>>> from fracpolylog import Order, eval_auto
>>> eval_auto(Order.of(0.5), 0.25).value  # doctest: +ELLIPSIS
(0.3057349...+0j)
>>> eval_auto(Order.of(0.5), -3.0).method
'Jonquiere'
"""

from .domain import (
    EPS_CUT,
    BranchVector,
    CoverPoint,
    EvalResult,
    PathWord,
    branch_value,
    format_word,
    log_pos_cut,
    m_alpha_k,
    parse_word,
    reduce_word,
)
from .errors import ConvergenceError, DomainError, FracpolylogError, UnsupportedError
from .evaluators import (
    DEFAULT_CONFIG,
    ToleranceConfig,
    asymptotic_leading,
    eval_appell,
    eval_auto,
    eval_auto_many,
    eval_hankel,
    eval_jonquiere,
    eval_mittag_leffler,
    eval_negint_closed,
    eval_on_cut,
    eval_series,
    eval_zeta_series,
    hankel_contour_integral,
)
from .kernel import (
    EPS_INT,
    Order,
    c_alpha,
    gamma,
    hurwitz_zeta,
    principal_log,
    principal_pow,
    riemann_zeta,
)
from .monodromy import (
    EquivarianceReport,
    apply_generator,
    eval_cover,
    ml_equivariance_check,
    transport,
)
from .validation import (
    CheckReport,
    crosscheck_point,
    ladder_check,
    reports_to_jsonl,
    run_selfcheck,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "BranchVector",
    "CheckReport",
    "ConvergenceError",
    "CoverPoint",
    "DEFAULT_CONFIG",
    "DomainError",
    "EPS_CUT",
    "EPS_INT",
    "EquivarianceReport",
    "EvalResult",
    "FracpolylogError",
    "Order",
    "PathWord",
    "ToleranceConfig",
    "UnsupportedError",
    "apply_generator",
    "asymptotic_leading",
    "branch_value",
    "c_alpha",
    "crosscheck_point",
    "eval_appell",
    "eval_auto",
    "eval_auto_many",
    "eval_cover",
    "eval_hankel",
    "eval_jonquiere",
    "eval_mittag_leffler",
    "eval_negint_closed",
    "eval_on_cut",
    "eval_series",
    "eval_zeta_series",
    "format_word",
    "gamma",
    "hankel_contour_integral",
    "hurwitz_zeta",
    "ladder_check",
    "log_pos_cut",
    "m_alpha_k",
    "ml_equivariance_check",
    "parse_word",
    "principal_log",
    "principal_pow",
    "reduce_word",
    "reports_to_jsonl",
    "riemann_zeta",
    "run_selfcheck",
    "summarize",
    "transport",
    "__version__",
]
