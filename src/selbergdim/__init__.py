"""Exact dimension counts for regularizable cycles of Selberg-type twisted homology.

The public surface mirrors the module layout:

* :mod:`selbergdim.exactnum`  -- exact rationals, Pochhammer, binomials;
* :mod:`selbergdim.hyper`     -- terminating 3F2 and classical identities;
* :mod:`selbergdim.dims`      -- the dimension engine (D, K, I by
  independent routes) and table generation;
* :mod:`selbergdim.resonance` -- the resonance classifier;
* :mod:`selbergdim.suites`    -- seeded/exhaustive verification suites;
* :mod:`selbergdim.cli`       -- the ``selbergdim`` command.
"""

from .dims import (
    DimensionRecord,
    DimQuery,
    DomainError,
    compute_record,
    dim_D,
    dim_I_extremes,
    dim_I_full_resonance_product,
    dim_I_hyp,
    dim_I_sum,
    dim_K_closed,
    dim_K_recursion,
    dim_K_reduction,
    iter_table,
    table,
)
from .exactnum import (
    Rational,
    binom,
    format_rational,
    hockey_stick_check,
    is_integer,
    parse_rational,
    pochhammer,
)
from .hyper import (
    HypParams3F2,
    HyperEvalError,
    NonTerminatingError,
    PoleBeforeTerminationError,
    ZeroDenominatorError,
    contiguity_residual,
    eval_terminating_3f2,
    pfaff_saalschutz_check,
    pfaff_saalschutz_rhs,
    pochhammer_identity_residual,
)
from .resonance import (
    AssumptionViolatedError,
    ConfigParseError,
    ExponentConfig,
    ResonanceReport,
    Violation,
    classify,
    config_from_json,
    config_to_json_dict,
    dims_for_config,
)
from .suites import Lcg, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "parse_rational",
    "format_rational",
    "is_integer",
    "pochhammer",
    "binom",
    "hockey_stick_check",
    "HypParams3F2",
    "HyperEvalError",
    "NonTerminatingError",
    "PoleBeforeTerminationError",
    "ZeroDenominatorError",
    "eval_terminating_3f2",
    "pfaff_saalschutz_rhs",
    "pfaff_saalschutz_check",
    "contiguity_residual",
    "pochhammer_identity_residual",
    "DomainError",
    "DimQuery",
    "DimensionRecord",
    "dim_D",
    "dim_K_recursion",
    "dim_K_reduction",
    "dim_K_closed",
    "dim_I_sum",
    "dim_I_hyp",
    "dim_I_extremes",
    "dim_I_full_resonance_product",
    "compute_record",
    "iter_table",
    "table",
    "ExponentConfig",
    "Violation",
    "ResonanceReport",
    "AssumptionViolatedError",
    "ConfigParseError",
    "classify",
    "dims_for_config",
    "config_from_json",
    "config_to_json_dict",
    "Lcg",
    "SuiteResult",
    "run_suites",
    "__version__",
]
