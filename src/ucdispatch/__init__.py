"""Unit-commitment power market toolkit.

Pipeline: load and validate an instance, thin the startup-cost curves, build
the MILP, solve it (built-in exact enumeration or an external solver), and
post-process the solution into dispatch reports.
"""

from .instance import (
    GeneralConfig,
    Instance,
    PeriodSeries,
    StartupCostCurve,
    UnitSpec,
    ValidationReport,
    Violation,
    load_instance,
    period_index,
    validate,
)
from .model import ColumnIndex, LinearConstraint, MilpModel, build_model, model_stats
from .report import (
    CostBreakdown,
    DispatchReport,
    build_report,
    exact_max_possible,
    price_series,
    write_reports,
)
from .solve import (
    ResidualReport,
    Solution,
    SolverConfig,
    check_solution,
    enumerate_optimal_patterns,
    parse_solution_file,
    solve,
    solve_exact,
    solve_external,
    solve_lp_relaxation,
)
from .thinning import ThinnedCurve, best_error, best_step, min_groups_oracle, thin_all, thin_curve
from .writers import write_lp, write_mps

__version__ = "0.1.0"

__all__ = [
    "GeneralConfig", "Instance", "PeriodSeries", "StartupCostCurve", "UnitSpec",
    "ValidationReport", "Violation", "load_instance", "period_index", "validate",
    "ColumnIndex", "LinearConstraint", "MilpModel", "build_model", "model_stats",
    "CostBreakdown", "DispatchReport", "build_report", "exact_max_possible",
    "price_series", "write_reports",
    "ResidualReport", "Solution", "SolverConfig", "check_solution",
    "enumerate_optimal_patterns", "parse_solution_file", "solve", "solve_exact",
    "solve_external", "solve_lp_relaxation",
    "ThinnedCurve", "best_error", "best_step", "min_groups_oracle",
    "thin_all", "thin_curve",
    "write_lp", "write_mps",
    "__version__",
]
