"""Solver library and CLI harness for battery-constrained EV relocation.

Workers cycle between stations by folding bike: ride to a pickup station,
drive the EV there to a delivery station, repeat, all within a duty time.
The package provides the shared schedule/feasibility model, four
construction heuristics, an exhaustive small-instance oracle, a synthetic
instance generator, file I/O, and benchmark reporting.
"""

from .errors import (
    DegenerateConfig,
    EvreloError,
    GapOutOfRange,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidInstance,
    InvariantViolation,
    ParseError,
    UnknownRequest,
    WrongKind,
)
from .exact import OracleLimits, optimality_gap, solve_exact
from .feasibility import (
    ValidationResult,
    Violation,
    replay_route,
    validate_route,
    validate_solution,
)
from .generator import (
    GeneratorConfig,
    generate,
    make_benchmark,
    profit_demo_instance,
    reprice_frc,
    small_instances,
)
from .greedy import GreedyPolicy, run_greedy
from .insertion import RhConfig, run_ch, run_rh
from .io import load_instance, load_solution, save_instance, save_solution
from .model import (
    EPS,
    Instance,
    Parameters,
    Request,
    RequestKind,
    RevenueModel,
    RouteSchedule,
    ScheduledVisit,
    Solution,
)

__version__ = "0.1.0"

__all__ = [
    "EPS",
    "DegenerateConfig",
    "EvreloError",
    "GapOutOfRange",
    "GeneratorConfig",
    "GreedyPolicy",
    "IndexOutOfRange",
    "Instance",
    "InstanceTooLarge",
    "InvalidInstance",
    "InvariantViolation",
    "OracleLimits",
    "Parameters",
    "ParseError",
    "Request",
    "RequestKind",
    "RevenueModel",
    "RhConfig",
    "RouteSchedule",
    "ScheduledVisit",
    "Solution",
    "UnknownRequest",
    "ValidationResult",
    "Violation",
    "WrongKind",
    "generate",
    "load_instance",
    "load_solution",
    "make_benchmark",
    "optimality_gap",
    "profit_demo_instance",
    "replay_route",
    "reprice_frc",
    "run_ch",
    "run_greedy",
    "run_rh",
    "save_instance",
    "save_solution",
    "small_instances",
    "solve_exact",
    "validate_route",
    "validate_solution",
    "__version__",
]
