"""Rolling-horizon solver for offline pickup-and-delivery fleet scheduling.

The library decomposes a full service day into overlapping sliding windows,
solves each window's matching problem exactly on a request-trip-vehicle
graph, commits every stop each vehicle has left for by the step's end, and
replans; committed stops are final, and only passengers aboard bind the
next plan.
"""

from .assignment_ilp import (
    AssignmentBudgetError,
    IlpSolution,
    StrandedRequestError,
    UnprovenAssignmentWarning,
    canonical_objective,
    compute_penalty,
    solve_assignment,
)
from .corpus import CORPUS_SEEDS, corpus_config, make_instance
from .engine import ConfigError, EngineError, run
from .instance_io import (
    Instance,
    ParseError,
    RunReport,
    adapt_benchmark,
    load_csv_requests,
    load_lilim,
    make_fleet,
    report_violations,
    write_report,
)
from .metrics import MetricsSummary, summarize, total_vmt
from .model import (
    DROPOFF,
    PICKUP,
    Location,
    Request,
    Route,
    ServiceRecord,
    SolverConfig,
    Stop,
    Vehicle,
    derive_earliest_dropoff,
    validate_config,
    validate_record,
    validate_route,
)
from .routing import (
    CandidateRoute,
    PlanStart,
    best_route_exhaustive,
    best_route_insertion,
    schedule_route,
)
from .rtv import Edge, RtvGraph, build_rtv_graph
from .simulator import SimulationError, VehicleState, simulate_step
from .travel import EuclideanTravel, MatrixTravel, TravelError
from .window import Batch, coverage_end, window_processing

__version__ = "0.1.0"

__all__ = [
    "AssignmentBudgetError",
    "Batch",
    "CORPUS_SEEDS",
    "CandidateRoute",
    "ConfigError",
    "DROPOFF",
    "Edge",
    "EngineError",
    "EuclideanTravel",
    "IlpSolution",
    "Instance",
    "Location",
    "MatrixTravel",
    "MetricsSummary",
    "PICKUP",
    "ParseError",
    "PlanStart",
    "Request",
    "Route",
    "RtvGraph",
    "RunReport",
    "ServiceRecord",
    "SimulationError",
    "SolverConfig",
    "Stop",
    "StrandedRequestError",
    "TravelError",
    "UnprovenAssignmentWarning",
    "Vehicle",
    "VehicleState",
    "adapt_benchmark",
    "best_route_exhaustive",
    "best_route_insertion",
    "build_rtv_graph",
    "canonical_objective",
    "compute_penalty",
    "corpus_config",
    "coverage_end",
    "derive_earliest_dropoff",
    "load_csv_requests",
    "load_lilim",
    "make_fleet",
    "make_instance",
    "report_violations",
    "run",
    "schedule_route",
    "simulate_step",
    "solve_assignment",
    "summarize",
    "total_vmt",
    "validate_config",
    "validate_record",
    "validate_route",
    "window_processing",
    "write_report",
]
