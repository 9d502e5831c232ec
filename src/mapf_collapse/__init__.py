"""Post-optimization for multi-agent path-finding schedules.

Takes a feasible schedule and minimizes its move count by collapsing
closed subwalks (segments that start and end on the same vertex) into
waits, without breaking any feasibility constraint. The selection
problem is solved exactly with a built-in branch-and-bound; a brute-
force oracle, an independent-set reduction generator, schedule
planners, and a benchmark harness round out the toolkit.
"""

from .candidates import (
    CandidateSet,
    collapse_paths,
    generate_candidates,
)
from .errors import (
    CapExceededError,
    ConsistencyError,
    InfeasibleInputError,
    InstanceFormatError,
    MapParseError,
    PlanningError,
    UnknownVertexError,
    UnsupportedScheduleError,
)
from .graph import Graph, GridMap, cell_name, grid_to_graph, load_map, parse_cell
from .ilp import (
    CollapseSolution,
    IlpModel,
    apply_solution,
    build_model,
    solve_exact,
    solve_greedy,
)
from .oracle import OracleResult, brute_force_collapse, brute_force_mis
from .pipeline import OptimizeConfig, OptimizeResult, optimize_schedule
from .planner import PlanRequest, noisy_rollout, prioritized_plan
from .reduction import ReductionOutput, reduce_independent_set, verify_roundtrip
from .relations import RelationSet, build_relations
from .schedule import (
    AgentRecord,
    FeasibilityReport,
    Instance,
    Schedule,
    Violation,
    agent_density,
    cost_moves,
    isr,
    load_instance,
    save_instance,
    soc,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AgentRecord",
    "CandidateSet",
    "CapExceededError",
    "CollapseSolution",
    "ConsistencyError",
    "FeasibilityReport",
    "Graph",
    "GridMap",
    "IlpModel",
    "InfeasibleInputError",
    "Instance",
    "InstanceFormatError",
    "MapParseError",
    "OptimizeConfig",
    "OptimizeResult",
    "OracleResult",
    "PlanRequest",
    "PlanningError",
    "ReductionOutput",
    "RelationSet",
    "Schedule",
    "UnknownVertexError",
    "UnsupportedScheduleError",
    "Violation",
    "agent_density",
    "apply_solution",
    "brute_force_collapse",
    "brute_force_mis",
    "build_model",
    "build_relations",
    "cell_name",
    "collapse_paths",
    "cost_moves",
    "generate_candidates",
    "grid_to_graph",
    "isr",
    "load_instance",
    "load_map",
    "noisy_rollout",
    "optimize_schedule",
    "parse_cell",
    "prioritized_plan",
    "reduce_independent_set",
    "save_instance",
    "soc",
    "solve_exact",
    "solve_greedy",
    "validate",
    "verify_roundtrip",
]
