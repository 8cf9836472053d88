"""Word-length optimization engines."""

from repro.wlo.continuation import (
    CONTINUATION_MODES,
    apply_warm_start,
    clear_continuations,
)
from repro.wlo.cost import WlCostTable, wl_relative_cost
from repro.wlo.greedy import GreedyResult, max_minus_one, min_plus_one
from repro.wlo.pareto import (
    FrontierPoint,
    ParetoFrontier,
    ParetoResult,
    pareto_frontier,
)
from repro.wlo.registry import (
    available_wlo_engines,
    get_wlo_engine,
    register_wlo_engine,
)
from repro.wlo.scaling import (
    ScalingStats,
    lane_shifts,
    optimize_scalings,
    superword_reuses,
)
from repro.wlo.slp_aware import JointWarmStart, WloSlpOutcome, wlo_slp_optimize
from repro.wlo.tabu import TabuConfig, TabuResult, tabu_wlo

__all__ = [
    "CONTINUATION_MODES",
    "FrontierPoint",
    "GreedyResult",
    "JointWarmStart",
    "ParetoFrontier",
    "ParetoResult",
    "ScalingStats",
    "TabuConfig",
    "TabuResult",
    "WlCostTable",
    "WloSlpOutcome",
    "apply_warm_start",
    "available_wlo_engines",
    "clear_continuations",
    "get_wlo_engine",
    "lane_shifts",
    "max_minus_one",
    "min_plus_one",
    "optimize_scalings",
    "pareto_frontier",
    "register_wlo_engine",
    "superword_reuses",
    "tabu_wlo",
    "wl_relative_cost",
    "wlo_slp_optimize",
]
