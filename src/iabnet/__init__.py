"""Latency-constrained optimization and simulation of full-duplex
self-backhauled mmWave networks.

Layers: topology (routing trees and their matrices), channel (mmWave links
to capacities), queueing (per-edge M/M/1 view + simulator), optimizer
(min-delay LP and utility interior point), analysis (line-network closed
forms), experiments (seeded Monte Carlo sweeps) and cli.
"""

from .topology import (
    DuplexMode,
    NetworkMatrices,
    RoutingTree,
    build_tree,
    line_network,
    network_matrices,
    two_child_tree,
)
from .optimizer import (
    InfeasibleDelay,
    InfeasibleRate,
    MinDelay,
    ProblemInstance,
    Solution,
    closed_form_t_star,
    min_feasible_delay,
    solve_min_delay_lp,
    solve_utility_max,
)
from .analysis import (
    BothInfeasible,
    InfeasibleTarget,
    LineNetworkParams,
    bottleneck_profile,
    break_points,
    k_max,
    latency_gain,
    latency_gain_line,
    t_star_line,
)

__version__ = "0.1.0"

__all__ = [
    "DuplexMode",
    "NetworkMatrices",
    "RoutingTree",
    "build_tree",
    "line_network",
    "network_matrices",
    "two_child_tree",
    "InfeasibleDelay",
    "InfeasibleRate",
    "MinDelay",
    "ProblemInstance",
    "Solution",
    "closed_form_t_star",
    "min_feasible_delay",
    "solve_min_delay_lp",
    "solve_utility_max",
    "BothInfeasible",
    "InfeasibleTarget",
    "LineNetworkParams",
    "bottleneck_profile",
    "break_points",
    "k_max",
    "latency_gain",
    "latency_gain_line",
    "t_star_line",
    "__version__",
]
