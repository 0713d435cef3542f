"""Downlink CSP selection (paper Section 4.3, Algorithm 1).

To download a file, the client must fetch ``t`` of the ``n`` shares of
every chunk; which CSPs it fetches from determines the parallel
completion time.  This package defines the optimisation problem
(:mod:`problem`), the exact bandwidth sub-problem
(:mod:`bandwidth`), the fractional relaxation (:mod:`relaxation`:
solved exactly as a min-makespan flow, or the paper's convexified
program as an ablation), the paper's online relax-fix-round algorithm
(:class:`CyrusSelector`), and the random / round-robin / greedy /
brute-force baselines the evaluation compares against.
"""

from repro.selection.bandwidth import optimal_bandwidth_allocation
from repro.selection.baselines import (
    BruteForceSelector,
    GreedySelector,
    RandomSelector,
    RoundRobinSelector,
)
from repro.selection.cyrus import CyrusSelector
from repro.selection.problem import (
    ChunkDownload,
    DownloadProblem,
    SelectionPlan,
    evaluate_plan,
    restrict_to_live,
)

__all__ = [
    "ChunkDownload",
    "DownloadProblem",
    "SelectionPlan",
    "evaluate_plan",
    "restrict_to_live",
    "optimal_bandwidth_allocation",
    "CyrusSelector",
    "RandomSelector",
    "RoundRobinSelector",
    "GreedySelector",
    "BruteForceSelector",
]
