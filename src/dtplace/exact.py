"""Exact placement plus the three non-learning reference schemes.

The weighted cost is a sum of per-twin terms and no constraint couples the
twins, so the optimum places each twin on its own cheapest server: one
argmin over the per-twin cost table, at any scale.  The reference schemes
are the usual yardsticks: uniform random placement, everything on the
cloud, and greedy workload balancing across all servers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cost_model import CostBreakdown, Decision, evaluate, per_dt_cost_table
from .scenario import Scenario


@dataclass(frozen=True)
class SchemeResult:
    decision: Decision
    cost: CostBreakdown
    scheme_name: str
    elapsed: float


def solve_exact(s: Scenario) -> SchemeResult:
    """Minimize the weighted cost over all ``(S+1)^M`` assignments.

    Each twin takes the server with the smallest entry in its row of
    :func:`per_dt_cost_table`; ties keep the lowest server index, which makes
    the result the lexicographically smallest optimal assignment.
    """
    start = time.perf_counter()
    decision = Decision(tuple(per_dt_cost_table(s).argmin(axis=1).tolist()))
    return SchemeResult(decision, evaluate(s, decision), "exact", time.perf_counter() - start)


def scheme_random(s: Scenario, seed: int) -> SchemeResult:
    """Place each DT on a uniformly random server."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    decision = Decision(tuple(rng.integers(0, s.num_servers_total, size=s.num_dts).tolist()))
    return SchemeResult(decision, evaluate(s, decision), "ro", time.perf_counter() - start)


def scheme_cloud_only(s: Scenario) -> SchemeResult:
    """Place every DT on the cloud server."""
    start = time.perf_counter()
    decision = Decision((s.num_servers_total - 1,) * s.num_dts)
    return SchemeResult(decision, evaluate(s, decision), "co", time.perf_counter() - start)


def scheme_average_distribution(s: Scenario) -> SchemeResult:
    """Balance summed DT workloads across all servers, cloud included.

    Classic greedy balancing: DTs in decreasing workload order (index breaks
    ties) each go to the currently lightest server (lowest index breaks
    ties).  Final server loads differ by at most the largest single DT
    workload.
    """
    start = time.perf_counter()
    dev = s.devices
    dt_load = np.bincount(dev.ownership, weights=dev.workloads, minlength=s.num_dts).tolist()

    # a stable sort, so equal loads keep index order even reversed
    order = sorted(range(s.num_dts), key=dt_load.__getitem__, reverse=True)
    server_load = [0.0] * s.num_servers_total
    assignment = [0] * s.num_dts
    for m in order:
        target = server_load.index(min(server_load))
        assignment[m] = target
        server_load[target] += dt_load[m]
    decision = Decision(tuple(assignment))
    return SchemeResult(decision, evaluate(s, decision), "ad", time.perf_counter() - start)
