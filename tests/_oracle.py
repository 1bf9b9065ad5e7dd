"""Straight-line references, kept deliberately independent.

Plain Python loops, ``math`` and ``json`` only: no numpy, no code shared
with the package internals.  Tests compare the production evaluator and
document writer against these.  The comparison-row reference is the one
exception: it is the scheme-major loop the harness used to run, calling the
public solvers one scheme at a time and averaging with numpy's mean as that
loop did, so the harness's one-pass rows must match it exactly.
"""

import dataclasses
import json
import math

import numpy as np

from dtplace import ddl
from dtplace.exact import (
    scheme_average_distribution,
    scheme_cloud_only,
    scheme_random,
    solve_exact,
)


def reference_cost(s, assignment):
    """Return ``(total_time, total_energy, weighted_cost)`` for a placement."""
    cloud = s.num_servers_total - 1
    total_time = 0.0
    total_energy = 0.0
    for m in range(s.num_dts):
        members = [i for i, g in enumerate(s.devices.ownership) if g == m]
        j = assignment[m]
        tx_times = []
        exec_sum = 0.0
        for i in members:
            w = s.devices.workloads[i]
            if j == cloud:
                tx = w / (s.devices.bandwidths[i] * s.params.gamma)
                clock = s.servers.cloud_clock_speed
                energy = (s.servers.cloud_tx_energy * w
                          + s.servers.cloud_exec_energy * s.params.delta * w)
            else:
                dx = s.devices.locations[i][0] - s.servers.edge_locations[j][0]
                dy = s.devices.locations[i][1] - s.servers.edge_locations[j][1]
                dist = max(math.sqrt(dx * dx + dy * dy), 1.0)
                tx = w * dist / s.params.lambda_
                clock = s.servers.edge_clock_speeds[j]
                energy = (s.servers.edge_tx_energy * w
                          + s.servers.edge_exec_energy * s.params.delta * w)
            tx_times.append(tx)
            exec_sum += s.params.delta * w / (clock * 1e9)
            total_energy += energy
        total_time += len(members) * (max(tx_times) + exec_sum)
    alpha = s.params.alpha
    return total_time, total_energy, alpha * total_time + (1.0 - alpha) * total_energy


def reference_document(s):
    """The document bytes of ``s`` as the indented ``json.dumps`` writes them."""
    doc = {
        "format": "dt-placement-scenario",
        "version": 1,
        "num_dts": s.num_dts,
        "num_servers_total": s.num_servers_total,
    }
    for name in ("servers", "devices", "params"):
        group = getattr(s, name)
        doc[name] = {f.name: getattr(group, f.name) for f in dataclasses.fields(group)}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def reference_comparison_rows(scenarios, seed, alpha, ensemble):
    """``(scheme, mean_q, mean_t, mean_e)`` for exact, ro, co, ad and ddl at ``alpha``.

    Each scheme runs over every re-weighted scenario before the next scheme
    starts; the random scheme takes one seed per scenario from ``seed``.
    """
    scenarios = [
        dataclasses.replace(s, params=dataclasses.replace(s.params, alpha=alpha))
        for s in scenarios
    ]
    ro_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(scenarios))
    runners = [
        ("exact", lambda s, i: solve_exact(s)),
        ("ro", lambda s, i: scheme_random(s, int(ro_seeds[i]))),
        ("co", lambda s, i: scheme_cloud_only(s)),
        ("ad", lambda s, i: scheme_average_distribution(s)),
        ("ddl", lambda s, i: ddl.infer(ensemble, s)),
    ]
    rows = []
    for name, solve in runners:
        results = [solve(s, i) for i, s in enumerate(scenarios)]
        rows.append(
            (
                name,
                float(np.mean([r.cost.weighted_cost for r in results])),
                float(np.mean([r.cost.total_time for r in results])),
                float(np.mean([r.cost.total_energy for r in results])),
            )
        )
    return rows
