"""Straight-line references, kept deliberately independent.

Plain Python loops, ``math`` and ``json`` only: no numpy beyond reading a
scenario's arrays as Python lists, no code shared with the package
internals.  Tests compare the production evaluator, validator and document
writer against these.  The comparison-row reference is the one exception:
it is the scheme-major loop the harness used to run, calling the
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


def plain(group):
    """A scenario group's fields by name, each array as a (nested) Python list."""
    out = {}
    for f in dataclasses.fields(group):
        value = getattr(group, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def reference_cost(s, assignment):
    """Return ``(total_time, total_energy, weighted_cost)`` for a placement."""
    cloud = s.num_servers_total - 1
    dev, pool = plain(s.devices), plain(s.servers)
    total_time = 0.0
    total_energy = 0.0
    for m in range(s.num_dts):
        members = [i for i, g in enumerate(dev["ownership"]) if g == m]
        j = assignment[m]
        tx_times = []
        exec_sum = 0.0
        for i in members:
            w = dev["workloads"][i]
            if j == cloud:
                tx = w / (dev["bandwidths"][i] * s.params.gamma)
                clock = s.servers.cloud_clock_speed
                energy = (s.servers.cloud_tx_energy * w
                          + s.servers.cloud_exec_energy * s.params.delta * w)
            else:
                dx = dev["locations"][i][0] - pool["edge_locations"][j][0]
                dy = dev["locations"][i][1] - pool["edge_locations"][j][1]
                dist = max(math.sqrt(dx * dx + dy * dy), 1.0)
                tx = w * dist / s.params.lambda_
                clock = pool["edge_clock_speeds"][j]
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
        doc[name] = plain(getattr(s, name))
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def reference_validate(s):
    """:func:`scenario.validate` as one Python loop per field.

    The array version must give the same messages in the same order.
    """
    out = []
    pool, dev, par = plain(s.servers), plain(s.devices), s.params

    n_edge = len(pool["edge_clock_speeds"])
    if len(pool["edge_locations"]) != n_edge:
        out.append("edge_locations length differs from edge_clock_speeds")
    for i, f in enumerate(pool["edge_clock_speeds"]):
        if not f > 0:
            out.append(f"non-positive edge clock speed at server {i}")
    if not pool["cloud_clock_speed"] > 0:
        out.append("non-positive cloud clock speed")
    for name in ("edge_exec_energy", "cloud_exec_energy", "edge_tx_energy", "cloud_tx_energy"):
        if not pool[name] > 0:
            out.append(f"non-positive {name}")

    n = len(dev["workloads"])
    for name in ("locations", "bandwidths", "ownership"):
        if len(dev[name]) != n:
            out.append(f"{name} length differs from workloads")
    for i, w in enumerate(dev["workloads"]):
        if not w > 0:
            out.append(f"non-positive workload at device {i}")
    for i, b in enumerate(dev["bandwidths"]):
        if not b > 0:
            out.append(f"non-positive bandwidth at device {i}")

    owners = [int(g) for g in dev["ownership"] if isinstance(g, int)]
    for i, g in enumerate(dev["ownership"]):
        if not isinstance(g, int) or not 0 <= g < s.num_dts:
            out.append(f"ownership out of range at device {i}")
    present = set(owners)
    # n devices fill at most n twins; past the first n the empty twins are one line
    listed = min(s.num_dts, len(dev["ownership"]))
    out.extend(f"empty DT {dt}" for dt in range(listed) if dt not in present)
    surplus = s.num_dts - listed - sum(listed <= g < s.num_dts for g in present)
    if surplus > 0:
        out.append(f"empty DTs: {surplus} of DT {listed} to DT {s.num_dts - 1}")

    if s.num_dts < 1:
        out.append("num_dts out of range")
    elif owners and s.num_dts != max(present) + 1:
        out.append("num_dts differs from max ownership + 1")
    if s.num_servers_total != n_edge + 1:
        out.append("num_servers_total differs from edge server count + 1")

    if not 0 < par.gamma <= 1:
        out.append("gamma out of range")
    if not par.lambda_ > 0:
        out.append("non-positive lambda_")
    if not par.delta > 0:
        out.append("non-positive delta")
    if not 0 <= par.alpha <= 1:
        out.append("alpha out of range")
    return out


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
