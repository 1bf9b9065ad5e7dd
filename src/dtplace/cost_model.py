"""Latency/energy cost of serving digital twins from chosen servers.

Every device uploads its workload to the server hosting its twin, which then
executes the twin's update there.  Times are seconds, energies millijoules.

Transmission differs by target.  The cloud path discounts the device's
nominal bandwidth ``b`` by ``gamma``; the edge path rate falls off with
distance as ``lambda_ / dist`` (distance clamped to one meter).  Execution
takes ``delta`` instructions per data unit at the server's clock speed (GHz,
converted to instructions per second).  Device energy is transmission energy
per unit plus execution energy per instruction, both taken from the server
side of the split.

A twin cannot update before its slowest member device has uploaded, so a
twin's synchronization time is the max transmission time over its members.
A twin with ``k`` members refreshes ``k`` times per cycle, which scales its
per-cycle time by ``k``.  The scalar objective mixes total time and total
energy with weight ``alpha``.

A deployment is priced once: per-twin time and energy on every server, built
from one pass over the device matrices and kept on the scenario's device set.
Each per-twin sum is one ``bincount`` over flat ``(owner, server)`` cells,
which adds the devices in device order, as a per-device loop would.  Only
the two ``(num_dts, S+1)`` tables are kept; ``evaluate`` reads one cell of
each per twin and adds the twins in order, so its work grows with the twins,
not the devices.  No price depends on ``alpha``, and a scenario re-weighted
to another alpha shares its device set, so the cost table and ``evaluate``
of every cost mix share one build.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, index

import numpy as np

from .errors import ContractError
from .scenario import Scenario


@dataclass(frozen=True)
class Decision:
    """Dense placement: ``assignment[m]`` is the server index hosting DT m.

    Edge servers occupy indices ``0 .. S-1``; the cloud is index ``S``.
    """

    assignment: tuple[int, ...]


@dataclass(frozen=True)
class CostBreakdown:
    """The two totals behind one scalar cost, and the cost itself."""

    total_time: float
    total_energy: float
    weighted_cost: float


def _device_matrices(s: Scenario):
    """Per-device, per-server transmission time, execution time, and energy.

    Returns ``(tx, ex, en)``, each shaped ``(N, S+1)`` with the cloud in the
    last column.  This is the only place the transmission, execution and
    energy formulas are written; :func:`_pricing` builds every table that
    :func:`evaluate` and :func:`per_dt_cost_table` read from it.
    """
    pool, dev, par = s.servers, s.devices, s.params
    w, loc, b, eloc = dev.workloads, dev.locations, dev.bandwidths, pool.edge_locations
    clocks = np.append(pool.edge_clock_speeds, pool.cloud_clock_speed)

    dist = np.hypot(loc[:, None, 0] - eloc[None, :, 0], loc[:, None, 1] - eloc[None, :, 1])
    dist = np.maximum(dist, 1.0)
    tx = np.empty((len(w), pool.num_edge + 1))
    tx[:, :-1] = w[:, None] / (par.lambda_ / dist)
    tx[:, -1] = w / (b * par.gamma)

    ex = par.delta * w[:, None] / (clocks[None, :] * 1e9)

    en = np.empty_like(tx)
    en[:, :-1] = (pool.edge_tx_energy * w + pool.edge_exec_energy * par.delta * w)[:, None]
    en[:, -1] = pool.cloud_tx_energy * w + pool.cloud_exec_energy * par.delta * w
    return tx, ex, en


def _per_twin_sum(own: np.ndarray, num_dts: int, rows: np.ndarray) -> np.ndarray:
    """Sum ``(N, C)`` device rows per owning twin into ``(num_dts, C)``, in device order."""
    cols = rows.shape[1]
    cells = (own[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(cells, weights=rows.ravel(), minlength=num_dts * cols).reshape(num_dts, cols)


def _per_dt_time(own: np.ndarray, num_dts: int, tx: np.ndarray, ex: np.ndarray):
    """Per-DT per-cycle time on every server, ``(num_dts, S+1)``, from ``(N, S+1)`` device rows."""
    counts = np.bincount(own, minlength=num_dts).astype(float)
    sync = np.zeros((num_dts, tx.shape[1]))
    np.maximum.at(sync, own, tx)
    return counts[:, None] * (sync + _per_twin_sum(own, num_dts, ex))


def _pricing(s: Scenario):
    """Per-DT time and energy ``(num_dts, S+1)``, read-only, and a flat view of each.

    Returns ``(dt_time, dt_energy, times, energies)``: ``times[m * (S+1) + j]``
    is ``dt_time[m, j]`` as a Python float, and likewise for energy.  Kept on
    ``s.devices``, which every alpha re-weight of ``s`` shares, and tagged
    with the other inputs it was built from: the pool by identity, ``gamma``,
    ``lambda_``, ``delta`` and ``num_dts``.  A scenario that differs in any of
    them is priced again and its pricing replaces the kept one; the pricing
    dies with its device set.  It is stored as one tuple, so a concurrent
    caller can at worst build it twice.  Each per-twin sum, of execution time
    and of energy, is one ``bincount`` in device order.
    """
    par = s.params
    constants = (par.gamma, par.lambda_, par.delta, s.num_dts)
    kept = vars(s.devices).get("_pricing")
    if kept is not None and kept[0] is s.servers and kept[1] == constants:
        return kept[2]
    own = s.devices.ownership
    tx, ex, en = _device_matrices(s)
    tables = _per_dt_time(own, s.num_dts, tx, ex), _per_twin_sum(own, s.num_dts, en)
    for table in tables:
        table.flags.writeable = False
    pricing = (*tables, *(memoryview(table.reshape(-1)) for table in tables))
    vars(s.devices)["_pricing"] = (s.servers, constants, pricing)
    return pricing


def evaluate(s: Scenario, d: Decision) -> CostBreakdown:
    """Score one placement decision.

    The caller supplies a scenario that passes :func:`scenario.validate`;
    the decision must hold one in-range integer server, not a bool, per DT.
    """
    m, n = s.num_dts, s.num_servers_total
    if len(d.assignment) != m:
        raise ContractError(f"decision length {len(d.assignment)} differs from num_dts {m}")
    if not all((type(j) is int or isinstance(j, np.integer)) and 0 <= j < n for j in d.assignment):
        raise ContractError(f"server indices must be integers in 0..{n - 1}")
    _, _, times, energies = _pricing(s)
    # Each twin's cell, as a Python int: a narrow NumPy server plus its row offset could wrap.
    cells = list(map(add, range(0, m * n, n), map(index, d.assignment)))
    # Sequential sums of the chosen per-twin cells, in twin order.
    total_time = sum(map(times.__getitem__, cells))
    total_energy = sum(map(energies.__getitem__, cells))
    alpha = s.params.alpha
    weighted = float(alpha * total_time + (1.0 - alpha) * total_energy)
    return CostBreakdown(total_time, total_energy, weighted)


def per_dt_cost_table(s: Scenario) -> np.ndarray:
    """Weighted cost contribution of hosting each DT on each server.

    The objective decomposes per DT, so for any decision ``d`` the scalar
    cost equals ``sum(table[m, d.assignment[m]] for m)`` up to rounding.
    Shaped ``(num_dts, num_servers_total)``; used for the exact optimum and
    for pricing best-of-K proposals.
    """
    dt_time, dt_energy, _, _ = _pricing(s)
    alpha = s.params.alpha
    return alpha * dt_time + (1.0 - alpha) * dt_energy
