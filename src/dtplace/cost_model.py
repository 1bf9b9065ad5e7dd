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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    energy formulas are written; :func:`evaluate` and
    :func:`per_dt_cost_table` both read their device costs from it.
    """
    pool, par = s.servers, s.params
    w, loc, b, _ = s.devices.arrays
    clocks, eloc = pool.arrays

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


def _per_dt_time(own: np.ndarray, num_dts: int, tx: np.ndarray, ex: np.ndarray):
    """Per-DT per-cycle time from per-device rows.

    ``tx`` and ``ex`` hold one row per device: shaped ``(N, S+1)`` with
    every server for the cost table, or ``(N,)`` with each device's chosen
    server for :func:`evaluate`.  The result is shaped ``(num_dts, S+1)``
    or ``(num_dts,)`` to match.
    """
    shape = (num_dts,) + tx.shape[1:]
    counts = np.bincount(own, minlength=num_dts).astype(float)
    sync = np.zeros(shape)
    np.maximum.at(sync, own, tx)
    exec_sum = np.zeros(shape)
    np.add.at(exec_sum, own, ex)
    # one count per DT, broadcast over the server columns if there are any
    return counts.reshape(-1, *[1] * (tx.ndim - 1)) * (sync + exec_sum)


def evaluate(s: Scenario, d: Decision) -> CostBreakdown:
    """Score one placement decision.

    The caller supplies a scenario that passes :func:`scenario.validate`;
    assignment length and server indices are checked here.
    """
    m = s.num_dts
    if len(d.assignment) != m:
        raise ContractError(
            f"decision length {len(d.assignment)} differs from num_dts {m}"
        )
    assign = np.asarray(d.assignment, dtype=int)
    if assign.size and (assign.min() < 0 or assign.max() >= s.num_servers_total):
        raise ContractError("server index out of range in decision")

    own = s.devices.arrays.owner
    tx_all, ex_all, en_all = _device_matrices(s)
    # Gather each device's chosen column and aggregate in 1-D, then sum
    # sequentially: summing the table's per-twin energies instead would move
    # the last bit of totals that training traces record.
    chosen = assign[own]
    rows = np.arange(own.size)
    dt_time = _per_dt_time(own, m, tx_all[rows, chosen], ex_all[rows, chosen])
    total_time = float(sum(dt_time.tolist()))
    total_energy = float(sum(en_all[rows, chosen].tolist()))
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
    own = s.devices.arrays.owner
    tx, ex, en = _device_matrices(s)
    dt_time = _per_dt_time(own, s.num_dts, tx, ex)
    energy_sum = np.zeros_like(dt_time)
    np.add.at(energy_sum, own, en)
    alpha = s.params.alpha
    return alpha * dt_time + (1.0 - alpha) * energy_sum
