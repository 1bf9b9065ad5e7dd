"""Experiment drivers: frozen probe sets, convergence tracking, scheme comparison.

Every comparison in this package runs against a ProbeSet: a fixed batch of
random scenarios, generated once and shared by all configurations under
test, so curves differ only because the thing being varied differs.  Probe
scoring goes through the per-DT cost tables, which lets one snapshot of a
K-network ensemble be priced on hundreds of scenarios with a single gather
instead of per-scenario evaluate calls.

Training experiments snapshot the probe costs on a fixed cadence and report
the convergence rate between consecutive snapshots: mean over scenarios of
min/max of the two costs, which is 1 exactly when the chosen decisions'
costs have stopped moving.  Scheme comparison re-weights the same probe at
each requested alpha and prices every baseline plus one trained ensemble
per alpha.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ddl
from .ddl import DdlEnsemble, TrainConfig
from .errors import ContractError, DomainError
from .exact import (
    scheme_average_distribution,
    scheme_cloud_only,
    scheme_random,
    solve_exact,
)
from .cost_model import per_dt_cost_table
from .scenario import GeneratorConfig, generate_random


@dataclass(frozen=True, eq=False)
class ProbeSet:
    """Immutable evaluation set shared by every configuration in one study.

    ``tables`` stacks the per-DT cost tables of all scenarios, shape
    (count, num_dts, num_servers).
    """

    scenarios: tuple
    seed: int
    tables: np.ndarray

    def __len__(self) -> int:
        return len(self.scenarios)

    @functools.cached_property
    def raw_inputs(self) -> np.ndarray:
        """Stacked network inputs, encoded on first use.

        Callers that only price the baselines never encode.
        """
        return np.stack([ddl.raw_group_input(s) for s in self.scenarios])

    @functools.cached_property
    def _scheme_means(self) -> dict[str, float]:
        # Scenario-major, so each scenario is priced once for all four schemes.
        runners = _baseline_runners(self)
        costs = {name: [] for name, _ in runners}
        for i, s in enumerate(self.scenarios):
            for name, solve in runners:
                costs[name].append(solve(s, i).cost.weighted_cost)
        return {name: float(np.mean(c)) for name, c in costs.items()}


def make_probe(seed: int, count: int, generator: GeneratorConfig) -> ProbeSet:
    """Freeze ``count`` scenarios from seeds ``seed .. seed+count-1``."""
    if count < 1:
        raise ContractError("probe count must be at least 1")
    scenarios = tuple(generate_random(seed + i, generator) for i in range(count))
    tables = np.stack([per_dt_cost_table(s) for s in scenarios])
    return ProbeSet(scenarios=scenarios, seed=seed, tables=tables)


def ensemble_probe_costs(ensemble: DdlEnsemble, probe: ProbeSet) -> np.ndarray:
    """Best-of-K weighted cost on every probe scenario, one value per scenario."""
    codes = ddl.propose_batch(ensemble, probe.raw_inputs)
    return ddl.proposal_costs(probe.tables, codes).min(axis=1)


def convergence_rate(old_costs, new_costs) -> float:
    """Mean elementwise min/max ratio of two positive cost vectors, in (0, 1]."""
    old = np.asarray(old_costs, dtype=float)
    new = np.asarray(new_costs, dtype=float)
    if old.ndim != 1 or old.shape != new.shape:
        raise DomainError("cost vectors must be 1-D and equally long")
    if old.size == 0:
        raise DomainError("cost vectors must be nonempty")
    if np.any(old <= 0) or np.any(new <= 0):
        raise DomainError("costs must be positive")
    return float(np.mean(np.minimum(old, new) / np.maximum(old, new)))


def _baseline_runners(probe: ProbeSet) -> list:
    """The non-learning schemes as ``(name, solve(scenario, index))`` pairs.

    The random scheme draws one seed per scenario from the probe's own seed,
    so every caller prices the same random decisions.
    """
    ro_seeds = np.random.default_rng(probe.seed).integers(0, 2**63 - 1, size=len(probe))
    return [
        ("exact", lambda s, i: solve_exact(s)),
        ("ro", lambda s, i: scheme_random(s, int(ro_seeds[i]))),
        ("co", lambda s, i: scheme_cloud_only(s)),
        ("ad", lambda s, i: scheme_average_distribution(s)),
    ]


def scheme_means(probe: ProbeSet) -> dict[str, float]:
    """Mean weighted cost of each non-learning scheme over the probe set, computed once per probe."""
    return dict(probe._scheme_means)


@dataclass(frozen=True)
class EvalPoint:
    """Probe snapshot after ``iteration`` training iterations.

    ``convergence`` compares against the previous snapshot and is NaN for
    the first one, which has nothing to compare against.
    """

    iteration: int
    convergence: float
    mean_probe_q: float


@dataclass
class ExperimentReport:
    """One grid point's outcome: probe series, raw traces, and context."""

    label: str
    config: TrainConfig
    eval_points: tuple
    traces: tuple
    ensemble: DdlEnsemble
    scheme_means: dict
    elapsed: float

    def iterations_to_converge(self, threshold: float = 0.99) -> int | None:
        """First snapshot at/after database fill from which C stays >= threshold.

        Snapshots taken while the database is still filling are skipped:
        weights are frozen there, so their C is 1.0 vacuously.
        """
        pts = [
            p
            for p in self.eval_points
            if p.iteration >= self.config.db_capacity and not math.isnan(p.convergence)
        ]
        for i, p in enumerate(pts):
            if all(q.convergence >= threshold for q in pts[i:]):
                return p.iteration
        return None


def _run_grid_point(label, config, cadence, probe, means) -> ExperimentReport:
    start = time.perf_counter()
    points: list[EvalPoint] = []
    prev = None

    def snapshot(done: int, ens: DdlEnsemble) -> None:
        nonlocal prev
        if done % cadence != 0 and done != config.iterations:
            return
        costs = ensemble_probe_costs(ens, probe)
        c = float("nan") if prev is None else convergence_rate(prev, costs)
        points.append(EvalPoint(done, c, float(costs.mean())))
        prev = costs

    try:
        result = ddl.train(config, callback=snapshot)
    except Exception as e:
        e.args = (f"grid point {label!r}: {e}",)
        raise
    return ExperimentReport(
        label=label,
        config=config,
        eval_points=tuple(points),
        traces=tuple(result.traces),
        ensemble=result.ensemble,
        scheme_means=dict(means),
        elapsed=time.perf_counter() - start,
    )


def run_training_experiment(
    grid, probe: ProbeSet, cadence: int = 10, threads: int = 1
) -> list[ExperimentReport]:
    """Train one fresh ensemble per ``(label, TrainConfig)`` grid point.

    Each grid point is scored on the probe re-weighted to its own
    ``generator.alpha``.  Probe costs are snapshotted before training, then
    after every ``cadence``-th iteration and at the end; ``cadence=1``
    evaluates after every iteration.  Grid points are independent, so
    ``threads > 1`` runs them in a thread pool; report order always follows
    grid order.
    """
    grid = list(grid)
    if not grid:
        raise ContractError("experiment grid must be nonempty")
    if cadence < 1:
        raise ContractError("cadence must be at least 1")
    if threads < 1:
        raise ContractError("threads must be at least 1")
    scored = {}  # alpha -> (probe, scheme means), filled before any thread starts
    for _, config in grid:
        alpha = config.generator.alpha
        if alpha not in scored:
            at = probe if probe.scenarios[0].params.alpha == alpha else with_alpha(probe, alpha)
            at.raw_inputs  # encode once, outside the threads
            scored[alpha] = (at, scheme_means(at))
    jobs = [(lb, cf, cadence, *scored[cf.generator.alpha]) for lb, cf in grid]
    if threads == 1 or len(grid) == 1:
        return [_run_grid_point(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda job: _run_grid_point(*job), jobs))


@dataclass(frozen=True)
class ComparisonRow:
    alpha: float
    scheme: str
    mean_q: float
    mean_t: float
    mean_e: float
    elapsed: float


def _reweighted(scenarios, alpha: float) -> tuple:
    return tuple(
        dataclasses.replace(s, params=dataclasses.replace(s.params, alpha=alpha))
        for s in scenarios
    )


def with_alpha(probe: ProbeSet, alpha: float) -> ProbeSet:
    """The same scenarios under a different time/energy mix."""
    scenarios = _reweighted(probe.scenarios, alpha)
    tables = np.stack([per_dt_cost_table(s) for s in scenarios])
    return ProbeSet(scenarios=scenarios, seed=probe.seed, tables=tables)


def _comparison_rows(probe: ProbeSet, alpha: float, ensemble: DdlEnsemble) -> list:
    scenarios = _reweighted(probe.scenarios, alpha)
    runners = _baseline_runners(probe) + [("ddl", lambda s, i: ddl.infer(ensemble, s))]
    rows = []
    for name, solve in runners:
        start = time.perf_counter()
        results = [solve(s, i) for i, s in enumerate(scenarios)]
        rows.append(
            ComparisonRow(
                alpha=alpha,
                scheme=name,
                mean_q=float(np.mean([r.cost.weighted_cost for r in results])),
                mean_t=float(np.mean([r.cost.total_time for r in results])),
                mean_e=float(np.mean([r.cost.total_energy for r in results])),
                elapsed=time.perf_counter() - start,
            )
        )
    return rows


def run_comparison(probe: ProbeSet, alphas, ensembles: dict) -> list:
    """Price every scheme at every alpha on the re-weighted probe.

    ``ensembles`` maps each alpha to the ensemble trained under that alpha;
    a network learned labels for one cost mix, so mixes are not interchangeable.
    Rows come out grouped by alpha in the order exact, ro, co, ad, ddl.
    """
    alphas = list(alphas)
    if not alphas:
        raise ContractError("alphas must be nonempty")
    missing = [a for a in alphas if a not in ensembles]
    if missing:
        raise ContractError(f"no trained ensemble supplied for alpha={missing[0]}")
    rows: list[ComparisonRow] = []
    for alpha in alphas:
        rows.extend(_comparison_rows(probe, alpha, ensembles[alpha]))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    value = float(value)
    return "" if math.isnan(value) else repr(value)


def write_trace_csv(path, report: ExperimentReport) -> None:
    """One row per training iteration, merged with the probe snapshots.

    The iteration-0 row carries only the pre-training snapshot; iterations
    between snapshots leave the probe columns empty, and losses are empty
    until the replay database fills.  Floats are written with repr so two
    identical runs emit byte-identical files.
    """
    k = report.config.num_dnns
    snapshots = {p.iteration: p for p in report.eval_points}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "chosen_q", "chosen_dnn", "convergence", "mean_probe_q"]
            + [f"loss_{i}" for i in range(k)]
        )
        if 0 in snapshots:
            p = snapshots[0]
            writer.writerow(["0", "", "", _cell(p.convergence), _cell(p.mean_probe_q)] + [""] * k)
        for t in report.traces:
            p = snapshots.get(t.iteration)
            writer.writerow(
                [
                    str(t.iteration),
                    _cell(t.chosen_q),
                    str(t.chosen_dnn),
                    _cell(p.convergence) if p else "",
                    _cell(p.mean_probe_q) if p else "",
                ]
                + [_cell(loss) for loss in t.losses]
            )


def write_comparison_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "scheme", "mean_q", "mean_t", "mean_e", "elapsed"])
        for r in rows:
            writer.writerow(
                [
                    repr(float(r.alpha)),
                    r.scheme,
                    repr(float(r.mean_q)),
                    repr(float(r.mean_t)),
                    repr(float(r.mean_e)),
                    repr(float(r.elapsed)),
                ]
            )


def write_config_sidecar(path, config: TrainConfig, extra: dict | None = None) -> None:
    """JSON snapshot of everything needed to reproduce the file next to it."""
    doc = dataclasses.asdict(config)
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
