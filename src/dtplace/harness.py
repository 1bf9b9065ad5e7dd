"""Experiment drivers: frozen probe sets, convergence tracking, scheme comparison.

Every comparison in this package runs against a ProbeSet: a fixed batch of
random scenarios, generated once and shared by all configurations under
test, so curves differ only because the thing being varied differs.  One
scenario-major pass prices a probe: it builds the per-DT cost tables and
runs the four non-learning schemes, keeping only their means.  Snapshots
and the comparison's ddl row price an ensemble with one ``ddl.choose``
call over the probe, the best-of-K choice that training makes.

``run_training_experiment`` trains grid points one after another.  Given a
probe, it snapshots the probe costs on a fixed cadence and reports the
convergence rate between consecutive snapshots: mean over scenarios of
min/max of the two costs, which is 1 exactly when the chosen decisions'
costs have stopped moving.  Scheme comparison re-weights the same probe to
each alpha it has an ensemble for, reads that copy's baselines and prices
the ensemble on it.  A re-weighted copy is a plain probe that shares the
scenarios' device sets, and with them their pricing, but prices its own
baselines and encodes its own inputs.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import ddl
from .ddl import DdlEnsemble, TrainConfig
from .errors import ContractError
from .exact import (
    scheme_average_distribution,
    scheme_cloud_only,
    scheme_random,
    solve_exact,
)
from .cost_model import Decision, evaluate, per_dt_cost_table
from .scenario import GeneratorConfig, generate_random

# The convergence rate from which a run counts as converged.
CONVERGED = 0.99


@dataclass(frozen=True, eq=False)
class ProbeSet:
    """Immutable evaluation set shared by every configuration in one study."""

    scenarios: tuple
    seed: int

    def __getstate__(self):  # copies and pickles rebuild the caches below on first use
        return {"scenarios": self.scenarios, "seed": self.seed}

    def __len__(self) -> int:
        return len(self.scenarios)

    @functools.cached_property
    def raw_inputs(self) -> np.ndarray:
        """Stacked network inputs, read-only, encoded on first use.

        Callers that only price the baselines never encode.
        """
        raw = np.stack([ddl.raw_group_input(s) for s in self.scenarios])
        raw.flags.writeable = False
        return raw

    @functools.cached_property
    def _priced(self) -> tuple:
        # Scenario-major, so each scenario is priced once for its table and all four
        # schemes.  The random scheme's seeds come from the probe's own seed.
        ro_seeds = np.random.default_rng(self.seed).integers(0, 2**63 - 1, size=len(self))
        tables, *runs = zip(*(
            (per_dt_cost_table(s), solve_exact(s), scheme_random(s, seed),
             scheme_cloud_only(s), scheme_average_distribution(s))
            for s, seed in zip(self.scenarios, ro_seeds.tolist())
        ))
        tables = np.stack(tables)
        tables.flags.writeable = False
        return tables, {
            name: (*_means([r.cost for r in results]), sum(r.elapsed for r in results))
            for name, results in zip(("exact", "ro", "co", "ad"), runs)
        }

    @property
    def tables(self) -> np.ndarray:
        """Per-DT cost tables of all scenarios, read-only, shape (count, num_dts, num_servers)."""
        return self._priced[0]

    @property
    def baselines(self) -> dict:
        """Scheme name -> its ``(mean_q, mean_t, mean_e, elapsed)`` over the scenarios.

        ``elapsed`` sums the scheme's per-call times.
        """
        return self._priced[1]


def make_probe(seed: int, count: int, generator: GeneratorConfig) -> ProbeSet:
    """Freeze ``count`` scenarios from seeds ``seed .. seed+count-1``."""
    if count < 1:
        raise ContractError("probe count must be at least 1")
    return ProbeSet(tuple(generate_random(seed + i, generator) for i in range(count)), seed)


def with_alpha(probe: ProbeSet, alpha: float) -> ProbeSet:
    """The same scenarios and seed under a different time/energy mix.

    ``probe`` itself comes back when all its scenarios already use ``alpha``,
    so grid points at the probe's own alpha share its pricing and encoding.
    Otherwise each call builds a new probe whose scenarios share the
    originals' device sets and server pools, and with them their pricing.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must lie in [0, 1], got {alpha}")
    if all(s.params.alpha == alpha for s in probe.scenarios):
        return probe
    mix = [dataclasses.replace(s.params, alpha=alpha) for s in probe.scenarios]
    scenarios = tuple(dataclasses.replace(s, params=p) for s, p in zip(probe.scenarios, mix))
    return ProbeSet(scenarios, probe.seed)


def ensemble_probe_costs(ensemble: DdlEnsemble, probe: ProbeSet) -> np.ndarray:
    """Best-of-K weighted cost on every probe scenario, one value per scenario."""
    return ddl.choose(ensemble, probe.tables, probe.raw_inputs)[2]


def convergence_rate(old_costs, new_costs) -> float:
    """Mean elementwise min/max ratio of two positive cost vectors, in (0, 1]."""
    old = np.asarray(old_costs, dtype=float)
    new = np.asarray(new_costs, dtype=float)
    if old.ndim != 1 or old.shape != new.shape:
        raise ContractError("cost vectors must be 1-D and equally long")
    if old.size == 0:
        raise ContractError("cost vectors must be nonempty")
    if np.any(old <= 0) or np.any(new <= 0):
        raise ContractError("costs must be positive")
    return float(np.mean(np.minimum(old, new) / np.maximum(old, new)))


def scheme_means(probe: ProbeSet) -> dict[str, float]:
    """Mean weighted cost of each non-learning scheme over the probe set, priced once per probe."""
    return {name: means[0] for name, means in probe.baselines.items()}


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

    def iterations_to_converge(self) -> int | None:
        """First snapshot at/after database fill from which C stays >= ``CONVERGED``.

        Snapshots taken while the database is still filling are skipped:
        weights are frozen there, so their C is 1.0 vacuously.
        """
        pts = [
            p
            for p in self.eval_points
            if p.iteration >= self.config.db_capacity and not math.isnan(p.convergence)
        ]
        for i, p in enumerate(pts):
            if all(q.convergence >= CONVERGED for q in pts[i:]):
                return p.iteration
        return None


def _run_grid_point(label, config, cadence, probe) -> ExperimentReport:
    if probe is not None:
        probe = with_alpha(probe, config.generator.alpha)
    means = {} if probe is None else scheme_means(probe)
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
        result = ddl.train(config, callback=None if probe is None else snapshot)
    except Exception as e:
        e.args = (f"grid point {label!r}: {e}",)
        raise
    return ExperimentReport(
        label=label,
        config=config,
        eval_points=tuple(points),
        traces=tuple(result.traces),
        ensemble=result.ensemble,
        scheme_means=means,
        elapsed=time.perf_counter() - start,
    )


def run_training_experiment(grid, probe: ProbeSet | None, cadence: int = 10) -> list[ExperimentReport]:
    """Train one fresh ensemble per ``(label, TrainConfig)`` grid point, in grid order.

    Each grid point is scored on the probe re-weighted to its own
    ``generator.alpha``.  Probe costs are snapshotted before training, then
    after every ``cadence``-th iteration and at the end; ``cadence=1``
    evaluates after every iteration.  With ``probe=None`` nothing is scored:
    each report has no eval points and empty scheme means.
    """
    grid = list(grid)
    if not grid:
        raise ContractError("experiment grid must be nonempty")
    if cadence < 1:
        raise ContractError("cadence must be at least 1")
    return [_run_grid_point(label, config, cadence, probe) for label, config in grid]


@dataclass(frozen=True)
class ComparisonRow:
    alpha: float
    scheme: str
    mean_q: float
    mean_t: float
    mean_e: float
    elapsed: float


def run_comparison(probe: ProbeSet, ensembles: dict) -> list:
    """Price every scheme at each alpha of ``ensembles`` on the re-weighted probe.

    ``ensembles`` maps each alpha to the ensemble trained under that alpha;
    a network learned labels for one cost mix, so mixes are not interchangeable.
    Baseline rows read the re-weighted probe's pass, and their ``elapsed``
    sums the scheme's per-call times.  The ddl row makes one best-of-K choice
    over the probe and evaluates each winner; its ``elapsed`` times both.
    Rows come out grouped by alpha in the map's order, each group in the
    order exact, ro, co, ad, ddl.
    """
    if not ensembles:
        raise ContractError("no trained ensemble supplied")
    rows: list[ComparisonRow] = []
    for alpha, ensemble in ensembles.items():
        at = with_alpha(probe, alpha)
        rows.extend(ComparisonRow(alpha, name, *means) for name, means in at.baselines.items())
        tables, raw = at.tables, at.raw_inputs  # priced and encoded before the timing starts
        start = time.perf_counter()
        _, codes, _ = ddl.choose(ensemble, tables, raw)
        costs = [evaluate(s, Decision(tuple(c))) for s, c in zip(at.scenarios, codes.tolist())]
        rows.append(ComparisonRow(alpha, "ddl", *_means(costs), time.perf_counter() - start))
    return rows


def _means(costs: list) -> tuple:
    """Mean weighted cost, time and energy of ``CostBreakdown``s, each ``np.mean`` of a list."""
    fields = ("weighted_cost", "total_time", "total_energy")
    return tuple(float(np.mean([getattr(c, f) for c in costs])) for f in fields)


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
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
