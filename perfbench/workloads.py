"""The three benchmark workloads: desk training, full-scale placement, desk reference solving.

Every workload is one client in a closed loop: the next op starts when the
previous one has returned.  Inputs derive from the workload seed only; the
program under test receives them through its public functions.  Ops are
called through the dtplace module attributes (``ddl.infer``, ...) so that a
traced run sees them, while the output checks call the cost model through
names bound here at import time, which tracing never replaces.

* ``train-desk``: one op is one training iteration of
  ``harness.run_training_experiment`` at desk shape with the paper defaults
  (K=12, replay database 1024, batch 128, lr 1e-3), a 256-scenario probe and
  snapshots every 10 iterations, the path of ``dtplace train --probe``.  The
  iteration count is fixed by ``--seconds`` (database fill plus
  ``Sizes.post_fill_per_second`` updating iterations per second), so the trained
  ensemble and its ``quality_gap`` are a function of the seed alone.
* ``place-full``: one op is ``scenario.from_document`` plus ``ddl.infer`` on
  one full-shape document, the path of ``dtplace solve --scheme ddl``, with
  an ensemble trained, saved and reloaded in set-up.
* ``reference-desk``: one op is ``solve_exact`` plus the ro/co/ad baselines
  on one desk scenario, cycling through ``ALPHA_GRID``, the path of
  ``harness.scheme_means`` and ``scripts/landscape_report.py``.
"""

from __future__ import annotations

import array
import dataclasses
import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from dtplace import ddl, exact, harness, scenario
from dtplace.cli import ALPHA_GRID
from dtplace.cost_model import per_dt_cost_table
from dtplace.ddl import TrainConfig
from dtplace.scenario import GeneratorConfig

from spans import TRACED, Tracer

DESK = GeneratorConfig(num_devices=24, num_dts=6, num_edge_servers=3, server_seed=20260816)
FULL = GeneratorConfig(server_seed=1)

SNAPSHOT_CADENCE = 10
REL_TOL = 1e-9
# Consecutive blocks a run's op latencies are split into, about a second each.
BLOCKS = 25

# Ops and set-ups are timed in CPU time of the benchmark's one thread (BLAS
# runs on it too), so time the host gives to other tenants (steal) or to
# other processes does not count; the run's length is kept on the wall clock.
CPU_CLOCK = time.thread_time


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark runs ``Sizes()``, tests a tiny copy."""

    probe: int = 256
    num_dnns: int = 12
    db_capacity: int = 1024
    batch_size: int = 128
    post_fill_per_second: int = 40
    # place-full set-up: a short fixed-seed ensemble trained past its fill
    full_iterations: int = 160
    full_db_capacity: int = 128
    full_batch_size: int = 32
    documents: int = 512
    desk_scenarios: int = 1000
    setups: int = 5


SMOKE = Sizes(
    probe=8, num_dnns=3, db_capacity=16, batch_size=4, post_fill_per_second=10,
    full_iterations=24, full_db_capacity=16, full_batch_size=4,
    documents=4, desk_scenarios=4, setups=2,
)


@dataclasses.dataclass
class Measured:
    """One measured pass: op latencies, correctness counts and output fingerprints.

    ``fingerprints`` holds one entry per input (per iteration on
    ``train-desk``); a later pass given them as ``expected`` counts every op
    whose output differs as failed.
    """

    ops: int
    failed: int
    op_seconds: float
    latencies_ms: array.array
    quality_gap: float
    fingerprints: list


def _relclose(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# ---------------------------------------------------------------- checks


def check_placement(s, result) -> bool:
    """``infer``'s cost equals the cost-table gather of its decision, indices in range."""
    assign = result.decision.assignment
    if len(assign) != s.num_dts or any(not 0 <= a < s.num_servers_total for a in assign):
        return False
    table = per_dt_cost_table(s)
    gathered = float(table[np.arange(s.num_dts), list(assign)].sum())
    return math.isfinite(result.cost.weighted_cost) and _relclose(result.cost.weighted_cost, gathered)


def check_reference(s, exact_result, baselines) -> bool:
    """Exact cost equals the table-argmin optimum; no baseline is cheaper."""
    optimum = float(per_dt_cost_table(s).min(axis=1).sum())
    cost = exact_result.cost.weighted_cost
    if not _relclose(cost, optimum):
        return False
    return all(b.cost.weighted_cost >= cost * (1.0 - REL_TOL) for b in baselines)


def check_iteration(trace, post_fill: bool, num_dnns: int) -> bool:
    """A self-label is a finite positive cost; losses exist exactly once updates run."""
    if not (math.isfinite(trace.chosen_q) and trace.chosen_q > 0):
        return False
    if not 0 <= trace.chosen_dnn < num_dnns or len(trace.losses) != num_dnns:
        return False
    if post_fill:
        return all(math.isfinite(v) for v in trace.losses)
    return all(math.isnan(v) for v in trace.losses)


def check_quality_gap(gap: float) -> bool:
    """Best-of-K over the probe cannot beat the probe's exact optimum."""
    return math.isfinite(gap) and gap >= 1.0 - REL_TOL


# ------------------------------------------------------------- workloads


class TrainDesk:
    name = "train-desk"

    def __init__(self, sizes: Sizes, seed: int, seconds: float):
        self.sizes, self.seed = sizes, seed
        self.iterations = sizes.db_capacity + math.ceil(sizes.post_fill_per_second * seconds)

    def setup(self):
        sz = self.sizes
        probe = harness.make_probe(self.seed + 1, sz.probe, DESK)
        config = TrainConfig(
            iterations=self.iterations, num_dnns=sz.num_dnns, db_capacity=sz.db_capacity,
            batch_size=sz.batch_size, generator=DESK, seed=self.seed,
        )
        return probe, config

    def measure(self, state, seconds=None, count=None, expected=None, pause=None, pauses=0) -> Measured:
        """Run the whole training; ``seconds``/``count`` are fixed by the iteration count.

        ``pause`` runs after ``pauses`` evenly spaced iterations; its time is
        left out of the iteration times and of the op seconds.
        """
        probe, config = state
        stamps: list[float] = []
        paused = [0.0]
        pause_after = {config.iterations * j // (pauses + 1) for j in range(1, pauses + 1)}
        real_train = ddl.train

        def stamped_train(cfg, callback=None):
            def after_iteration(done, ensemble):
                if callback is not None:
                    callback(done, ensemble)
                stamps.append(CPU_CLOCK() - paused[0])
                if pause is not None and done in pause_after:
                    t0 = CPU_CLOCK()
                    pause()
                    paused[0] += CPU_CLOCK() - t0

            return real_train(cfg, callback=after_iteration)

        ddl.train = stamped_train
        try:
            start = CPU_CLOCK()
            (report,) = harness.run_training_experiment(
                [("bench", config)], probe, cadence=SNAPSHOT_CADENCE
            )
            cpu_s = CPU_CLOCK() - start - paused[0]
        finally:
            ddl.train = real_train

        gap = report.eval_points[-1].mean_probe_q / report.scheme_means["exact"]
        first_update = config.db_capacity - 1  # the iteration that fills the database
        failed = sum(
            not check_iteration(t, t.iteration >= first_update, config.num_dnns)
            for t in report.traces
        )
        labels = [t.chosen_q for t in report.traces]
        if expected is not None:
            failed += sum(a != b for a, b in zip(labels, expected)) + abs(len(labels) - len(expected))
        if not check_quality_gap(gap):
            failed = len(report.traces)
        steps = np.diff(stamps) * 1e3
        return Measured(
            ops=len(report.traces),
            failed=failed,
            op_seconds=cpu_s,
            latencies_ms=array.array("d", steps[first_update:]),
            quality_gap=gap,
            fingerprints=labels,
        )


class _LoopWorkload:
    """A pool of inputs cycled op by op until the time is up and every input ran once."""

    def __init__(self, sizes: Sizes, seed: int, seconds: float):
        self.sizes, self.seed = sizes, seed

    @staticmethod
    def optimum(state, k, s) -> float:
        """The per-twin table optimum of input ``k``, computed once per input."""
        if k not in state["optimum"]:
            state["optimum"][k] = float(per_dt_cost_table(s).min(axis=1).sum())
        return state["optimum"][k]

    def op(self, state, k):
        raise NotImplementedError

    def check(self, state, k, output):
        """Return ``(ok, (cost, optimum), fingerprint)`` for one op's output."""
        raise NotImplementedError

    def measure(self, state, seconds=None, count=None, expected=None, pause=None, pauses=0) -> Measured:
        """Cycle the inputs; a repeated input must give its first output again.

        ``pause`` runs ``pauses`` times, evenly spaced over ``seconds``; the
        wall time it takes is added to the run, so the ops still get ``seconds``.
        """
        pool = len(state["inputs"])
        latencies = array.array("d")
        fingerprints = list(expected) if expected is not None else [None] * pool
        failed = 0
        cost_sum = optimum_sum = 0.0
        clock = time.perf_counter
        start = clock()
        ops = paused = 0
        while (ops < count) if count is not None else (ops < pool or clock() - start < seconds):
            if paused < pauses and clock() - start >= (paused + 1) * seconds / (pauses + 1):
                t0 = clock()
                pause()
                paused += 1
                start += clock() - t0
            k = ops % pool
            ops += 1
            t0 = CPU_CLOCK()
            try:
                output = self.op(state, k)
            except Exception:
                if failed == 0:
                    traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            latencies.append((CPU_CLOCK() - t0) * 1e3)
            ok, (cost, optimum), fingerprint = self.check(state, k, output)
            if fingerprints[k] is None:
                fingerprints[k] = fingerprint
            failed += not ok or fingerprint != fingerprints[k]
            if ops <= pool:
                cost_sum += cost
                optimum_sum += optimum
        return Measured(
            ops=ops,
            failed=failed,
            op_seconds=sum(latencies) / 1e3,
            latencies_ms=latencies,
            quality_gap=cost_sum / optimum_sum if optimum_sum > 0 else float("nan"),
            fingerprints=fingerprints,
        )


class PlaceFull(_LoopWorkload):
    name = "place-full"

    def setup(self):
        sz = self.sizes
        seeds = np.random.default_rng(self.seed).integers(0, 2**63 - 1, size=sz.documents)
        documents = [scenario.to_document(scenario.generate_random(int(v), FULL)) for v in seeds]
        config = TrainConfig(
            iterations=sz.full_iterations, num_dnns=sz.num_dnns,
            db_capacity=sz.full_db_capacity, batch_size=sz.full_batch_size,
            generator=FULL, seed=0,
        )
        trained = ddl.train(config).ensemble
        with tempfile.TemporaryDirectory(dir=_out_dir()) as tmp:
            path = os.path.join(tmp, "ensemble.npz")
            ddl.save_ensemble(path, trained)
            ensemble = ddl.load_ensemble(path)
        return {"inputs": documents, "ensemble": ensemble, "optimum": {}}

    def op(self, state, k):
        s = scenario.from_document(state["inputs"][k])
        return s, ddl.infer(state["ensemble"], s)

    def check(self, state, k, output):
        s, result = output
        cost = result.cost.weighted_cost
        fingerprint = (result.decision.assignment, cost)
        return check_placement(s, result), (cost, self.optimum(state, k, s)), fingerprint


class ReferenceDesk(_LoopWorkload):
    name = "reference-desk"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        seeds = rng.integers(0, 2**63 - 1, size=self.sizes.desk_scenarios)
        inputs = []
        for v in seeds:
            s = scenario.generate_random(int(v), DESK)
            for alpha in ALPHA_GRID:
                inputs.append(dataclasses.replace(s, params=dataclasses.replace(s.params, alpha=alpha)))
        ro_seeds = [int(v) for v in rng.integers(0, 2**63 - 1, size=len(inputs))]
        return {"inputs": inputs, "ro_seeds": ro_seeds, "optimum": {}}

    def op(self, state, k):
        s = state["inputs"][k]
        return (
            exact.solve_exact(s),
            exact.scheme_random(s, state["ro_seeds"][k]),
            exact.scheme_cloud_only(s),
            exact.scheme_average_distribution(s),
        )

    def check(self, state, k, output):
        s = state["inputs"][k]
        best, *baselines = output
        ok = check_reference(s, best, baselines)
        fingerprint = tuple((r.decision.assignment, r.cost.weighted_cost) for r in output)
        return ok, (best.cost.weighted_cost, self.optimum(state, k, s)), fingerprint


WORKLOADS = {w.name: w for w in (TrainDesk, PlaceFull, ReferenceDesk)}


# ---------------------------------------------------------------- metrics


def _out_dir() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(path, exist_ok=True)
    return path


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sustained(latencies_ms, stat) -> float:
    """``stat`` of each of the run's ``BLOCKS`` consecutive blocks, at the 90th percentile over blocks.

    Other tenants of the host make it run either at full speed or about 1.6
    times slower, switching within seconds or holding one state for minutes.
    A whole-run mean or median follows the share of time spent slow, which
    differs from run to run; the value nine blocks in ten stay within is the
    program's speed in the usual, slower state, and holds as long as a run
    spends a tenth of its time in that state.  A change in the program moves
    every block alike.
    """
    parts = [b for b in np.array_split(np.asarray(latencies_ms), BLOCKS) if b.size]
    return float(np.percentile([stat(b) for b in parts], 90))


def tail_ms(latencies_ms, blocks: int = 5) -> float:
    """Median over consecutive fifths of the run of each fifth's p95.

    The box's speed swings for seconds at a time; one slow stretch moves a
    single fifth, not the median of five.  The p99 is left out: other
    tenants' bursts set it, and it doubled between runs of unchanged code.
    """
    parts = [b for b in np.array_split(np.asarray(latencies_ms), blocks) if b.size]
    return float(np.median([np.percentile(b, 95) for b in parts]))


def end_to_end(measured: Measured, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e3 / sustained(measured.latencies_ms, np.mean), "1/s"),
        "p50_ms": (sustained(measured.latencies_ms, np.median), "ms"),
        "p95_ms": (tail_ms(measured.latencies_ms), "ms"),
        "quality_gap": (measured.quality_gap, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# Spans read from the set-up phase; every other layer is read from the measured run.
SETUP_LAYERS = ("ddl.save_ensemble", "ddl.load_ensemble")
# Spans under the best-of-K choice: training's ``_choose`` runs inside ``ddl.train``.
CHOICE_PARENTS = ("ddl.best_of_k", "ddl.train")


def per_layer(tracer: Tracer, overhead_ratio: float) -> dict:
    """``<module>.<function>.{calls,self_s}`` for every traced layer, plus two ratios.

    ``neural.forward`` is split by caller: ``in_propose`` under
    ``ddl.propose_batch``, ``in_update`` elsewhere (the replay update).
    """
    layers: dict[str, list] = {}
    for name in TRACED:
        if name == "neural.forward":
            layers["neural.forward.in_update"] = [0, 0.0]
            layers["neural.forward.in_propose"] = [0, 0.0]
        else:
            layers[name] = [0, 0.0]
    evaluations = choices = 0
    for (phase, name, parent), (calls, self_s) in tracer.totals().items():
        if phase != ("setup" if name in SETUP_LAYERS else "run"):
            continue
        if name == "neural.forward":
            name += ".in_propose" if parent == "ddl.propose_batch" else ".in_update"
        layers[name][0] += calls
        layers[name][1] += self_s
        if parent in CHOICE_PARENTS:
            evaluations += calls if name == "cost_model.evaluate" else 0
            choices += calls if name == "ddl.raw_group_input" else 0
    out = {}
    for name, (calls, self_s) in layers.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    out["ddl.distinct_per_choice"] = (evaluations / choices if choices else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


# -------------------------------------------------------------------- runs


def _setup(workload):
    """One set-up from a collected heap, and its CPU seconds."""
    gc.collect()
    start = CPU_CLOCK()
    state = workload.setup()
    return state, CPU_CLOCK() - start


def import_seconds() -> float:
    """CPU seconds a fresh interpreter takes to start and import the benchmark and the program."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddl.__file__)))
    code = f"import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def run_untraced(workload, import_s: float, seconds: float):
    """Measure with tracing off; ``setup_s`` is the median import plus the median set-up.

    There are ``sizes.setups`` set-ups and as many imports: the first of each
    before the ops (the import being this process's own), the others in
    pauses spread over the measured run, so that set-up time is sampled
    across the host's speed swings as the ops are.  A paused set-up's state
    is thrown away.
    """
    imports = [import_s]
    state, took = _setup(workload)
    setups = [took]

    def pause():
        setups.append(_setup(workload)[1])
        imports.append(import_seconds())
        gc.collect()

    gc.collect()
    measured = workload.measure(state, seconds=seconds, pause=pause, pauses=workload.sizes.setups - 1)
    setup_s = statistics.median(imports) + statistics.median(setups)
    return measured.ops, measured.failed, end_to_end(measured, setup_s)


def run_traced(workload, seconds: float, path=None, header=None):
    """Measure untraced, then replay the same ops traced and compare outputs.

    The replay runs on a fresh set-up, because the program caches work on
    its inputs (a probe keeps its scheme means and encoded inputs).  An op
    whose output differs from the untraced pass counts as failed, which
    shows the wrappers change no result.
    """
    tracer = Tracer()
    with tracer.installed("setup"):
        state = workload.setup()
    gc.collect()
    plain = workload.measure(state, seconds=seconds)
    state = None
    state, _ = _setup(workload)
    gc.collect()
    with tracer.installed("run"):
        traced = workload.measure(state, count=plain.ops, expected=plain.fingerprints)
    if path is not None:
        tracer.write(path, header or {})
    attempted = plain.ops + traced.ops
    failed = plain.failed + traced.failed
    return attempted, failed, per_layer(tracer, traced.op_seconds / plain.op_seconds)


def trace_path(workload_name: str, seed: int) -> str:
    return os.path.join(_out_dir(), f"spans-{workload_name}-seed{seed}.csv")
