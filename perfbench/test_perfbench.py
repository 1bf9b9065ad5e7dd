"""Tests of the benchmark itself, at a smoke size that finishes in seconds."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run

run.use_repo_source()

import spans  # noqa: E402
import workloads  # noqa: E402
from dtplace import ddl, exact, scenario  # noqa: E402
from dtplace.cost_model import Decision  # noqa: E402

SPEC = json.loads(open(os.path.join(run.ROOT, "BENCHMARK.json")).read())
SECONDS = 0.05

# Layers each workload exists to exercise, and layers it must never touch,
# as predicted when the benchmark was defined.
FIRES = {
    "train-desk": [
        "neural.forward.in_update", "neural.backward", "neural.backward_from_output",
        "neural.adam_step", "scenario.generate_random", "ddl.raw_group_input",
        "ddl.ReplayDatabase.insert", "ddl.ReplayDatabase.sample", "ddl.propose_batch",
        "cost_model.evaluate", "harness.ensemble_probe_costs", "harness.scheme_means",
    ],
    "place-full": [
        "neural.forward.in_propose", "ddl.propose_batch", "ddl.best_of_k", "ddl.infer",
        "cost_model.evaluate", "scenario.from_document", "ddl.raw_group_input",
        "ddl.save_ensemble", "ddl.load_ensemble",
    ],
    "reference-desk": [
        "exact.solve_exact", "cost_model.per_dt_cost_table", "exact.baselines",
        "cost_model.evaluate",
    ],
}
SILENT = {
    "train-desk": ["ddl.infer", "scenario.from_document"],
    "place-full": [
        "exact.solve_exact", "neural.backward", "neural.backward_from_output",
        "neural.adam_step", "neural.forward.in_update",
    ],
    "reference-desk": [
        "neural.forward.in_update", "neural.forward.in_propose", "neural.backward",
        "neural.backward_from_output", "neural.adam_step", "ddl.propose_batch",
    ],
}


def _run(name, traced):
    workload = workloads.WORKLOADS[name](workloads.SMOKE, 7, SECONDS)
    start = time.perf_counter()
    if traced:
        result = workloads.run_traced(workload, SECONDS)
    else:
        result = workloads.run_untraced(workload, 0.0, SECONDS)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def smoke():
    return {(name, traced): _run(name, traced) for name in workloads.WORKLOADS for traced in (0, 1)}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_emitted_with_its_unit(smoke, name, traced):
    (attempted, failed, metrics), elapsed = smoke[(name, traced)]
    spec = SPEC["per_layer" if traced else "end_to_end"]
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in spec}
    assert attempted >= 1 and failed == 0
    assert elapsed < 60.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_predicted_layers_fire_and_others_stay_silent(smoke, name):
    (_, _, metrics), _ = smoke[(name, 1)]
    for layer in FIRES[name]:
        assert metrics[f"{layer}.calls"][0] > 0, layer
    for layer in SILENT[name]:
        assert metrics[f"{layer}.calls"][0] == 0, layer


def test_end_to_end_metrics_are_positive(smoke):
    for name in workloads.WORKLOADS:
        (_, _, metrics), _ = smoke[(name, 0)]
        assert all(v > 0 for v, _ in metrics.values()), name


def _desk(seed=3):
    return scenario.generate_random(seed, workloads.DESK)


def test_placement_checker_rejects_wrong_decisions():
    s = _desk()
    good = exact.scheme_cloud_only(s)
    assert workloads.check_placement(s, good)
    other = [0] * s.num_dts
    wrong_cost = dataclasses.replace(good, decision=Decision(tuple(other)))
    assert not workloads.check_placement(s, wrong_cost)
    out_of_range = dataclasses.replace(good, decision=Decision((s.num_servers_total,) * s.num_dts))
    assert not workloads.check_placement(s, out_of_range)
    too_short = dataclasses.replace(good, decision=Decision((0,) * (s.num_dts - 1)))
    assert not workloads.check_placement(s, too_short)


def test_reference_checker_rejects_wrong_decisions():
    s = _desk()
    best = exact.solve_exact(s)
    baselines = [exact.scheme_cloud_only(s), exact.scheme_average_distribution(s)]
    assert workloads.check_reference(s, best, baselines)
    worse = max(baselines, key=lambda r: r.cost.weighted_cost)
    assert worse.cost.weighted_cost > best.cost.weighted_cost
    assert not workloads.check_reference(s, worse, baselines)
    cheaper = dataclasses.replace(
        best, cost=dataclasses.replace(best.cost, weighted_cost=0.5 * best.cost.weighted_cost)
    )
    assert not workloads.check_reference(s, best, baselines + [cheaper])


def test_training_checkers_reject_wrong_labels():
    ok = ddl.TrainingTrace(5, 1.0, 0, (0.5, 0.25))
    assert workloads.check_iteration(ok, True, 2)
    assert not workloads.check_iteration(dataclasses.replace(ok, chosen_q=float("nan")), True, 2)
    assert not workloads.check_iteration(dataclasses.replace(ok, chosen_q=-1.0), True, 2)
    assert not workloads.check_iteration(dataclasses.replace(ok, chosen_dnn=2), True, 2)
    assert not workloads.check_iteration(ok, False, 2)
    assert workloads.check_quality_gap(1.03)
    assert not workloads.check_quality_gap(0.9)
    assert not workloads.check_quality_gap(float("inf"))


def test_loop_counts_failed_checks_and_raised_ops():
    class Wrong(workloads.PlaceFull):
        def op(self, state, k):
            s, result = super().op(state, k)
            if k == 0:
                raise RuntimeError("deliberate")
            shifted = [(a + 1) % s.num_servers_total for a in result.decision.assignment]
            return s, dataclasses.replace(result, decision=Decision(tuple(shifted)))

    workload = Wrong(workloads.SMOKE, 7, SECONDS)
    measured = workload.measure(workload.setup(), count=6)
    assert measured.ops == 6
    assert measured.failed == 6


def test_a_changed_output_counts_as_failed():
    workload = workloads.ReferenceDesk(workloads.SMOKE, 7, SECONDS)
    first = workload.measure(workload.setup(), count=40)
    assert first.failed == 0
    wrong = [((0,) * 6, 1.0)] + first.fingerprints[1:]
    again = workload.measure(workload.setup(), count=40, expected=wrong)
    assert again.failed == 40 // len(wrong)


def test_tracer_restores_every_binding():
    def bindings():
        out = {}
        for name in spans.LOOKUP_MODULES:
            module = spans._resolve(name)
            out.update({(name, k): v for k, v in vars(module).items() if callable(v)})
        for owner in ("neural.MlpModel", "ddl.ReplayDatabase"):
            out.update({(owner, k): v for k, v in vars(spans._resolve(owner)).items()})
        return out

    before = bindings()
    tracer = spans.Tracer()
    with tracer.installed("run"):
        assert ddl.evaluate is not before[("ddl", "evaluate")]
        assert exact.evaluate is not before[("exact", "evaluate")]
        exact.solve_exact(_desk())
    assert bindings() == before
    names = {name for _, name, _, _, _ in tracer.spans}
    assert {"exact.solve_exact", "cost_model.per_dt_cost_table", "cost_model.evaluate"} <= names


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans[:] = [(-1, "a", "run", 0.0, 10.0), (0, "b", "run", 1.0, 4.0), (0, "b", "run", 5.0, 6.0)]
    totals = tracer.totals()
    assert totals[("run", "a", "")] == [1, 6.0]
    assert totals[("run", "b", "a")] == [2, 4.0]


def test_tail_ignores_one_slow_fifth():
    steady = [1.0] * 500
    burst = [1.0] * 400 + [9.0] * 100
    assert workloads.tail_ms(burst) == workloads.tail_ms(steady) == 1.0


def test_sustained_reads_the_slower_state():
    slow = [2.0] * 1000
    mostly_fast = [1.0] * 750 + [2.0] * 250
    assert workloads.sustained(mostly_fast, np.median) == workloads.sustained(slow, np.median) == 2.0
    assert workloads.sustained([1.0] * 1000, np.mean) == 1.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pauses_run_outside_the_timed_ops(name):
    workload = workloads.WORKLOADS[name](workloads.SMOKE, 7, 0.3)
    state = workload.setup()
    calls = []

    def pause():
        calls.append(1)
        start = time.thread_time()
        while time.thread_time() - start < 0.2:
            pass

    measured = workload.measure(state, seconds=0.3, pause=pause, pauses=2)
    assert len(calls) == 2 and measured.failed == 0
    # The two pauses take 0.4 s of CPU time; none of it may reach an op.
    assert max(measured.latencies_ms) < 200.0
    assert measured.op_seconds < 0.4


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference-desk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
