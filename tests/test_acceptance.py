"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Each test's PASSED/FAILED status is the criterion's verdict; the printed
line carries the measured numbers (shown with -rA, or on failure).

Criterion 7 asserts two documented directions and is expected to FAIL on
both.  Learning rate: a high rate (1e-2) is supposed to end with worse
accuracy than 1e-3, but Adam keeps 1e-2 stable and slightly ahead at every
scale, seed, database size, and horizon measured.  Ensemble size: K=2 is
supposed to need more iterations than K=12 to first reach convergence
0.99, but at this learning rate both ensembles cross within a few
evaluation points of the replay database filling, leaving the ordering to
seed noise (1/3 under the first-reach statistic and under the stricter
stay-above reading alike).  Larger ensembles do end more accurate, which
criterion 5 pins; they just do not cross the convergence bar earlier.  The
README's "Tests" section and CHANGES.md record the evidence; the assertions
stay faithful instead of being inverted or re-tuned to pass.
"""

import dataclasses
import hashlib
import math
import statistics
import time

import numpy as np
import pytest
from _oracle import reference_cost

from dtplace import ddl
from dtplace.cli import main as cli_main
from dtplace.cost_model import Decision, evaluate, per_dt_cost_table
from dtplace.ddl import TrainConfig, build_ensemble
from dtplace.exact import (
    scheme_average_distribution,
    scheme_cloud_only,
    scheme_random,
    solve_exact,
)
from dtplace.harness import make_probe, run_training_experiment
from dtplace.neural import Activation, MlpArch, init_random
from dtplace.scenario import GeneratorConfig, generate_random

DESK = GeneratorConfig(num_devices=24, num_dts=6, server_seed=20260816)
FULL = GeneratorConfig(server_seed=1)

RELU = Activation.RELU
SIGMOID = Activation.SIGMOID


@pytest.fixture(scope="session")
def desk_probe():
    return make_probe(500_000, 256, DESK)


@pytest.fixture(scope="session")
def reference_run(desk_probe):
    """The 3000-iteration desk run shared by criteria 5, 6, and 7."""
    config = TrainConfig(iterations=3000, generator=DESK, seed=0)
    (report,) = run_training_experiment([("reference", config)], desk_probe, cadence=10)
    return report


@pytest.fixture(scope="session")
def sweep_runs(desk_probe, reference_run):
    """Per-seed runs for the directional comparisons of criterion 7.

    The reference run doubles as the lr=1e-3 / K=12 arm at seed 0; the
    lr=1e-3 and K=12 arms coincide by construction at the other seeds.
    """
    base = reference_run.config
    grid = []
    for seed in (0, 1, 2):
        grid.append((f"lr2_{seed}", dataclasses.replace(base, learning_rate=1e-2, seed=seed)))
        grid.append((f"k2_{seed}", dataclasses.replace(base, num_dnns=2, seed=seed)))
    for seed in (1, 2):
        grid.append((f"base_{seed}", dataclasses.replace(base, seed=seed)))
    reports = {r.label: r for r in run_training_experiment(grid, desk_probe, cadence=10)}
    shared = {0: reference_run, 1: reports["base_1"], 2: reports["base_2"]}
    return {
        "lr2": {s: reports[f"lr2_{s}"] for s in (0, 1, 2)},
        "lr3": shared,
        "k2": {s: reports[f"k2_{s}"] for s in (0, 1, 2)},
        "k12": shared,
    }


def test_criterion_1_cost_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 25))
        config = GeneratorConfig(num_devices=n, num_dts=m, num_edge_servers=3)
        s = generate_random(1_000 + i, config)
        d = Decision(tuple(int(x) for x in rng.integers(0, 4, size=m)))
        got = evaluate(s, d)
        t, e, q = reference_cost(s, d.assignment)
        for ours, ref in ((got.total_time, t), (got.total_energy, e), (got.weighted_cost, q)):
            worst = max(worst, abs(ours - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max relative error {worst:.3e} over 100 instances, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_invariance_suite():
    rng = np.random.default_rng(7)
    worst = 0.0

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    for i in range(20):
        s = generate_random(2_000 + i, dataclasses.replace(DESK, server_seed=None))
        d = Decision(tuple(int(x) for x in rng.integers(0, 4, size=s.num_dts)))
        base = evaluate(s, d)

        scale = 3.7
        scaled = dataclasses.replace(
            s,
            devices=dataclasses.replace(
                s.devices, workloads=tuple(w * scale for w in s.devices.workloads)
            ),
        )
        got = evaluate(scaled, d)
        worst = max(worst, rel(got.total_time, scale * base.total_time))
        worst = max(worst, rel(got.total_energy, scale * base.total_energy))
        worst = max(worst, rel(got.weighted_cost, scale * base.weighted_cost))

        perm = rng.permutation(len(s.devices.workloads))
        shuffled = dataclasses.replace(
            s,
            devices=dataclasses.replace(
                s.devices,
                workloads=tuple(s.devices.workloads[p] for p in perm),
                locations=tuple(s.devices.locations[p] for p in perm),
                bandwidths=tuple(s.devices.bandwidths[p] for p in perm),
                ownership=tuple(s.devices.ownership[p] for p in perm),
            ),
        )
        got = evaluate(shuffled, d)
        worst = max(worst, rel(got.total_time, base.total_time))
        worst = max(worst, rel(got.total_energy, base.total_energy))

        moved = dataclasses.replace(
            s,
            devices=dataclasses.replace(
                s.devices,
                locations=tuple(
                    (float(x), float(y))
                    for x, y in rng.uniform(0, 900, size=(len(s.devices.workloads), 2))
                ),
            ),
        )
        worst = max(worst, rel(evaluate(moved, d).total_energy, base.total_energy))

        for alpha, target in ((1.0, base.total_time), (0.0, base.total_energy)):
            shifted = dataclasses.replace(
                s, params=dataclasses.replace(s.params, alpha=alpha)
            )
            worst = max(worst, rel(evaluate(shifted, d).weighted_cost, target))
    print(f"criterion 2: max relative error {worst:.3e} across the invariance suite")
    assert worst <= 1e-12


def _clear_of_relu_kinks(model, x, margin=1e-3) -> bool:
    # Central differences are only valid on one smooth piece: a pre-activation
    # within eps of a ReLU kink makes the numeric slope disagree with the
    # (correct) analytic subgradient, so such inputs are redrawn.
    a = x
    for w, b, act in zip(model.weights, model.biases, model.arch.activations):
        z = a @ w.T + b
        if act is RELU and np.abs(z).min() < margin:
            return False
        a = act.apply(z)
    return True


def _finite_difference_worst(model, x, targets, eps=1e-6) -> float:
    analytic = model.backward(x, targets)
    worst = 0.0
    for layer in range(model.num_layers):
        pairs = (
            (model.weights[layer], analytic.gradients[layer][0]),
            (model.biases[layer], analytic.gradients[layer][1]),
        )
        for params, grads in pairs:
            flat_p, flat_g = params.ravel(), grads.ravel()
            for j in range(flat_p.size):
                original = flat_p[j]
                flat_p[j] = original + eps
                up = model.backward(x, targets).loss
                flat_p[j] = original - eps
                down = model.backward(x, targets).loss
                flat_p[j] = original
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(flat_g[j]), 1e-8)
                worst = max(worst, abs(numeric - flat_g[j]) / denom)
    return worst


def test_criterion_3_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(20):
        depth = int(rng.integers(1, 3))
        sizes = tuple(int(rng.integers(2, 7)) for _ in range(depth + 2))
        arch = MlpArch(sizes, (RELU,) * depth + (SIGMOID,))
        model = init_random(arch, seed=100 + i)
        x = rng.normal(size=(3, sizes[0]))
        while not _clear_of_relu_kinks(model, x):
            x = rng.normal(size=(3, sizes[0]))
        targets = rng.integers(0, 2, size=(3, sizes[-1])).astype(float)
        worst = max(worst, _finite_difference_worst(model, x, targets))
    elapsed = time.perf_counter() - start
    print(f"criterion 3: max relative gradient error {worst:.3e} over 20 nets, {elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 5.0


def test_criterion_4_exact_solver_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    config = dataclasses.replace(DESK, server_seed=None)
    for i in range(50):
        s = generate_random(7_000 + i, config)
        best = solve_exact(s).cost.weighted_cost
        table = per_dt_cost_table(s)
        randoms = rng.integers(0, 4, size=(1000, s.num_dts))
        random_costs = table[np.arange(s.num_dts)[None, :], randoms].sum(axis=1)
        assert best <= random_costs.min() + 1e-9
        baselines = (
            scheme_random(s, int(rng.integers(2**62))),
            scheme_cloud_only(s),
            scheme_average_distribution(s),
        )
        for b in baselines:
            assert best <= b.cost.weighted_cost + 1e-9
    elapsed = time.perf_counter() - start
    print(f"criterion 4: optimal on 50 scenarios vs 1000 randoms + baselines, {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_5_trained_quality_gap(reference_run):
    report = reference_run
    final = report.eval_points[-1].mean_probe_q
    means = report.scheme_means
    ratio = final / means["exact"]
    print(
        f"criterion 5: trained/exact {ratio:.4f} (bar 1.10); "
        f"ro {means['ro'] / means['exact']:.4f}, co {means['co'] / means['exact']:.4f}, "
        f"ad {means['ad'] / means['exact']:.4f}; {report.elapsed:.0f}s"
    )
    assert final <= 1.10 * means["exact"]
    assert final < means["ro"]
    assert final < means["co"]
    assert final < means["ad"]
    assert report.elapsed < 600.0


def test_criterion_6_convergence_tail(reference_run):
    tail = reference_run.eval_points[-10:]
    assert len(tail) == 10
    values = [p.convergence for p in tail]
    print(f"criterion 6: final-10 convergence min {min(values):.4f} (bar 0.99)")
    assert all(v > 0.99 for v in values)


# The reference run's labels through the replay fill, and its probe-Q series
# every 100 iterations.  Byte parity holds only within one BLAS kernel family:
# run under the OpenBLAS core types SkylakeX (the default on a 2-vCPU AVX-512
# Xeon guest), Haswell and Sandybridge, the run picks the same labels for its
# first 1063 iterations, then drifts, and every probe Q stays within 0.24 % of
# the SkylakeX series pinned here.  The tolerance is about twice that.
# The winning networks are pinned apart from the labels' costs: a winner is
# ranked by cost-table gathers, while its cost is what ``evaluate`` reports.
FILL_LABELS_SHA256 = "c26431f52a738123ec5e6806933b356f1c5823f7e42691c23d9e067bbfd5d539"
FILL_CHOSEN_DNN_SHA256 = "188ac5e1d66ff21700864e5a7db086a65ff7ff2cfd4b1f4f8ae3956a51c86fdc"
PROBE_Q_EVERY_100 = (
    *(1392.8820319093438,) * 11,
    1427.2941177378286, 1409.1414460460453, 1394.7695711166634, 1391.8811967833394,
    1390.1951442044844, 1389.2376164046782, 1387.7033247580841, 1386.8664344986278,
    1385.3399376257303, 1385.8218606497574, 1384.9768267492548, 1384.6718881186766,
    1381.6918579138164, 1382.5655403312878, 1381.4798709337065, 1380.2216167867232,
    1379.4988979012564, 1379.7165348973363, 1380.02614693331, 1378.3466814405524,
)


def test_reference_run_is_pinned(reference_run):
    fill = reference_run.traces[:reference_run.config.db_capacity]
    chosen_q = np.array([t.chosen_q for t in fill])
    chosen_dnn = np.array([t.chosen_dnn for t in fill], dtype=np.int64)
    digest = hashlib.sha256(chosen_q.tobytes() + chosen_dnn.tobytes()).hexdigest()
    assert digest == FILL_LABELS_SHA256
    assert hashlib.sha256(chosen_dnn.tobytes()).hexdigest() == FILL_CHOSEN_DNN_SHA256
    points = reference_run.eval_points[::10]
    assert [p.iteration for p in points] == list(range(0, 3001, 100))
    np.testing.assert_allclose([p.mean_probe_q for p in points], PROBE_Q_EVERY_100, rtol=5e-3)


def _first_reach(report, threshold=0.99):
    """Iteration of the first post-fill eval point with convergence >= threshold."""
    for point in report.eval_points:
        if point.iteration < report.config.db_capacity or math.isnan(point.convergence):
            continue
        if point.convergence >= threshold:
            return point.iteration
    return None


def test_criterion_7_hyperparameter_directionality(sweep_runs):
    lr_votes = 0
    lr_detail = []
    for seed in (0, 1, 2):
        high = sweep_runs["lr2"][seed].eval_points[-1].mean_probe_q
        low = sweep_runs["lr3"][seed].eval_points[-1].mean_probe_q
        lr_votes += high > low
        lr_detail.append(f"seed {seed}: lr1e-2 {high:.2f} vs lr1e-3 {low:.2f}")
    k_votes = 0
    k_detail = []
    for seed in (0, 1, 2):
        slow = _first_reach(sweep_runs["k2"][seed])
        fast = _first_reach(sweep_runs["k12"][seed])
        k_votes += fast is not None and (slow is None or slow > fast)
        k_detail.append(f"seed {seed}: K=2 reaches 0.99 at {slow} vs K=12 at {fast}")
    print(
        f"criterion 7: lr direction {lr_votes}/3 ({'; '.join(lr_detail)}); "
        f"K direction {k_votes}/3 ({'; '.join(k_detail)})"
    )
    assert lr_votes >= 2 and k_votes >= 2, (
        "directional expectations not reproduced (see the module docstring, the "
        f"README's Tests section and CHANGES.md): lr {lr_votes}/3 ({'; '.join(lr_detail)}); "
        f"K {k_votes}/3 ({'; '.join(k_detail)})"
    )


def test_criterion_8_inference_latency():
    ensemble = build_ensemble(TrainConfig(iterations=0, generator=FULL))
    scenario = generate_random(9_999, FULL)
    times = [ddl.infer(ensemble, scenario).elapsed for _ in range(100)]
    median = statistics.median(times)
    print(f"criterion 8: median inference {median * 1e3:.2f}ms over 100 calls (bar 10ms)")
    assert median < 0.010


def test_criterion_9_pipeline_determinism(tmp_path):
    shape = ["--devices", "8", "--dts", "3", "--edges", "2"]
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["generate", "--count", "2", "--seed", "21", "--out", str(out), *shape]) == 0
        assert (
            cli_main(
                ["train", "--iters", "50", "--k", "3", "--db", "16", "--batch", "8",
                 "--probe", "4", "--seed", "21", "--out", str(out), *shape]
            )
            == 0
        )
        assert (
            cli_main(
                ["solve", str(out / "scenario_21.json"), "--scheme", "ddl",
                 "--checkpoint", str(out / "ensemble.npz")]
            )
            == 0
        )
        outputs.append(out)
    first, second = outputs
    trace_a = (first / "training_trace.csv").read_bytes()
    trace_b = (second / "training_trace.csv").read_bytes()
    assert (first / "scenario_21.json").read_bytes() == (second / "scenario_21.json").read_bytes()
    assert trace_a == trace_b
    rows = len(trace_a.splitlines())
    print(f"criterion 9: byte-identical {rows}-row traces across two seeded pipelines")
