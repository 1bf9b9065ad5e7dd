"""Probe-set scoring, convergence tracking, sweeps, and CSV emission."""

import collections
import copy
import csv
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from _oracle import reference_comparison_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from dtplace import cost_model, ddl, harness
from dtplace.cli import ALPHA_GRID
from dtplace.ddl import TrainConfig, build_ensemble
from dtplace.errors import ContractError, InvalidConfigError
from dtplace.exact import (
    scheme_average_distribution,
    scheme_cloud_only,
    scheme_random,
    solve_exact,
)
from dtplace.harness import (
    ComparisonRow,
    EvalPoint,
    ExperimentReport,
    convergence_rate,
    ensemble_probe_costs,
    make_probe,
    run_comparison,
    run_training_experiment,
    scheme_means,
    with_alpha,
    write_comparison_csv,
    write_config_sidecar,
    write_trace_csv,
)
from dtplace.scenario import GeneratorConfig

MINI = GeneratorConfig(num_devices=8, num_dts=3, num_edge_servers=2, server_seed=5)

DESK = GeneratorConfig(num_devices=24, num_dts=6, server_seed=5)

FULL_SHAPE = GeneratorConfig(server_seed=5)  # 15 twins, 4^15 assignments

BASELINE_FUNCTIONS = (
    "solve_exact", "scheme_random", "scheme_cloud_only", "scheme_average_distribution"
)


def points_equal(a, b):
    """Tuple equality except NaN convergence values compare equal."""
    return len(a) == len(b) and all(
        p.iteration == q.iteration
        and np.array_equal(p.convergence, q.convergence, equal_nan=True)
        and p.mean_probe_q == q.mean_probe_q
        for p, q in zip(a, b)
    )


def mini_train(iterations=40, **kw):
    kw.setdefault("num_dnns", 3)
    kw.setdefault("db_capacity", 16)
    kw.setdefault("batch_size", 8)
    kw.setdefault("generator", MINI)
    kw.setdefault("seed", 1)
    return TrainConfig(iterations=iterations, **kw)


class TestConvergenceRate:
    def test_identical_vectors_give_one(self):
        assert convergence_rate([3.0, 7.0, 1.5], [3.0, 7.0, 1.5]) == 1.0

    def test_halved_cost_gives_half(self):
        assert convergence_rate([2.0], [1.0]) == 0.5

    def test_symmetric(self):
        old = np.array([1.0, 5.0, 2.0])
        new = np.array([4.0, 5.0, 0.5])
        assert convergence_rate(old, new) == convergence_rate(new, old)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            convergence_rate([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            convergence_rate([], [])

    def test_nonpositive_rejected(self):
        with pytest.raises(ContractError):
            convergence_rate([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ContractError):
            convergence_rate([1.0], [-2.0])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=1e6),
                st.floats(min_value=0.1, max_value=1e6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_tight_only_at_equality(self, pairs):
        old = np.array([p[0] for p in pairs])
        new = np.array([p[1] for p in pairs])
        c = convergence_rate(old, new)
        assert 0.0 < c <= 1.0
        assert (c == 1.0) == bool(np.all(old == new))


class TestProbeSet:
    def test_reproducible(self):
        a = make_probe(100, 5, MINI)
        b = make_probe(100, 5, MINI)
        assert np.array_equal(a.tables, b.tables)
        assert len(a) == 5

    def test_count_must_be_positive(self):
        with pytest.raises(ContractError):
            make_probe(100, 0, MINI)

    def test_batched_costs_match_per_scenario_choice(self):
        probe = make_probe(300, 6, MINI)
        ens = build_ensemble(mini_train())
        batched = ensemble_probe_costs(ens, probe)
        singles = [ddl.best_of_k(ens, s).cost for s in probe.scenarios]
        assert np.allclose(batched, singles, rtol=1e-9)

    def test_scheme_means_ordering_and_cache(self, monkeypatch):
        probe = make_probe(40, 8, MINI)
        means = scheme_means(probe)
        assert set(means) == {"exact", "ro", "co", "ad"}
        for name in ("ro", "co", "ad"):
            assert means["exact"] <= means[name]
        monkeypatch.setattr(harness, "solve_exact", None)  # a second pricing would fail
        means["exact"] = -1.0  # callers get a copy
        assert scheme_means(probe)["exact"] > 0

    def test_scheme_means_price_each_scenario_once(self, monkeypatch):
        # The tables and all four schemes share one pricing per scenario.
        priced = []
        real = cost_model._device_matrices
        monkeypatch.setattr(cost_model, "_device_matrices", lambda s: priced.append(s) or real(s))
        probe = make_probe(40, 6, MINI)
        probe.tables
        scheme_means(probe)
        assert len(priced) == len(probe)
        assert all(a is b for a, b in zip(priced, probe.scenarios))
        assert not probe.tables.flags.writeable

    def test_baselines_are_the_schemes_in_scenario_order(self):
        probe = make_probe(40, 12, MINI)
        ro_seeds = np.random.default_rng(probe.seed).integers(0, 2**63 - 1, size=len(probe))
        runs = {
            "exact": [solve_exact(s) for s in probe.scenarios],
            "ro": [scheme_random(s, int(seed)) for s, seed in zip(probe.scenarios, ro_seeds)],
            "co": [scheme_cloud_only(s) for s in probe.scenarios],
            "ad": [scheme_average_distribution(s) for s in probe.scenarios],
        }
        assert list(probe.baselines) == list(runs)
        for name, results in runs.items():
            *means, elapsed = probe.baselines[name]
            assert means == [
                float(np.mean([r.cost.weighted_cost for r in results])),
                float(np.mean([r.cost.total_time for r in results])),
                float(np.mean([r.cost.total_energy for r in results])),
            ]
            assert elapsed >= 0.0
        # the exact assignments are the tables' row minima
        exact = [list(r.decision.assignment) for r in runs["exact"]]
        assert probe.tables.argmin(axis=2).tolist() == exact

    @pytest.mark.parametrize(
        "copier", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "pickle"]
    )
    def test_copies_leave_the_caches_behind(self, copier):
        probe = make_probe(40, 4, MINI)
        shifted = with_alpha(probe, 0.25)
        means, raw = scheme_means(probe), probe.raw_inputs
        copied = copier(probe)
        assert set(vars(copied)) == {"scenarios", "seed"}
        assert copied.scenarios == probe.scenarios and copied.seed == probe.seed
        for s in copied.scenarios:
            assert set(vars(s.devices)) == {f.name for f in dataclasses.fields(s.devices)}
        assert np.array_equal(copied.tables, probe.tables)
        assert np.array_equal(copied.raw_inputs, raw)
        assert scheme_means(copied) == means
        assert not copied.tables.flags.writeable and not copied.raw_inputs.flags.writeable
        again = with_alpha(copied, 0.25)
        assert again is not shifted and np.array_equal(again.tables, shifted.tables)

    def test_scheme_means_full_shape_has_exact_minimum(self):
        probe = make_probe(40, 2, FULL_SHAPE)
        means = scheme_means(probe)
        assert set(means) == {"exact", "ro", "co", "ad"}
        for name in ("ro", "co", "ad"):
            assert means["exact"] <= means[name]


class TestTrainingExperiment:
    def test_an_ensemble_of_another_deployment_shape_is_refused(self):
        # One edge server fewer: its codes would still index the probe's
        # three-server tables, so without the check they price silently.
        probe = make_probe(300, 4, MINI)
        other = mini_train(generator=dataclasses.replace(MINI, num_edge_servers=1))
        with pytest.raises(ContractError, match="cost tables"):
            ensemble_probe_costs(build_ensemble(other), probe)
        with pytest.raises(ContractError, match="grid point 'other': cost tables"):
            run_training_experiment([("other", other)], probe)

    def test_zero_iterations_yields_empty_series(self):
        probe = make_probe(200, 4, MINI)
        (report,) = run_training_experiment([("blank", mini_train(0))], probe)
        (point,) = report.eval_points  # the iteration-0 snapshot, as in every run
        assert point.iteration == 0 and math.isnan(point.convergence)
        fresh = build_ensemble(mini_train(0))
        assert point.mean_probe_q == float(ensemble_probe_costs(fresh, probe).mean())
        assert report.traces == ()
        assert ddl.propose_batch(report.ensemble, probe.raw_inputs).shape == (3, 4, 3)

    def test_each_point_is_scored_at_its_own_alpha(self):
        probe = make_probe(200, 4, MINI)  # MINI's alpha is 0.5
        energy_only = mini_train(0, generator=dataclasses.replace(MINI, alpha=0.0))
        (plain, reweighted) = run_training_experiment(
            [("plain", mini_train(0)), ("energy", energy_only)], probe
        )
        assert plain.scheme_means == scheme_means(probe)
        at_zero = with_alpha(probe, 0.0)
        assert reweighted.scheme_means == scheme_means(at_zero)
        fresh = build_ensemble(energy_only)
        expected = float(ensemble_probe_costs(fresh, at_zero).mean())
        assert reweighted.eval_points[0].mean_probe_q == expected

    def test_snapshot_cadence_and_series_shape(self):
        probe = make_probe(200, 4, MINI)
        cfg = mini_train(25)
        (report,) = run_training_experiment([("run", cfg)], probe, cadence=10)
        iters = [p.iteration for p in report.eval_points]
        assert iters == [0, 10, 20, 25]
        assert math.isnan(report.eval_points[0].convergence)
        for p in report.eval_points[1:]:
            assert 0.0 < p.convergence <= 1.0
        assert len(report.traces) == 25
        assert report.label == "run"
        assert report.scheme_means["exact"] > 0

    def test_grid_order_and_determinism(self):
        probe = make_probe(200, 4, MINI)
        grid = [
            ("slow", mini_train(20, learning_rate=1e-3)),
            ("fast", mini_train(20, learning_rate=1e-2)),
        ]
        first = run_training_experiment(grid, probe)
        second = run_training_experiment(grid, probe)
        assert [r.label for r in first] == ["slow", "fast"]
        for a, b in zip(first, second):
            assert points_equal(a.eval_points, b.eval_points)

    def test_without_a_probe_it_is_plain_training(self, tmp_path):
        cfg = mini_train(25)
        (report,) = run_training_experiment([("t", cfg)], None)
        assert report.eval_points == () and report.scheme_means == {}
        plain = ddl.train(cfg)
        assert repr(report.traces) == repr(tuple(plain.traces))  # NaN losses compare by repr
        ddl.save_ensemble(tmp_path / "driver.npz", report.ensemble)
        ddl.save_ensemble(tmp_path / "plain.npz", plain.ensemble)
        with np.load(tmp_path / "driver.npz") as a, np.load(tmp_path / "plain.npz") as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                assert a[name].dtype == b[name].dtype, name
                assert np.array_equal(a[name], b[name]), name

    def test_empty_grid_rejected(self):
        probe = make_probe(200, 2, MINI)
        with pytest.raises(ContractError):
            run_training_experiment([], probe)

    def test_errors_carry_grid_point_context(self):
        probe = make_probe(200, 2, MINI)
        bad = mini_train(5, db_capacity=4, batch_size=8)
        with pytest.raises(InvalidConfigError, match="grid point 'broken'"):
            run_training_experiment([("broken", bad)], probe)


class TestIterationsToConverge:
    @staticmethod
    def report_with(points, db_capacity=100):
        cfg = TrainConfig(iterations=0, db_capacity=db_capacity, generator=MINI)
        return ExperimentReport(
            label="synthetic",
            config=cfg,
            eval_points=tuple(EvalPoint(*p) for p in points),
            traces=(),
            ensemble=None,
            scheme_means={},
            elapsed=0.0,
        )

    def test_first_stable_crossing_wins(self):
        report = self.report_with(
            [
                (0, float("nan"), 5.0),
                (110, 0.995, 4.9),
                (120, 0.950, 4.8),
                (130, 0.992, 4.8),
                (140, 0.999, 4.8),
            ]
        )
        assert report.iterations_to_converge() == 130

    def test_prefill_points_do_not_count(self):
        report = self.report_with(
            [(0, float("nan"), 5.0), (90, 1.0, 5.0), (110, 0.995, 4.9)]
        )
        assert report.iterations_to_converge() == 110

    def test_never_stable_is_none(self):
        report = self.report_with([(0, float("nan"), 5.0), (110, 0.8, 4.0)])
        assert report.iterations_to_converge() is None
        assert self.report_with([]).iterations_to_converge() is None


class TestComparison:
    def test_alpha_reweighting(self):
        probe = make_probe(100, 3, MINI)
        shifted = with_alpha(probe, 0.25)
        assert all(s.params.alpha == 0.25 for s in shifted.scenarios)
        assert not np.array_equal(shifted.tables, probe.tables)

    def test_rows_cover_schemes_and_exact_is_minimum(self):
        probe = make_probe(100, 4, MINI)
        alphas = [1.0, 0.0, 0.5]
        ensembles = {a: build_ensemble(mini_train(0, seed=9)) for a in alphas}
        rows = run_comparison(probe, ensembles)
        assert len(rows) == len(alphas) * 5
        assert [r.alpha for r in rows[::5]] == alphas  # the groups follow the map's order
        for alpha in alphas:
            group = {r.scheme: r for r in rows if r.alpha == alpha}
            assert list(group) == ["exact", "ro", "co", "ad", "ddl"]
            for name, row in group.items():
                assert group["exact"].mean_q <= row.mean_q + 1e-12

    def test_rows_price_the_same_baselines_as_scheme_means(self):
        probe = make_probe(100, 4, MINI)
        alpha = MINI.alpha
        rows = run_comparison(probe, {alpha: build_ensemble(mini_train(0, seed=9))})
        means = scheme_means(probe)
        assert [r.scheme for r in rows[:4]] == list(means)
        for row in rows[:4]:
            assert row.mean_q == means[row.scheme]

    def test_a_sweep_at_the_probes_alpha_prices_and_encodes_each_scenario_once(self, monkeypatch):
        # The lr/dnn/db sweeps' path: every grid point and the comparison read the probe itself.
        probe = make_probe(100, 4, MINI)
        calls = collections.Counter()
        for name in BASELINE_FUNCTIONS:
            real = getattr(harness, name)
            monkeypatch.setattr(
                harness, name, lambda s, *a, _n=name, _f=real: calls.update([(_n, id(s))]) or _f(s, *a)
            )
        encoded = collections.Counter()
        real = ddl.raw_group_input
        monkeypatch.setattr(ddl, "raw_group_input", lambda s: encoded.update([id(s)]) or real(s))
        grid = [(f"lr_{lr:g}", mini_train(0, learning_rate=lr)) for lr in (1e-3, 1e-2)]
        reports = run_training_experiment(grid, probe)
        assert reports[0].scheme_means == reports[1].scheme_means == scheme_means(probe)
        run_comparison(probe, {MINI.alpha: reports[0].ensemble})
        assert calls == {(n, id(s)): 1 for n in BASELINE_FUNCTIONS for s in probe.scenarios}
        assert encoded == {id(s): 1 for s in probe.scenarios}

    def test_every_alpha_and_the_ddl_rows_share_one_pricing(self, monkeypatch):
        # Re-weighted probes share their device sets, and with them one pricing.
        probe = make_probe(100, 4, MINI)
        built = collections.Counter()
        real = cost_model._device_matrices
        monkeypatch.setattr(
            cost_model, "_device_matrices", lambda s: built.update([id(s.devices)]) or real(s)
        )
        grid = [
            (f"alpha_{a:g}", mini_train(0, generator=dataclasses.replace(MINI, alpha=a)))
            for a in ALPHA_GRID
        ]
        reports = run_training_experiment(grid, probe)
        ensembles = {r.config.generator.alpha: r.ensemble for r in reports}
        run_comparison(probe, ensembles)
        assert built == {id(s.devices): 1 for s in probe.scenarios}

    def test_pricing_the_baselines_encodes_nothing(self, monkeypatch):
        probe = make_probe(100, 4, MINI)
        encoded = []
        real = ddl.raw_group_input
        monkeypatch.setattr(ddl, "raw_group_input", lambda s: encoded.append(s) or real(s))
        scheme_means(probe)
        scheme_means(with_alpha(probe, 0.25))
        with_alpha(probe, 0.75).tables
        assert not encoded

    def test_the_ddl_row_chooses_once_per_alpha_over_the_probe(self, monkeypatch):
        probe = make_probe(100, 4, MINI)
        ensembles = {a: build_ensemble(mini_train(0, seed=9)) for a in ALPHA_GRID}
        calls = []
        real = ddl.choose
        monkeypatch.setattr(ddl, "choose", lambda *args: calls.append(args) or real(*args))

        def per_scenario(*args):
            raise AssertionError("the comparison placed one scenario at a time")

        monkeypatch.setattr(ddl, "infer", per_scenario)
        monkeypatch.setattr(ddl, "best_of_k", per_scenario)
        run_comparison(probe, ensembles)
        assert len(calls) == len(ALPHA_GRID)
        for alpha, (ensemble, tables, raw) in zip(ALPHA_GRID, calls):
            at = with_alpha(probe, alpha)
            assert ensemble is ensembles[alpha]
            assert np.array_equal(tables, at.tables) and np.array_equal(raw, at.raw_inputs)

    def test_a_reweight_shares_the_device_sets_and_the_seed(self):
        probe = make_probe(100, 3, MINI)
        assert with_alpha(probe, MINI.alpha) is probe
        shifted = with_alpha(probe, 0.25)
        assert shifted.seed == probe.seed and shifted.scenarios != probe.scenarios
        for s, t in zip(probe.scenarios, shifted.scenarios, strict=True):
            assert t.devices is s.devices and t.servers is s.servers
        assert np.array_equal(shifted.raw_inputs, probe.raw_inputs)

    @pytest.mark.parametrize("alpha", [1.5, -0.5, float("nan")])
    def test_weight_outside_unit_interval_rejected(self, alpha):
        probe = make_probe(100, 2, MINI)
        with pytest.raises(ContractError, match="alpha"):
            with_alpha(probe, alpha)
        with pytest.raises(ContractError, match="alpha"):
            run_comparison(probe, {alpha: build_ensemble(mini_train(0, seed=9))})

    @pytest.mark.parametrize("shape", ["mini", "desk"])
    def test_rows_match_the_scheme_major_oracle(self, shape):
        generator = {"mini": MINI, "desk": DESK}[shape]
        probe = make_probe(100, 12, generator)
        ensembles = {
            a: build_ensemble(mini_train(0, seed=9, generator=generator)) for a in ALPHA_GRID
        }
        rows = run_comparison(probe, ensembles)
        for alpha in ALPHA_GRID:
            got = [(r.scheme, r.mean_q, r.mean_t, r.mean_e) for r in rows if r.alpha == alpha]
            oracle = reference_comparison_rows(probe.scenarios, probe.seed, alpha, ensembles[alpha])
            assert got == oracle

    def test_alpha_endpoints_reduce_to_time_and_energy(self):
        probe = make_probe(100, 4, MINI)
        ensembles = {a: build_ensemble(mini_train(0, seed=9)) for a in (0.0, 1.0)}
        rows = run_comparison(probe, ensembles)
        for r in rows:
            target = r.mean_e if r.alpha == 0.0 else r.mean_t
            assert r.mean_q == pytest.approx(target, rel=1e-12)

    def test_missing_ensemble_rejected(self):
        probe = make_probe(100, 2, MINI)
        with pytest.raises(ContractError, match="no trained ensemble"):
            run_comparison(probe, {})


class TestCsvOutput:
    def test_trace_csv_layout(self, tmp_path):
        probe = make_probe(200, 4, MINI)
        (report,) = run_training_experiment([("run", mini_train(25))], probe, cadence=10)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, report)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "iteration", "chosen_q", "chosen_dnn", "convergence", "mean_probe_q"
        ] + [f"loss_{i}" for i in range(3)]
        assert len(rows) == 1 + 1 + 25  # header, snapshot-only row 0, one per iteration
        assert rows[1][:3] == ["0", "", ""] and rows[1][4] != ""
        assert [int(r[2]) for r in rows[2:]] == [t.chosen_dnn for t in report.traces]
        # database fills at iteration 16; losses are blank before, present after
        by_iter = {r[0]: r for r in rows[1:]}
        assert by_iter["10"][5] == ""
        assert float(by_iter["20"][5]) > 0
        assert float(by_iter["20"][3]) <= 1.0

    def test_trace_csv_byte_identical_across_runs(self, tmp_path):
        probe = make_probe(200, 4, MINI)
        paths = []
        for name in ("one.csv", "two.csv"):
            (report,) = run_training_experiment([("run", mini_train(25))], probe)
            path = tmp_path / name
            write_trace_csv(path, report)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_comparison_csv_round_trip(self, tmp_path):
        row = ComparisonRow(0.5, "co", 12.25, 20.5, 4.0, 0.125)
        path = tmp_path / "comparison.csv"
        write_comparison_csv(path, [row])
        with open(path, newline="") as fh:
            header, data = list(csv.reader(fh))
        assert header == ["alpha", "scheme", "mean_q", "mean_t", "mean_e", "elapsed"]
        assert data[1] == "co"
        assert [float(data[i]) for i in (0, 2, 3, 4, 5)] == [0.5, 12.25, 20.5, 4.0, 0.125]

    def test_config_sidecar_is_json(self, tmp_path):
        path = tmp_path / "run.json"
        write_config_sidecar(path, mini_train(25), extra={"probe_seed": 200})
        doc = json.loads(path.read_text())
        assert doc["iterations"] == 25
        assert doc["probe_seed"] == 200
        assert doc["generator"]["num_dts"] == 3
