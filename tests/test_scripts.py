import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize(
    "args, share",
    [
        (["--probe", "4", "--devices", "8", "--dts", "3", "--edges", "2"], "66.7%"),
        # Twins here own more devices than the feature encoding's slots; the
        # baselines never encode features, so the report still runs.
        (["--probe", "4", "--devices", "60", "--dts", "2"], "87.5%"),
    ],
    ids=["mini", "over-slots"],
)
def test_landscape_report_prints_exact_row(args, share):
    done = run_script("landscape_report.py", *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert any(line.startswith("exact: mean Q ") for line in lines)
    assert lines[-1] == f"optimal cloud share: {share} of twins"


@pytest.mark.parametrize(
    "args", [["--probe", "0"], ["--seed", "-1"], ["--dts", "0"], ["--alpha", "2"]],
    ids=["probe", "seed", "dts", "alpha"],
)
def test_landscape_report_refuses_bad_arguments_without_a_traceback(args):
    done = run_script("landscape_report.py", *args)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith("landscape_report.py: error: ")


def test_bench_writes_one_alternating_pair(tmp_path):
    # The checkout's own src stands in for the parent, so no git is needed.
    # The output directory does not exist yet.
    out = tmp_path / "new" / "dir"
    done = run_script(
        "bench.py", "--workload", "reference-desk", "--seeds", "3", "--seconds", "1",
        "--baseline-src", str(ROOT / "src"), "--label", "check", "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    bench = json.loads((out / "BENCH_check.json").read_text())
    assert list(bench) == [
        "workload", "command", "machine", "sides", "order", "env", "units", "summary",
        "per_layer", "runs",
    ]
    assert bench["workload"] == "reference-desk"
    assert bench["env"].startswith("env: {")
    assert set(bench["sides"]) == {"parent", "change"}
    assert [(r["side"], r["seed"]) for r in bench["runs"]] == [("parent", 3), ("change", 3)]
    names = set(bench["units"])
    assert names == {"setup_s", "ops_per_s", "p50_ms", "p95_ms", "quality_gap", "peak_rss_mb"}
    for run in bench["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        assert set(run["metrics"]) == names
    assert set(bench["summary"]) == names
    assert all(row["pairs"] == 1 for row in bench["summary"].values())
    # one traced pass per side on the first seed: its op count, every layer's calls and
    # self time per op
    traced = bench["per_layer"]
    assert list(traced) == ["command", "parent", "change"]
    assert traced["command"].endswith("--seed 3 --seconds 1 --trace 1")
    layers = set(traced["parent"])
    assert layers == set(traced["change"]) and "exact.baselines.self_us_per_op" in layers
    assert all(name == "ops" or name.endswith((".calls_per_op", ".self_us_per_op"))
               for name in layers)
    per_op = {"exact.solve_exact": 1, "exact.baselines": 3, "cost_model.evaluate": 4,
              "cost_model.per_dt_cost_table": 1, "neural.adam_step": 0}
    for side in ("parent", "change"):
        assert traced[side]["ops"] > 0
        for layer, calls in per_op.items():
            assert traced[side][f"{layer}.calls_per_op"] == calls, (side, layer)


def test_bench_takes_its_workloads_from_the_benchmark_spec(tmp_path, monkeypatch, capsys):
    bench = load_script("bench")
    spec = {"workloads": [{"name": "only-here"}], "end_to_end": []}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    args = ["--seeds", "1", "--label", "check", "--out", str(tmp_path / "out"),
            "--baseline-src", str(tmp_path / "no-src")]
    with pytest.raises(SystemExit) as refused:
        bench.main(["--workload", "train-desk", *args])
    assert refused.value.code == 2
    assert "only-here" in capsys.readouterr().err
    # a listed name is accepted: the run goes on to copy the missing parent
    with pytest.raises(FileNotFoundError):
        bench.main(["--workload", "only-here", *args])


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_runs(parent, change, name, failed=(0, 0)):
    """Alternating runs of one metric, pair by pair, each of 100 ops with ``failed`` per side failing."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        pair = [("parent", p, failed[0]), ("change", c, failed[1])]
        runs += [
            {"side": side, "seed": i, "attempted": 100, "failed": f, "metrics": {name: v}}
            for side, v, f in pair[:: 1 - 2 * (i % 2)]
        ]
    return runs


def test_summary_applies_the_acceptance_rules():
    summarize = load_script("bench").summarize
    lower = {"p50_ms": {"better": "lower", "bound": 0.25}}
    parent = [0.22, 0.23, 0.24, 0.23, 0.25, 0.21, 0.23, 0.22, 0.24, 0.23]
    # nine of ten pairs won, medians 0.15 against 0.23, parent IQR 0.02
    change = [0.15] * 9 + [0.26]
    row = summarize(synthetic_runs(parent, change, "p50_ms"), lower)["p50_ms"]
    assert row["parent_median"] == 0.23 and row["change_median"] == 0.15
    assert row["parent_iqr"] == pytest.approx(0.02)
    assert row["change_better_pairs"] == 9 and row["pairs"] == 10
    assert row["worse_by"] == pytest.approx(-0.08 / 0.23)
    assert row["bound"] == 0.25 and row["within_bound"] and row["gain_shown"]
    # eight of ten pairs is not enough, however large the gain
    row = summarize(synthetic_runs(parent, [0.15] * 8 + [0.26] * 2, "p50_ms"), lower)["p50_ms"]
    assert row["change_better_pairs"] == 8 and not row["gain_shown"]
    # every pair won, but by less than the parent's spread
    row = summarize(synthetic_runs(parent, [p - 0.005 for p in parent], "p50_ms"), lower)["p50_ms"]
    assert row["change_better_pairs"] == 10 and not row["gain_shown"]
    # a higher-is-better metric 30 % down is outside a 25 % bound
    higher = {"ops_per_s": {"better": "higher", "bound": 0.25}}
    row = summarize(synthetic_runs([100.0] * 3, [70.0] * 3, "ops_per_s"), higher)["ops_per_s"]
    assert row["worse_by"] == pytest.approx(0.3) and not row["within_bound"]
    assert row["change_better_pairs"] == 0 and not row["gain_shown"]
    # 20 % down stays within it
    row = summarize(synthetic_runs([100.0] * 3, [80.0] * 3, "ops_per_s"), higher)["ops_per_s"]
    assert row["worse_by"] == pytest.approx(0.2) and row["within_bound"]


def test_summary_refuses_a_gain_that_fails_more_operations():
    summarize = load_script("bench").summarize
    lower = {"p50_ms": {"better": "lower", "bound": 0.25}}
    parent = [0.22, 0.23, 0.24, 0.23, 0.25, 0.21, 0.23, 0.22, 0.24, 0.23]
    change = [0.15] * 10
    row = summarize(synthetic_runs(parent, change, "p50_ms"), lower)["p50_ms"]
    assert row["parent_failed_share"] == row["change_failed_share"] == 0.0 and row["gain_shown"]
    # the same times, but one op in a hundred fails on the change's side only
    row = summarize(synthetic_runs(parent, change, "p50_ms", failed=(0, 1)), lower)["p50_ms"]
    assert row["parent_failed_share"] == 0.0 and row["change_failed_share"] == 0.01
    assert row["change_better_pairs"] == 10 and not row["gain_shown"]
    # an equal share on both sides does not stand in the way
    row = summarize(synthetic_runs(parent, change, "p50_ms", failed=(1, 1)), lower)["p50_ms"]
    assert row["parent_failed_share"] == row["change_failed_share"] == 0.01 and row["gain_shown"]


def test_parity_quick_passes_a_copy_of_src_and_fails_a_perturbed_constant(tmp_path):
    copied = tmp_path / "src"
    shutil.copytree(ROOT / "src", copied, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_script("parity.py", "--baseline-src", str(copied), "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("blas core type: ") and lines[0].endswith("OPENBLAS_NUM_THREADS=1")
    verdicts = [line for line in lines if line.startswith(("same  ", "DIFF  "))]
    assert len(verdicts) == 30 and all(line.startswith("same  ") for line in verdicts)
    assert "same  train-desk/ensemble.npz" in verdicts and "same  solve-full-ddl.out" in verdicts
    assert lines[-1] == "parity: 30 artifacts, 0 differ"
    done = run_script("parity.py", "--baseline-src", str(copied), "--quick", "--costs-rel", "1e-14")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "parity: 30 artifacts, 0 close, 0 differ"

    module = copied / "dtplace" / "scenario.py"
    text = module.read_text()
    assert "\nDELTA = 1.5\n" in text
    module.write_text(text.replace("\nDELTA = 1.5\n", "\nDELTA = 1.5000001\n"))
    for flag in ([], ["--costs-rel", "1e-14"]):
        done = run_script("parity.py", "--baseline-src", str(copied), "--quick", *flag)
        assert done.returncode == 1, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        assert any(line.startswith("DIFF  desk/scenario_100.json: bytes differ") for line in lines)
        assert any(line.startswith("DIFF  solve-desk-exact.out: ") for line in lines)
        assert lines[-1].startswith("parity: 30 artifacts, ")


def test_parity_costs_rel_lets_only_the_costs_move(tmp_path):
    # The copy adds each total's twins in reverse order: the same placements
    # and times, with energies and weighted costs a few ulps away.
    copied = tmp_path / "src"
    shutil.copytree(ROOT / "src", copied, ignore=shutil.ignore_patterns("__pycache__"))
    module = copied / "dtplace" / "cost_model.py"
    text = module.read_text()
    line = "    total_energy = sum(map(energies.__getitem__, cells))\n"
    assert line in text
    module.write_text(text.replace(line, line.replace("cells)", "reversed(cells))")))
    done = run_script("parity.py", "--baseline-src", str(copied), "--quick")
    assert done.returncode == 1, done.stdout + done.stderr
    plain = [line for line in done.stdout.splitlines() if line.startswith("DIFF  ")]
    assert plain

    for tol, code in (("1e-14", 0), ("0", 1)):
        done = run_script("parity.py", "--baseline-src", str(copied), "--quick", "--costs-rel", tol)
        assert done.returncode == code, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        moved = [line for line in lines if line.startswith(("close ", "DIFF  "))]
        # the same files move, each either close or, at tolerance 0, still different
        assert [line.split()[1].rstrip(":") for line in moved] == [line.split()[1].rstrip(":") for line in plain]
        assert all(line.startswith("close " if code == 0 else "DIFF  ") for line in moved)
        assert any(line.startswith(("close solve-desk-exact.out", "DIFF  solve-desk-exact.out")) for line in moved)
        close = len(moved) if code == 0 else 0
        assert lines[-1] == f"parity: 30 artifacts, {close} close, {len(moved) - close} differ"


def test_parity_sets_the_experiment_wall_time_aside(tmp_path):
    parity = load_script("parity")
    lines = [
        "alpha_0: final mean probe Q 1368.16, stable at 1050, {t}s\n",
        "alpha_1: final mean probe Q {q}, stable at never, 12.0s\n",
        "alpha 0 exact: mean Q 1301.5 (T 9.25, E 1301.5)\n",
    ]

    def stdout(name, t="4.2", q="1370.73"):
        path = tmp_path / name
        path.write_text("".join(lines).format(t=t, q=q))
        return str(path)

    parent = stdout("parent.stdout")
    assert parity.difference(parent, stdout("slower.stdout", t="61.9")) == ("same", None)
    verdict, why = parity.difference(parent, stdout("moved.stdout", t="61.9", q="1370.74"))
    assert verdict == "DIFF" and why.startswith("first difference at line 2 ")


def test_parity_refuses_a_negative_tolerance():
    done = run_script("parity.py", "--baseline-src", str(ROOT / "src"), "--costs-rel", "-1")
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1].endswith("--costs-rel must be a number >= 0")
