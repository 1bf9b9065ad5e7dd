import json
import os
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


def test_bench_writes_one_alternating_pair(tmp_path):
    # The checkout's own src stands in for the parent, so no git is needed.
    done = run_script(
        "bench.py", "--workload", "reference-desk", "--seeds", "3", "--seconds", "1",
        "--baseline-src", str(ROOT / "src"), "--label", "check", "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    bench = json.loads((tmp_path / "BENCH_check.json").read_text())
    assert list(bench) == [
        "workload", "command", "machine", "sides", "order", "env", "units", "summary", "runs",
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
