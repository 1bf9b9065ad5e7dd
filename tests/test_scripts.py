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
    "args",
    [
        ["--probe", "4", "--devices", "8", "--dts", "3", "--edges", "2"],
        # Twins here own more devices than the feature encoding's slots; the
        # baselines never encode features, so the report still runs.
        ["--probe", "4", "--devices", "60", "--dts", "2"],
    ],
    ids=["mini", "over-slots"],
)
def test_landscape_report_prints_exact_row(args):
    done = run_script("landscape_report.py", *args)
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("exact: mean Q ") for line in done.stdout.splitlines())
