"""End-to-end flag handling, exit codes, and file outputs of the CLI."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dtplace.cli import main
from dtplace.ddl import TrainConfig, build_ensemble, load_ensemble, save_ensemble
from dtplace.errors import ContractError
from dtplace.scenario import from_document

TINY = ["--devices", "8", "--dts", "3", "--edges", "2"]


def run(*argv):
    return main(list(argv))


class TestGenerate:
    def test_count_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--count", "3", "--seed", "7", "--out", str(a), *TINY) == 0
        assert run("generate", "--count", "3", "--seed", "7", "--out", str(b), *TINY) == 0
        names = sorted(p.name for p in a.glob("scenario_*.json"))
        assert names == ["scenario_7.json", "scenario_8.json", "scenario_9.json"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        sidecar = json.loads((a / "generate_config.json").read_text())
        assert sidecar["seed"] == 7 and sidecar["count"] == 3

    def test_fewer_devices_than_dts_fails(self, tmp_path, capsys):
        code = run("generate", "--devices", "4", "--dts", "8", "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--server-seed"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, flag):
        # numpy refuses a negative seed with a ValueError; the parser refuses it first
        assert run("generate", flag, "-1", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"dtplace generate: error: argument {flag}: must not be negative"
        ]
        assert "Traceback" not in err and not list(tmp_path.iterdir())

    def test_default_shape_is_full_scale(self, tmp_path):
        assert run("generate", "--seed", "1", "--out", str(tmp_path)) == 0
        s = from_document((tmp_path / "scenario_1.json").read_bytes())
        assert s.num_dts == 15
        assert s.num_servers_total == 4
        assert len(s.devices.workloads) == 120


class TestTrain:
    def test_zero_iterations_empty_trace_valid_checkpoint(self, tmp_path):
        assert run("train", "--iters", "0", "--seed", "3", "--out", str(tmp_path), *TINY) == 0
        with open(tmp_path / "training_trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1  # header only
        ensemble = load_ensemble(tmp_path / "ensemble.npz")
        assert ensemble.num_dts == 3
        assert ensemble.num_servers == 3

    def test_zero_iterations_with_probe_record_the_first_snapshot(self, tmp_path, capsys):
        assert run(
            "train", "--iters", "0", "--probe", "3", "--seed", "3", "--out", str(tmp_path), *TINY
        ) == 0
        with open(tmp_path / "training_trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][0] == "0" and float(rows[1][4]) > 0
        assert "final mean probe Q" in capsys.readouterr().out

    def test_trace_csv_byte_identical_across_runs(self, tmp_path):
        flags = [
            "train", "--iters", "30", "--k", "3", "--db", "16", "--batch", "8",
            "--probe", "4", "--seed", "5", *TINY,
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*flags, "--out", str(a)) == 0
        assert run(*flags, "--out", str(b)) == 0
        trace_a = (a / "training_trace.csv").read_bytes()
        assert trace_a == (b / "training_trace.csv").read_bytes()
        assert len(trace_a.splitlines()) == 1 + 1 + 30
        config = json.loads((a / "train_config.json").read_text())
        assert config["iterations"] == 30 and config["num_dnns"] == 3

    def test_bad_config_without_probe_names_the_grid_point(self, tmp_path, capsys):
        code = run(
            "train", "--iters", "5", "--probe", "0", "--db", "4", "--batch", "8",
            "--out", str(tmp_path), *TINY,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: grid point 'train': batch_size cannot exceed db_capacity\n"

    def test_probe_summary_printed(self, tmp_path, capsys):
        assert (
            run(
                "train", "--iters", "20", "--k", "2", "--db", "8", "--batch", "4",
                "--probe", "3", "--seed", "5", "--out", str(tmp_path), *TINY,
            )
            == 0
        )
        assert "final mean probe Q" in capsys.readouterr().out


class TestSolve:
    @pytest.fixture()
    def scenario_path(self, tmp_path):
        assert run("generate", "--seed", "3", "--out", str(tmp_path), *TINY) == 0
        return str(tmp_path / "scenario_3.json")

    @staticmethod
    def fields(out: str) -> dict:
        return dict(line.split(": ", 1) for line in out.strip().splitlines())

    def test_cloud_only_assignment_echoed(self, scenario_path, capsys):
        assert run("solve", scenario_path, "--scheme", "co") == 0
        fields = self.fields(capsys.readouterr().out)
        assert fields["scheme"] == "co"
        assert fields["assignment"] == "2 2 2"  # cloud is the last index
        assert float(fields["weighted_cost"]) > 0

    def test_exact_not_above_cloud_only(self, scenario_path, capsys):
        assert run("solve", scenario_path, "--scheme", "exact") == 0
        exact = float(self.fields(capsys.readouterr().out)["weighted_cost"])
        assert run("solve", scenario_path, "--scheme", "co") == 0
        cloud = float(self.fields(capsys.readouterr().out)["weighted_cost"])
        assert exact <= cloud

    def test_ddl_with_untrained_checkpoint(self, scenario_path, tmp_path, capsys):
        assert run("train", "--iters", "0", "--seed", "3", "--out", str(tmp_path), *TINY) == 0
        capsys.readouterr()  # drop the train command's path output
        code = run(
            "solve", scenario_path, "--scheme", "ddl",
            "--checkpoint", str(tmp_path / "ensemble.npz"),
        )
        assert code == 0
        assignment = self.fields(capsys.readouterr().out)["assignment"].split()
        assert len(assignment) == 3
        assert all(0 <= int(x) <= 2 for x in assignment)

    @pytest.mark.parametrize("scheme", ["exact", "ro", "co", "ad", "ddl"])
    def test_prints_the_three_totals(self, scenario_path, tmp_path, capsys, scheme):
        assert run("train", "--iters", "0", "--seed", "3", "--out", str(tmp_path), *TINY) == 0
        capsys.readouterr()
        checkpoint = ["--checkpoint", str(tmp_path / "ensemble.npz")] if scheme == "ddl" else []
        assert run("solve", scenario_path, "--scheme", scheme, *checkpoint) == 0
        fields = self.fields(capsys.readouterr().out)
        assert list(fields) == [
            "scheme", "scenario", "num_dts", "num_servers", "assignment",
            "total_time", "total_energy", "weighted_cost", "elapsed_s",
        ]
        assert all(float(fields[k]) > 0 for k in ("total_time", "total_energy", "weighted_cost"))

    def test_ddl_with_malformed_checkpoint_fails_cleanly(self, scenario_path, tmp_path, capsys):
        assert run("train", "--iters", "0", "--seed", "3", "--out", str(tmp_path), *TINY) == 0
        capsys.readouterr()
        checkpoint = tmp_path / "ensemble.npz"
        checkpoint.write_bytes(checkpoint.read_bytes()[:-100])
        code = run("solve", scenario_path, "--scheme", "ddl", "--checkpoint", str(checkpoint))
        assert code == 1
        assert "error: not an ensemble checkpoint" in capsys.readouterr().err

    def test_ddl_with_a_short_extractor_fails_cleanly(self, tmp_path, capsys):
        # a full-shape checkpoint whose ext.params is one value short
        assert run("generate", "--seed", "1", "--out", str(tmp_path)) == 0
        checkpoint = tmp_path / "ensemble.npz"
        save_ensemble(checkpoint, build_ensemble(TrainConfig(iterations=0)))
        with np.load(checkpoint) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["ext.params"] = arrays["ext.params"][:-1]
        with open(checkpoint, "wb") as f:
            np.savez(f, **arrays)
        refusal = r"^not an ensemble checkpoint: .*of a \(96, 32, 8\) network"
        with pytest.raises(ContractError, match=refusal):
            load_ensemble(checkpoint)
        capsys.readouterr()
        scenario = str(tmp_path / "scenario_1.json")
        code = run("solve", scenario, "--scheme", "ddl", "--checkpoint", str(checkpoint))
        assert code == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("error: not an ensemble checkpoint: ")
        assert "Traceback" not in err

    def test_ddl_on_another_server_count_names_both_shapes(self, tmp_path, capsys):
        # 3 servers in the checkpoint, 4 in the document: both give 2 bits per twin
        assert run("train", "--iters", "0", "--seed", "3", "--out", str(tmp_path), *TINY) == 0
        wider = ["--devices", "8", "--dts", "3", "--edges", "3"]
        assert run("generate", "--seed", "4", "--out", str(tmp_path), *wider) == 0
        capsys.readouterr()
        scenario, checkpoint = str(tmp_path / "scenario_4.json"), str(tmp_path / "ensemble.npz")
        assert run("solve", scenario, "--scheme", "ddl", "--checkpoint", checkpoint) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "error: cost tables of shape (1, 3, 4) do not match 3 twins, 3 servers "
            "and a raw batch of 1"
        ]

    def test_negative_seed_is_usage_error(self, scenario_path, capsys):
        capsys.readouterr()
        assert run("solve", scenario_path, "--scheme", "ro", "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "dtplace solve: error: argument --seed: must not be negative"
        ]
        assert "Traceback" not in err

    def test_ddl_without_checkpoint_is_usage_error(self, scenario_path, capsys):
        assert run("solve", scenario_path, "--scheme", "ddl") == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_nan_document_is_refused(self, scenario_path, capsys):
        with open(scenario_path) as fh:
            doc = json.load(fh)
        doc["devices"]["locations"][0][0] = float("nan")
        with open(scenario_path, "w") as fh:
            json.dump(doc, fh)  # writes the NaN token
        assert run("solve", scenario_path, "--scheme", "exact") == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert run("solve", str(tmp_path / "nope.json"), "--scheme", "co") == 1
        assert "error:" in capsys.readouterr().err

    def test_a_document_that_is_not_utf8_fails_cleanly(self, scenario_path, capsys):
        path = Path(scenario_path)
        path.write_bytes(path.read_text().encode("utf-16"))  # starts with bytes ff fe
        assert run("solve", str(path), "--scheme", "co") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid document at byte 0: not UTF-8 (invalid start byte)"
        ]

    @pytest.mark.parametrize("text, message", [
        ("[" * 2000, "error: invalid document: nested too deeply"),
        ("7" * 4301, "error: invalid document: Exceeds the limit (4300 digits)"),
    ], ids=["deep-nesting", "long-integer"])
    def test_json_the_parser_cannot_take_fails_cleanly(self, tmp_path, capsys, text, message):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert run("solve", str(path), "--scheme", "exact") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(message)
        assert "Traceback" not in err

    def test_full_scale_exact_not_above_cloud_only(self, tmp_path, capsys):
        assert run("generate", "--seed", "2", "--out", str(tmp_path)) == 0
        path = str(tmp_path / "scenario_2.json")
        capsys.readouterr()
        assert run("solve", path, "--scheme", "exact") == 0
        exact = self.fields(capsys.readouterr().out)
        assert run("solve", path, "--scheme", "co") == 0
        cloud = self.fields(capsys.readouterr().out)
        assert exact["num_dts"] == "15"
        assert float(exact["weighted_cost"]) <= float(cloud["weighted_cost"])


class TestExperiment:
    TINY_RUN = [
        "--iters", "6", "--probe", "3", "--k", "2", "--db", "4", "--batch", "2",
        "--cadence", "2", "--seed", "9",
    ]

    def test_unknown_name_is_usage_error_listing_options(self, capsys):
        assert run("experiment", "bogus") == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "alpha-compare" in err

    def test_lr_sweep_writes_four_traces(self, tmp_path):
        assert run("experiment", "lr-sweep", *self.TINY_RUN, "--out", str(tmp_path), *TINY) == 0
        traces = sorted(p.name for p in tmp_path.glob("trace_lr_*.csv"))
        assert len(traces) == 4
        sidecar = json.loads((tmp_path / "trace_lr_0.01.json").read_text())
        assert sidecar["learning_rate"] == 0.01
        assert sidecar["probe_count"] == 3

    def test_alpha_compare_table(self, tmp_path):
        assert (
            run("experiment", "alpha-compare", *self.TINY_RUN, "--out", str(tmp_path), *TINY)
            == 0
        )
        with open(tmp_path / "comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        alphas = sorted({row["alpha"] for row in rows})
        assert alphas == ["0.0", "0.25", "0.5", "0.75", "1.0"]
        for alpha in alphas:
            group = {r["scheme"]: float(r["mean_q"]) for r in rows if r["alpha"] == alpha}
            assert set(group) == {"exact", "ro", "co", "ad", "ddl"}
            assert all(group["exact"] <= v + 1e-12 for v in group.values())
        assert len(list(tmp_path.glob("trace_alpha_*.csv"))) == 5

    # SHA-256 of the TINY_RUN alpha-compare outputs; comparison.csv without its elapsed column.
    ALPHA_COMPARE_DIGESTS = {
        "trace_alpha_0.csv": "f98f6374bbc322cf7dff1da98f5c20cc3a86e6537a1f08cb54253bc5a3f82c30",
        "trace_alpha_0.25.csv": "ddc09f296b85f65045dff6f825b695c4e62879b1d44fa8c9b7b453f5400534a1",
        "trace_alpha_0.5.csv": "9a67cdf4a7901f3e0fba4d43a26aa48ec844926580b57b35271faa6f97ffed30",
        "trace_alpha_0.75.csv": "ce7ad3b3a17aaedc45306cf0e3ba3efe90c428ea4e5b2b3621cfdedb7937606d",
        "trace_alpha_1.csv": "4eba56ae6668683ced5cf98a8abf27b84c9a5a9d9b184f17deb272ced1087ca2",
        "comparison.csv": "780cf1b0be47afe52ff98728f6d77ca13d1fb697bac4029301a293cb8e3c6e1e",
    }

    def test_alpha_compare_outputs_are_pinned(self, tmp_path):
        argv = ["experiment", "alpha-compare", *self.TINY_RUN, "--out", str(tmp_path), *TINY]
        assert run(*argv) == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.glob("trace_alpha_*.csv")
        }
        table = (tmp_path / "comparison.csv").read_text()
        kept = "\n".join(line.rsplit(",", 1)[0] for line in table.splitlines())
        digests["comparison.csv"] = hashlib.sha256(kept.encode()).hexdigest()
        assert digests == self.ALPHA_COMPARE_DIGESTS


def test_importing_the_cli_leaves_concurrent_futures_out():
    # Grid points train one after another; a worker pool must be imported where it is used.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, dtplace.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
