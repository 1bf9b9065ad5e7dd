#!/usr/bin/env python3
"""Paired benchmark runs of a parent tree against this checkout.

    python3 scripts/bench.py --workload place-full --seeds 7201 7202 \\
        --baseline <sha> --label place-full

Runs ``perfbench/run.py --trace 0`` for one workload on each seed, once on
the parent and once on this checkout, as pairs that alternate which side
runs first, then one ``--trace 1`` pass per side on the first seed.  The
parent is ``src/`` of ``--baseline <sha>`` (exported with ``git archive``)
or a copy of ``--baseline-src DIR``, placed in a temporary directory next to
a copy of this checkout's ``perfbench/``, so both sides run the same
benchmark.  Writes ``BENCH_<label>.json``: the command, the
machine, the environment line ``run.py`` prints, the metric units, a
per-metric summary (medians, the parent's interquartile range, the pairs
the change wins, its worsening against the metric's bound, each side's
share of failed operations and whether it shows a gain), each side's
per-layer block from its traced pass, and every run's side, seed and
metrics.  The traced pass replays as many ops as its untraced pass
finished, so a faster side traces more ops; the per-layer block therefore
gives the traced op count ``ops`` and each layer's calls and self
microseconds per op, which compare across sides.  Uses the standard library
and subprocesses only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_tree(dest: str, baseline: str | None = None, baseline_src: str | None = None) -> str:
    """Lay out ``src/`` of the baseline and this checkout's ``perfbench/`` under ``dest``.

    Returns a description of where the baseline's ``src/`` came from.
    """
    if baseline_src is not None:
        shutil.copytree(baseline_src, os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        origin = f"{os.path.abspath(baseline_src)}, copied"
    else:
        sha = _git("rev-parse", "--verify", f"{baseline}^{{commit}}").decode().strip()
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha, "src"))) as tar:
            tar.extractall(dest, filter="data")
        origin = f"{sha}, exported with git archive"
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    return origin


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[str, dict]:
    """One ``perfbench/run.py`` process in ``tree``: its ``env:`` line and its result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
        capture_output=True, text=True, env=env,
    )
    if done.returncode != 0:
        raise SystemExit(f"run.py in {tree} failed on seed {seed}:\n{done.stderr}")
    *_, env_line, result = done.stdout.strip().splitlines()
    return env_line, json.loads(result)


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: the medians, the parent's quartiles, the pairs won and the acceptance rules.

    ``metrics`` maps each name to its ``end_to_end`` entry of ``BENCHMARK.json``
    (``better`` and ``bound``).  ``worse_by`` is how much worse the change's
    median is than the parent's, relative to the parent's and negative when
    it is better; ``within_bound`` says it is at most ``bound``.
    ``<side>_failed_share`` is the side's failed operations over its
    attempted ones, over all its runs.  ``gain_shown`` says the change won at
    least 9 of every 10 pairs, its median beats the parent's by more than the
    parent's interquartile range, and its failed share is not the larger.
    """
    failed = {
        side: sum(r["failed"] for r in runs if r["side"] == side)
        / sum(r["attempted"] for r in runs if r["side"] == side)
        for side in ("parent", "change")
    }
    out = {}
    for name, metric in metrics.items():
        parent = [r["metrics"][name] for r in runs if r["side"] == "parent"]
        change = [r["metrics"][name] for r in runs if r["side"] == "change"]
        # quantiles needs two points; a single run has no spread
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
        sign = 1 if metric["better"] == "higher" else -1
        p_med, c_med = statistics.median(parent), statistics.median(change)
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        worse_by = sign * (p_med - c_med) / p_med  # every metric is positive
        out[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "parent_iqr": q3 - q1,
            "change_better_pairs": won,
            "pairs": len(parent),
            "worse_by": worse_by,
            "bound": metric["bound"],
            "within_bound": worse_by <= metric["bound"],
            "parent_failed_share": failed["parent"],
            "change_failed_share": failed["change"],
            "gain_shown": (10 * won >= 9 * len(parent) and sign * (c_med - p_med) > q3 - q1
                           and failed["change"] <= failed["parent"]),
        }
    return out


def per_op(result: dict) -> dict:
    """A traced run's op count and each layer's ``calls_per_op`` and ``self_us_per_op``.

    The traced pass replays the ops its untraced pass finished, so half the
    attempted ops are traced ones.
    """
    ops = result["attempted"] // 2
    out = {"ops": ops}
    for key, metric in result["metrics"].items():
        if key.endswith(".calls"):
            out[f"{key.removesuffix('.calls')}.calls_per_op"] = metric["value"] / ops
        elif key.endswith(".self_s"):
            out[f"{key.removesuffix('.self_s')}.self_us_per_op"] = 1e6 * metric["value"] / ops
    return out


def dump(bench: dict) -> str:
    """Indented JSON with one line per run."""
    head = json.dumps({k: v for k, v in bench.items() if k != "runs"}, indent=1)
    runs = ",\n".join("  " + json.dumps(r) for r in bench["runs"])
    return head[:-2] + ',\n "runs": [\n' + runs + "\n ]\n}\n"


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} CPUs ({model}), {platform.system()} {platform.release()}"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="run.py --seconds")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--out", default=ROOT, help="directory to write into, made if missing")
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--baseline", help="parent commit whose src/ is exported with git archive")
    side.add_argument("--baseline-src", help="parent src/ directory, copied")
    args = parser.parse_args(argv)

    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    os.makedirs(args.out, exist_ok=True)  # before the runs, so a bad --out fails at once
    runs, units, env_line = [], {}, None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        origin = export_tree(parent_tree, args.baseline, args.baseline_src)
        trees = {"parent": parent_tree, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                line, result = run_once(trees[side], args.workload, seed, args.seconds)
                if side == "change":
                    env_line = env_line or line
                units = {k: m["unit"] for k, m in result["metrics"].items()}
                runs.append({
                    "side": side, "seed": seed, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                })
                print(json.dumps(runs[-1]), flush=True)
        per_layer = {"command": f"python3 perfbench/run.py --workload {args.workload} "
                                f"--seed {args.seeds[0]} --seconds {args.seconds:g} --trace 1"}
        for side in ("parent", "change"):
            _, result = run_once(trees[side], args.workload, args.seeds[0], args.seconds, trace=1)
            per_layer[side] = per_op(result)

    bench = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g} --trace 0",
        "machine": machine(),
        "sides": {
            "parent": origin,
            "change": "the working tree of this checkout, at the env line's git_commit",
        },
        "order": "pairs alternate which side runs first; the first pair ran the parent first",
        "env": env_line,
        "units": units,
        "summary": summarize(runs, {k: end_to_end[k] for k in units}),
        "per_layer": per_layer,
        "runs": runs,
    }
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        fh.write(dump(bench))
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
