#!/usr/bin/env python3
"""Byte parity of this checkout's ``src/`` against a parent's.

    python3 scripts/parity.py <sha> [--costs-rel TOL]
    python3 scripts/parity.py --baseline-src DIR [--quick] [--costs-rel TOL]

Lays out the parent's ``src/`` with ``bench.export_tree`` (``git archive``
of ``<sha>``, or a copy of ``DIR``) and runs one fixed set of ``dtplace``
commands in the parent's tree and in this checkout, each as a subprocess
under one environment with ``OPENBLAS_NUM_THREADS=1``:

* ``generate`` at desk shape, at full shape and with ``--server-seed 3``;
* ``train --iters 1150 --seed 11 --probe 32`` and
  ``train --full --iters 150 --seed 5 --probe 0 --db 64 --batch 32``;
* ``experiment alpha-compare --iters 1100 --probe 32 --seed 11``;
* ``solve`` under exact, ro, co, ad and ddl on the 20 desk and the 20 full
  documents, ddl with the tree's own checkpoint of that shape.

Every command writes under its side's work directory by relative paths, so
their outputs compare as they are.  Files compare byte for byte, CSVs with
any ``elapsed`` column set aside, ``.npz`` archives array by array
(``array_equal`` and dtype), ``solve`` output with its ``elapsed_s`` line
set aside and each run's stdout with the ``, <seconds>s`` wall time that
ends an experiment's grid-point lines set aside.  Prints the BLAS core type,
one verdict per artifact and a count, and exits 1 on any difference.
``--quick`` leaves the experiment out and runs the other commands on two
documents per shape and tiny training runs, in a few seconds.

``--costs-rel TOL`` lets the evaluated costs move by rounding: the
``chosen_q`` column of ``training_trace.csv`` and the ``total_energy:`` and
``weighted_cost:`` lines of ``solve`` output then compare as numbers within
relative ``TOL``, and a file that differs only there gets the verdict
``close``.  Everything else still compares byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402  (a sibling script: export_tree and ROOT)

SCHEMES = ("exact", "ro", "co", "ad", "ddl")

# What --costs-rel compares as numbers: a column of the training traces, and
# the lines of solve output that start so.
COST_TRACE, COST_COLUMN = "training_trace.csv", "chosen_q"
COST_LINES = ("total_energy:", "weighted_cost:")

# The wall time that ends each grid-point line of ``dtplace experiment`` output.
WALL_TIME = re.compile(r", [0-9]+\.[0-9]s$")

# Solves run in one process per side; each run's output goes to its own file.
SOLVE_DRIVER = """
import contextlib, json, sys
from dtplace.cli import main
codes = []
for name, argv in json.load(sys.stdin):
    with open(name, "a") as fh, contextlib.redirect_stdout(fh):
        codes.append(main(argv))
sys.exit(max(codes))
"""

# The core type OpenBLAS picked for this machine, read from the library numpy loaded.
CORE_PROBE = """
import ctypes, numpy
libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line and ".so" in line}
for path in sorted(libs):
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        get = getattr(ctypes.CDLL(path), name, None)
        if get is not None:
            get.restype, get.argtypes = ctypes.c_char_p, []
            print(get().decode())
            raise SystemExit
print("unknown")
"""


def command_set(quick: bool) -> tuple[list, list]:
    """The runs, as ``(output directory, dtplace arguments)``, and the solves, as
    ``(output file, dtplace arguments)``."""
    count = "2" if quick else "20"
    runs = [
        ("desk", ["generate", "--seed", "100", "--count", count, "--devices", "24", "--dts", "6"]),
        ("full", ["generate", "--seed", "200", "--count", count]),
        ("pool3", ["generate", "--seed", "300", "--count", count, "--server-seed", "3"]),
    ]
    if quick:
        runs += [
            ("train-desk", ["train", "--iters", "30", "--seed", "11", "--probe", "4", "--k", "2",
                            "--db", "16", "--batch", "8"]),
            ("train-full", ["train", "--full", "--iters", "10", "--seed", "5", "--probe", "0", "--k", "2",
                            "--db", "8", "--batch", "4"]),
        ]
    else:
        runs += [
            ("train-desk", ["train", "--iters", "1150", "--seed", "11", "--probe", "32"]),
            ("train-full", ["train", "--full", "--iters", "150", "--seed", "5", "--probe", "0",
                            "--db", "64", "--batch", "32"]),
            ("alpha-compare", ["experiment", "alpha-compare", "--iters", "1100", "--probe", "32",
                               "--seed", "11"]),
        ]
    solves = []
    for shape, first in (("desk", 100), ("full", 200)):
        for scheme in SCHEMES:
            extra = ["--checkpoint", f"train-{shape}/ensemble.npz"] if scheme == "ddl" else []
            solves += [
                (f"solve-{shape}-{scheme}.out",
                 ["solve", f"{shape}/scenario_{seed}.json", "--scheme", scheme, *extra])
                for seed in range(first, first + int(count))
            ]
    return runs, solves


def run_side(src: str, work: str, env: dict, runs: list, solves: list) -> None:
    """Every run and solve with ``src`` on the path, from ``work``."""
    env = {**env, "PYTHONPATH": os.path.abspath(src)}
    os.makedirs(work)
    for out, argv in runs:
        done = subprocess.run([sys.executable, "-m", "dtplace.cli", *argv, "--out", out],
                              cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"dtplace {' '.join(argv)} failed in {src}:\n{done.stderr}")
        with open(os.path.join(work, f"{out}.stdout"), "w") as fh:
            fh.write(done.stdout)
    done = subprocess.run([sys.executable, "-c", SOLVE_DRIVER], input=json.dumps(solves),
                          cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"dtplace solve failed in {src}:\n{done.stderr}")


def _csv_without_elapsed(path: str) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0] if rows else []) if not name.startswith("elapsed")]
    return [[row[i] for i in keep if i < len(row)] for row in rows]


def _trace_costs(rows: list) -> tuple[list, list]:
    """Training-trace rows without their ``chosen_q`` column, and that column's cells."""
    if not rows or COST_COLUMN not in rows[0]:
        return rows, []
    i = rows[0].index(COST_COLUMN)
    return [row[:i] + row[i + 1:] for row in rows], [row[i] for row in rows[1:] if i < len(row)]


def _solve_costs(lines: list) -> tuple[list, list]:
    """Solve output with the numbers cut off its cost lines, and those numbers."""
    kept, costs = [], []
    for line in lines:
        key = next((k for k in COST_LINES if line.startswith(k)), None)
        kept.append(key or line)
        if key:
            costs.append(line[len(key):])
    return kept, costs


def _relative(a: str, b: str) -> float:
    """How far apart two numbers written as text are, relative to the larger; inf if not numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def difference(parent: str, change: str, costs_rel: float | None = None) -> tuple[str, str | None]:
    """The verdict on the change's file against the parent's, ``same``, ``close`` or ``DIFF``, and why."""
    if not os.path.exists(parent) or not os.path.exists(change):
        return "DIFF", "present on one side only"
    costs_apart = None
    if parent.endswith(".npz"):
        with np.load(parent) as a, np.load(change) as b:
            if sorted(a.files) != sorted(b.files):
                return "DIFF", f"entries {sorted(a.files)} vs {sorted(b.files)}"
            bad = [k for k in a.files if a[k].dtype != b[k].dtype or not np.array_equal(a[k], b[k])]
        return ("DIFF", f"arrays differ: {', '.join(bad)}") if bad else ("same", None)
    if parent.endswith(".csv"):
        a, b = _csv_without_elapsed(parent), _csv_without_elapsed(change)
        if os.path.basename(parent) == COST_TRACE:
            costs_apart = _trace_costs
    elif os.path.basename(parent).startswith("solve-"):
        with open(parent) as fa, open(change) as fb:
            a, b = ([line for line in f if not line.startswith("elapsed_s:")] for f in (fa, fb))
        costs_apart = _solve_costs
    elif parent.endswith(".stdout"):
        with open(parent) as fa, open(change) as fb:
            a, b = ([WALL_TIME.sub("", line) for line in f] for f in (fa, fb))
    else:
        with open(parent, "rb") as fa, open(change, "rb") as fb:
            a, b = fa.read(), fb.read()
    if a == b:
        return "same", None
    if costs_rel is not None and costs_apart is not None:
        (rest_a, costs_a), (rest_b, costs_b) = costs_apart(a), costs_apart(b)
        worst = max(map(_relative, costs_a, costs_b), default=0.0)
        if rest_a == rest_b and len(costs_a) == len(costs_b) and worst <= costs_rel:
            return "close", f"costs within relative {worst:.3g}"
    if isinstance(a, list):
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return "DIFF", f"first difference at line {first + 1} ({len(a)} vs {len(b)} lines)"
    return "DIFF", f"bytes differ ({len(a)} vs {len(b)})"


def artifacts(work: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(root, name), work)
        for root, _, names in os.walk(work) for name in names
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("baseline", nargs="?", help="parent commit whose src/ is exported with git archive")
    side.add_argument("--baseline-src", help="parent src/ directory, copied")
    parser.add_argument("--quick", action="store_true", help="two documents per shape, tiny training runs")
    parser.add_argument("--costs-rel", type=float, metavar="TOL",
                        help="compare chosen_q, total_energy and weighted_cost within relative TOL")
    args = parser.parse_args(argv)
    if args.costs_rel is not None and not args.costs_rel >= 0:
        parser.error("--costs-rel must be a number >= 0")

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    core = subprocess.run([sys.executable, "-c", CORE_PROBE], env=env, capture_output=True, text=True)
    print(f"blas core type: {core.stdout.strip() or 'unknown'}, OPENBLAS_NUM_THREADS=1")
    runs, solves = command_set(args.quick)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tree = os.path.join(tmp, "parent-tree")
        print(f"parent: {bench.export_tree(tree, args.baseline, args.baseline_src)}")
        print(f"change: {os.path.join(bench.ROOT, 'src')}")
        work = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        run_side(os.path.join(tree, "src"), work["parent"], env, runs, solves)
        run_side(os.path.join(bench.ROOT, "src"), work["change"], env, runs, solves)
        names = sorted(artifacts(work["parent"]) | artifacts(work["change"]))
        verdicts = []
        for name in names:
            verdict, why = difference(os.path.join(work["parent"], name), os.path.join(work["change"], name),
                                      args.costs_rel)
            verdicts.append(verdict)
            print(f"{verdict:<5} {name}" + (f": {why}" if why else ""))
    close = f"{verdicts.count('close')} close, " if args.costs_rel is not None else ""
    differ = verdicts.count("DIFF")
    print(f"parity: {len(names)} artifacts, {close}{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
