#!/usr/bin/env python3
"""Byte parity of this checkout's ``src/`` against a parent's.

    python3 scripts/parity.py <sha>
    python3 scripts/parity.py --baseline-src DIR [--quick]

Lays out the parent's ``src/`` with ``bench.export_tree`` (``git archive``
of ``<sha>``, or a copy of ``DIR``) and runs one fixed set of ``dtplace``
commands in the parent's tree and in this checkout, each as a subprocess
under one environment with ``OPENBLAS_NUM_THREADS=1``:

* ``generate`` at desk shape, at full shape and with ``--server-seed 3``;
* ``train --iters 1150 --seed 11 --probe 32`` and
  ``train --full --iters 150 --seed 5 --probe 0 --db 64 --batch 32``;
* ``solve`` under exact, ro, co, ad and ddl on the 20 desk and the 20 full
  documents, ddl with the tree's own checkpoint of that shape.

Every command writes under its side's work directory by relative paths, so
their outputs compare as they are.  Files compare byte for byte, CSVs with
any ``elapsed`` column set aside, ``.npz`` archives array by array
(``array_equal`` and dtype) and ``solve`` output with its ``elapsed_s`` line
set aside.  Prints the BLAS core type, one verdict per artifact and a count,
and exits 1 on any difference.  ``--quick`` runs the same commands on two
documents per shape and tiny training runs, in a few seconds.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402  (a sibling script: export_tree and ROOT)

SCHEMES = ("exact", "ro", "co", "ad", "ddl")

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


def difference(parent: str, change: str) -> str | None:
    """How the change's file differs from the parent's, or None when they match."""
    if not os.path.exists(parent) or not os.path.exists(change):
        return "present on one side only"
    if parent.endswith(".npz"):
        with np.load(parent) as a, np.load(change) as b:
            if sorted(a.files) != sorted(b.files):
                return f"entries {sorted(a.files)} vs {sorted(b.files)}"
            bad = [k for k in a.files if a[k].dtype != b[k].dtype or not np.array_equal(a[k], b[k])]
        return f"arrays differ: {', '.join(bad)}" if bad else None
    if parent.endswith(".csv"):
        a, b = _csv_without_elapsed(parent), _csv_without_elapsed(change)
    elif os.path.basename(parent).startswith("solve-"):
        with open(parent) as fa, open(change) as fb:
            a, b = ([line for line in f if not line.startswith("elapsed_s:")] for f in (fa, fb))
    else:
        with open(parent, "rb") as fa, open(change, "rb") as fb:
            a, b = fa.read(), fb.read()
    if a == b:
        return None
    if isinstance(a, list):
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"first difference at line {first + 1} ({len(a)} vs {len(b)} lines)"
    return f"bytes differ ({len(a)} vs {len(b)})"


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
    args = parser.parse_args(argv)

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
        differ = 0
        for name in names:
            why = difference(os.path.join(work["parent"], name), os.path.join(work["change"], name))
            differ += why is not None
            print(f"same  {name}" if why is None else f"DIFF  {name}: {why}")
    print(f"parity: {len(names)} artifacts, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
