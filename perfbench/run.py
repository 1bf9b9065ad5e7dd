#!/usr/bin/env python3
"""dtplace benchmark entry point.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 25 --trace 0

Runs one workload (``train-desk``, ``place-full`` or ``reference-desk``, see
``workloads.py``) in this process, one client in a closed loop, with BLAS
pinned to one thread.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it measures once untraced, replays the same ops with
every layer wrapped, reports per-layer calls and self time and writes the
spans to ``perfbench/out/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment.  The program is imported from ``src/``
next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_repo_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dtplace", "__init__.py")):
        print(f"dtplace sources not found under {src}", file=sys.stderr)
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)


def git_commit() -> str:
    """The checkout's HEAD commit read from ``.git``, or ``unknown`` outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "git_commit": git_commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="dtplace benchmark")
    parser.add_argument(
        "--workload", required=True, choices=("train-desk", "place-full", "reference-desk")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count once, when numpy loads it.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    use_repo_source()
    import workloads

    # CPU seconds of this process since it started: interpreter start-up and imports.
    import_s = time.process_time()
    env = environment()
    workload = workloads.WORKLOADS[args.workload](workloads.Sizes(), args.seed, args.seconds)
    if args.trace:
        header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, **env}
        path = workloads.trace_path(args.workload, args.seed)
        attempted, failed, metrics = workloads.run_traced(workload, args.seconds, path, header)
    else:
        attempted, failed, metrics = workloads.run_untraced(workload, import_s, args.seconds)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
