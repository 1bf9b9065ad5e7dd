"""Command-line front end.

Four subcommands cover the artifact's workflows: ``generate`` writes scenario
documents, ``train`` produces an ensemble checkpoint plus its training trace,
``solve`` prices one scenario under any scheme, and ``experiment`` reproduces
the named sweeps.  Every run is a pure function of its flags; all randomness
descends from ``--seed``.

Sweeps default to a desk-scale pool (M=6, N=24, S=3); ``--full`` switches to
the full-scale shape (M=15, N=120, S=3).  Both carry the exact optimum as
the reference row.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import ddl, harness
from .ddl import TrainConfig
from .errors import (
    ContractError,
    InvalidConfigError,
    ParseError,
    SlotCapacityError,
    ValidationError,
)
from .exact import (
    scheme_average_distribution,
    scheme_cloud_only,
    scheme_random,
    solve_exact,
)
from .scenario import GeneratorConfig, from_document, generate_random, to_document

_RUNTIME_ERRORS = (
    ContractError,
    InvalidConfigError,
    ParseError,
    SlotCapacityError,
    ValidationError,
    OSError,
)

EXPERIMENT_NAMES = ("lr-sweep", "dnn-sweep", "dbsize-sweep", "alpha-compare")

LEARNING_RATE_GRID = (1e-5, 1e-4, 1e-3, 1e-2)
DNN_COUNT_GRID = (2, 4, 8, 12, 16)
DB_SIZE_GRID = (128, 256, 512, 1024)
ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _shape(args, training: bool) -> GeneratorConfig:
    """Generator config from shape flags over a desk or full-scale base.

    Training defaults to the desk shape and pins the server pool to
    ``--seed``, because one ensemble serves one server deployment.
    """
    config = GeneratorConfig()
    if training:
        config = dataclasses.replace(config, server_seed=args.seed)
        if not args.full:
            config = dataclasses.replace(config, num_devices=24, num_dts=6)
    overrides = {}
    for flag, field_name in (
        ("devices", "num_devices"),
        ("dts", "num_dts"),
        ("edges", "num_edge_servers"),
        ("alpha", "alpha"),
        ("server_seed", "server_seed"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field_name] = value
    return dataclasses.replace(config, **overrides) if overrides else config


def cmd_generate(args) -> int:
    config = _shape(args, training=False)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = args.seed + i
        path = out / f"scenario_{seed}.json"
        path.write_bytes(to_document(generate_random(seed, config)))
        print(path)
    sidecar = {
        "generator": dataclasses.asdict(config),
        "seed": args.seed,
        "count": args.count,
    }
    (out / "generate_config.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
    return 0


def _train_config(args, generator: GeneratorConfig) -> TrainConfig:
    return TrainConfig(
        iterations=args.iters,
        num_dnns=args.k,
        learning_rate=args.lr,
        db_capacity=args.db,
        batch_size=args.batch,
        generator=generator,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    generator = _shape(args, training=True)
    config = _train_config(args, generator)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    probe = harness.make_probe(args.seed + 1, args.probe, generator) if args.probe else None
    (report,) = harness.run_training_experiment([("train", config)], probe, cadence=args.cadence)
    checkpoint = out / "ensemble.npz"
    ddl.save_ensemble(checkpoint, report.ensemble)
    trace = out / "training_trace.csv"
    harness.write_trace_csv(trace, report)
    harness.write_config_sidecar(
        out / "train_config.json",
        config,
        extra={"probe": args.probe, "probe_seed": args.seed + 1, "cadence": args.cadence},
    )
    print(checkpoint)
    print(trace)
    if report.eval_points:
        print(f"final mean probe Q: {report.eval_points[-1].mean_probe_q:.6g}")
    return 0


def cmd_solve(args) -> int:
    scenario = from_document(Path(args.scenario).read_bytes())
    if args.scheme == "exact":
        result = solve_exact(scenario)
    elif args.scheme == "ro":
        result = scheme_random(scenario, args.seed)
    elif args.scheme == "co":
        result = scheme_cloud_only(scenario)
    elif args.scheme == "ad":
        result = scheme_average_distribution(scenario)
    else:
        ensemble = ddl.load_ensemble(args.checkpoint)
        result = ddl.infer(ensemble, scenario)
    print(f"scheme: {result.scheme_name}")
    print(f"scenario: {args.scenario}")
    print(f"num_dts: {scenario.num_dts}")
    print(f"num_servers: {scenario.num_servers_total}")
    print("assignment: " + " ".join(str(x) for x in result.decision.assignment))
    for key, value in dataclasses.asdict(result.cost).items():
        print(f"{key}: {value!r}")
    print(f"elapsed_s: {result.elapsed:.6f}")
    return 0


def run_named_experiment(
    name: str,
    base: TrainConfig,
    *,
    probe_count: int,
    cadence: int = 10,
    out_dir=None,
) -> tuple[list, list | None]:
    """Run one named sweep; return its reports and comparison rows (or None).

    CSVs are written under ``out_dir`` when given.

    ``base`` carries the shape, seed, iteration count and the non-swept
    hyperparameters; each sweep replaces only its own axis.  The probe set
    is drawn from ``base.seed + 1`` so it never collides with the scenario
    stream of a same-seed training run.
    """
    if name not in EXPERIMENT_NAMES:
        raise ContractError(
            f"unknown experiment {name!r}; options: {', '.join(EXPERIMENT_NAMES)}"
        )
    probe = harness.make_probe(base.seed + 1, probe_count, base.generator)
    if name == "lr-sweep":
        grid = [
            (f"lr_{lr:g}", dataclasses.replace(base, learning_rate=lr))
            for lr in LEARNING_RATE_GRID
        ]
    elif name == "dnn-sweep":
        grid = [
            (f"k_{k}", dataclasses.replace(base, num_dnns=k)) for k in DNN_COUNT_GRID
        ]
    elif name == "dbsize-sweep":
        grid = [
            (f"db_{n}", dataclasses.replace(base, db_capacity=n, batch_size=min(base.batch_size, n)))
            for n in DB_SIZE_GRID
        ]
    else:  # alpha-compare: the cost mix changes, so each alpha trains its own ensemble
        grid = [
            (
                f"alpha_{alpha:g}",
                dataclasses.replace(base, generator=dataclasses.replace(base.generator, alpha=alpha)),
            )
            for alpha in ALPHA_GRID
        ]
    reports = harness.run_training_experiment(grid, probe, cadence)
    rows = None
    if name == "alpha-compare":
        ensembles = {r.config.generator.alpha: r.ensemble for r in reports}
        rows = harness.run_comparison(probe, ensembles)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for report in reports:
            harness.write_trace_csv(out / f"trace_{report.label}.csv", report)
            harness.write_config_sidecar(
                out / f"trace_{report.label}.json",
                report.config,
                extra={
                    "label": report.label,
                    "probe_seed": probe.seed,
                    "probe_count": len(probe),
                    "cadence": cadence,
                },
            )
        if rows is not None:
            harness.write_comparison_csv(out / "comparison.csv", rows)
            harness.write_config_sidecar(
                out / "comparison_config.json",
                base,
                extra={
                    "alphas": list(ALPHA_GRID),
                    "probe_seed": probe.seed,
                    "probe_count": len(probe),
                },
            )
    return reports, rows


def cmd_experiment(args) -> int:
    reports, rows = run_named_experiment(
        args.name,
        _train_config(args, _shape(args, training=True)),
        probe_count=args.probe,
        cadence=args.cadence,
        out_dir=args.out,
    )
    for report in reports:
        final = report.eval_points[-1].mean_probe_q if report.eval_points else float("nan")
        stable = report.iterations_to_converge()
        print(
            f"{report.label}: final mean probe Q {final:.6g}, "
            f"stable at {stable if stable is not None else 'never'}, "
            f"{report.elapsed:.1f}s"
        )
    if rows is not None:
        for row in rows:
            print(
                f"alpha {row.alpha:g} {row.scheme}: mean Q {row.mean_q:.6g} "
                f"(T {row.mean_t:.6g}, E {row.mean_e:.6g})"
            )
    return 0


def _add_shape_flags(parser: argparse.ArgumentParser, with_full: bool) -> None:
    parser.add_argument("--devices", type=_positive, help="device count N")
    parser.add_argument("--dts", type=_positive, help="digital twin count M")
    parser.add_argument("--edges", type=_positive, help="edge server count S")
    parser.add_argument("--alpha", type=float, help="latency weight in [0, 1]")
    parser.add_argument(
        "--server-seed",
        type=_nonnegative,
        help="fixed server pool seed (default: the master seed for train/experiment)",
    )
    if with_full:
        parser.add_argument(
            "--full",
            action="store_true",
            help="full-scale shape (M=15, N=120)",
        )


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=_positive, default=12, help="networks in the ensemble")
    parser.add_argument("--lr", type=float, default=1e-3, help="Adam learning rate")
    parser.add_argument("--db", type=_positive, default=1024, help="replay database capacity")
    parser.add_argument("--batch", type=_positive, default=128, help="training batch size")
    parser.add_argument(
        "--cadence", type=_positive, default=10, help="iterations between probe snapshots"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtplace",
        description="Digital-twin placement: scenarios, training, solving, sweeps.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=_nonnegative,
        default=0,
        help="master seed; every random choice derives from it",
    )
    common.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser(
        "generate", parents=[common], help="write scenario documents from consecutive seeds"
    )
    g.add_argument("--count", type=_positive, default=1, help="scenarios to write")
    _add_shape_flags(g, with_full=False)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser(
        "train", parents=[common], help="train an ensemble, write checkpoint and trace"
    )
    t.add_argument("--iters", type=_nonnegative, required=True, help="training iterations")
    _add_train_flags(t)
    t.add_argument(
        "--probe",
        type=_nonnegative,
        default=0,
        help="probe scenarios to snapshot during training (0 disables)",
    )
    _add_shape_flags(t, with_full=True)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("solve", parents=[common], help="place one scenario's twins")
    s.add_argument("scenario", help="scenario document path")
    s.add_argument(
        "--scheme", required=True, choices=("exact", "ro", "co", "ad", "ddl")
    )
    s.add_argument("--checkpoint", help="ensemble checkpoint (required for --scheme ddl)")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser(
        "experiment", parents=[common], help="reproduce a named sweep, write CSVs"
    )
    e.add_argument("name", choices=EXPERIMENT_NAMES)
    e.add_argument("--iters", type=_nonnegative, default=3000, help="iterations per grid point")
    e.add_argument("--probe", type=_positive, default=256, help="probe scenario count")
    _add_train_flags(e)
    _add_shape_flags(e, with_full=True)
    e.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve" and args.scheme == "ddl" and not args.checkpoint:
            parser.error("--checkpoint is required with --scheme ddl")
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        return args.func(args)
    except _RUNTIME_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
