#!/usr/bin/env python3
"""Cost-landscape summary: how far each baseline sits above the exact optimum.

Prints, for a frozen probe, the mean weighted cost of the random,
cloud-only, and average-distribution placements against the exact optimum,
plus the share of twins the optimum puts on the cloud.  A quick check that
the landscape is neither trivial (everything cloud) nor degenerate before
committing to longer training runs.
"""

import argparse

import numpy as np

from dtplace.cli import _nonnegative, _positive
from dtplace.errors import InvalidConfigError
from dtplace.harness import make_probe, scheme_means
from dtplace.scenario import GeneratorConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--probe", type=_positive, default=64, help="probe scenario count")
    parser.add_argument("--seed", type=_nonnegative, default=0, help="master seed")
    parser.add_argument("--alpha", type=float, default=0.5, help="latency weight")
    parser.add_argument("--devices", type=_positive, default=24)
    parser.add_argument("--dts", type=_positive, default=6)
    parser.add_argument("--edges", type=_positive, default=3)
    args = parser.parse_args()
    config = GeneratorConfig(
        num_devices=args.devices,
        num_dts=args.dts,
        num_edge_servers=args.edges,
        alpha=args.alpha,
        server_seed=args.seed,
    )
    try:
        probe = make_probe(args.seed + 1, args.probe, config)
    except InvalidConfigError as e:
        parser.error(str(e))
    means = scheme_means(probe)
    print(f"probe: {len(probe)} scenarios, alpha {args.alpha:g}, pool seed {args.seed}")
    exact = means["exact"]
    print(f"exact: mean Q {exact:.4f}")
    for name in ("ro", "co", "ad"):
        over = 100 * (means[name] / exact - 1)
        print(f"{name}: mean Q {means[name]:.4f}  (+{over:.1f}% over exact)")
    # the optimum puts each twin on the cheapest server of its table row
    share = np.mean(np.mean(probe.tables.argmin(axis=2) == config.num_edge_servers, axis=1))
    print(f"optimal cloud share: {100 * share:.1f}% of twins")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
