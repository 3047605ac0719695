#!/usr/bin/env python3
"""Monte-Carlo study of the code-overlap moments of Haar-random states.

For each qubit count: estimates E[alpha_+], E[epsilon^2], checks them
against the exact rationals, runs the tail-bound comparison on the same
states, and probes the Lipschitz ratio.  The seed is mandatory and echoed
in the output.
"""

import argparse
import json
import math
import sys


def run(args: argparse.Namespace) -> dict:
    from cliffdesigns import moments

    out = {"config": {"ns": args.n, "samples": args.samples, "seed": args.seed,
                      "thresholds": args.thresholds, "pairs": args.pairs}}
    out["reports"] = []
    for n in args.n:
        alphas = moments.haar_alphas(n, args.samples, args.seed)
        rep = moments.mc_moment_report(n, args.samples, args.seed, alphas=alphas)
        rep["concentration"] = moments.concentration_report(
            n, args.samples, args.thresholds, args.seed, alphas=alphas
        )
        rep["lipschitz"] = moments.lipschitz_probe(n, args.pairs, args.seed)
        out["reports"].append(rep)
    out["pass"] = all(
        all(r["pass"].values()) and r["concentration"]["pass"] and r["lipschitz"]["within_proven"]
        for r in out["reports"]
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--samples", type=int, default=100000)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--thresholds", type=float, nargs="+", default=[0.25, 0.5])
    ap.add_argument("--pairs", type=int, default=3000)
    args = ap.parse_args()
    from cliffdesigns.cli import MOMENTS_MAX_N

    if not all(1 <= n <= MOMENTS_MAX_N for n in args.n):
        ap.error(f"--n must lie in 1..{MOMENTS_MAX_N}, as for the moments command, "
                 f"got --n {' '.join(map(str, args.n))}")
    if args.seed < 0:
        ap.error(f"--seed must be a non-negative integer, got --seed {args.seed}")
    if not all(0 < x < math.inf for x in args.thresholds):  # also false for nan
        ap.error("--thresholds must be positive finite numbers, "
                 f"got --thresholds {' '.join(map(str, args.thresholds))}")
    if args.samples < 10**4:
        ap.error("--samples must be at least 10000 for the tail study")
    if args.pairs < 10**3:
        ap.error("--pairs must be at least 1000 for the Lipschitz probe")
    out = run(args)
    print(json.dumps(out, indent=2, default=float))
    return 0 if out["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
