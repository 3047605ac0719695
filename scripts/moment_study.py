#!/usr/bin/env python3
"""Monte-Carlo study of the code-overlap moments of Haar-random states.

For each qubit count: estimates E[alpha_+], E[epsilon^2], checks them
against the exact rationals, runs the tail-bound comparison on the same
states, and probes the Lipschitz ratio.  The seed is mandatory and echoed
in the output.
"""

import argparse
import json
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class StudyConfig:
    ns: tuple
    samples: int
    seed: int
    thresholds: tuple
    pairs: int


def run(cfg: StudyConfig) -> dict:
    from cliffdesigns import moments

    out = {"config": cfg.__dict__ | {"ns": list(cfg.ns), "thresholds": list(cfg.thresholds)}}
    out["reports"] = []
    for n in cfg.ns:
        alphas = moments.haar_alphas(n, cfg.samples, cfg.seed)
        rep = moments.mc_moment_report(n, cfg.samples, cfg.seed, alphas=alphas)
        rep["concentration"] = moments.concentration_report(
            n, cfg.samples, cfg.thresholds, cfg.seed, alphas=alphas
        )
        rep["lipschitz"] = moments.lipschitz_probe(n, cfg.pairs, cfg.seed)
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
    if args.samples < 10**4:
        ap.error("--samples must be at least 10000 for the tail study")
    cfg = StudyConfig(
        ns=tuple(args.n),
        samples=args.samples,
        seed=args.seed,
        thresholds=tuple(args.thresholds),
        pairs=args.pairs,
    )
    out = run(cfg)
    print(json.dumps(out, indent=2, default=float))
    return 0 if out["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
