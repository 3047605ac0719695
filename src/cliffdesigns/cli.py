"""Command-line surface: reproducible experiments with JSON/CSV output.

Subcommands
-----------
tables      exact dimension ledger, orbit-counting oracle, group potentials
check       deviation metrics of a named or file-loaded state
construct   exact fiducials (tensor completion / epsilon root) and weighted
            two-orbit designs (n <= 10)
moments     Monte-Carlo moment and tail study with pinned seed
singer      basis-cycler deviation table
orbit       frame potential of a Clifford orbit (exact: n <= 10 at t = 4 and
            n <= 2 otherwise; or Monte-Carlo)

Every randomized command requires --seed and echoes it back; exit status
is 0 iff every assertion embedded in the requested computation passed.
State files are JSON: {"n": int, "amplitudes": [[re, im], ...]}.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

# An orbit --mode mc estimate passes while it lies at most this many of its
# standard errors, or minimum * designs.POTENTIAL_RTOL, below the design
# minimum; exact mode and construct --weighted grade relative to the
# minimum alone, as it falls to 2.2e-11 at n = 10, t = 4 and to 5e-32 at
# n = 3, t = 100000.
ORBIT_MC_SIGMAS = 4
# exact orbit --t 4 is the closed form in epsilon, read off the d^2 Pauli
# expectations: 0.07 s at n = 10, 0.5 s and 355 MB at n = 12, 2.1 s and
# 1.25 GB at n = 13.  check and construct --alg1/--alg2 grade their state
# with the same kernel and share the cap.  Other t sum over the
# materialized group, n <= 2 (clifford.ORBIT_MAX_N; 92 897 280 elements
# at n = 3).
ORBIT_T4_MAX_N = 10
ELL4_COST = "the d^2 Pauli expectations cost 0.5 s and 355 MB at n = 12"
# tables prints closed forms for n = 1..N, at a cost growing about as N^5:
# 0.26 s at N = 32, 1.6 s at 48 and 8.3 s at 64 (1.2 and 3.6 MB of JSON).
TABLES_MAX_N = 32
# moments samples 2^n-dimensional Haar states, about 3 s per 10^5 states at
# n = 5, 26 s at n = 7 and 110 s at n = 8; the exact moments hold for any n.
MOMENTS_MAX_N = 5
# singer builds the n-qubit cycler's eigenbasis from two orbits of its
# normal-form step: 0.45-0.7 s and 92 MB at n = 10 in a fresh process,
# 0.3 s of it the eigenbasis, and each further qubit about 4 times the time.
# The dense lift the normal form is read from holds d^2 complex entries.
# construct --weighted seeds its negative orbit with an (n-1)-qubit cycler
# eigenstate and shares the range.
SINGER_MAX_N = 10
# singer grades -epsilon against the closed form (d/2+1)/(d+1)^2 of every cycler
SINGER_TOL = 1e-12


def _rational(x: Fraction) -> dict:
    return {"fraction": f"{x.numerator}/{x.denominator}", "value": float(x)}


def _load_state(args):
    import numpy as np

    from .fiducial import named_fiducial

    if args.named:
        psi = named_fiducial(args.named)
    else:
        try:
            with open(args.file) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"cannot parse {args.file}: line {err.lineno}: {err.msg}") from None
        except (OSError, UnicodeDecodeError) as err:
            raise ValueError(f"cannot read state file {args.file}: {err}") from None
        if not isinstance(data, dict):
            raise ValueError("state file must hold a JSON object")
        n = data.get("n")
        if type(n) is not int or n < 1:
            raise ValueError('state file needs a positive integer "n"')
        try:
            amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        except (KeyError, TypeError, ValueError):
            raise ValueError('state file "amplitudes" must be a list of [re, im] pairs') from None
        # the first test keeps 1 << n from being formed for a huge n
        if n != len(amps).bit_length() - 1 or len(amps) != 1 << n:
            raise ValueError(f"state file has {len(amps)} amplitudes, not 2^n for n = {n}")
        nrm = np.linalg.norm(amps)
        if nrm < 1e-12:
            raise ValueError("state file has zero norm")
        psi = amps / nrm
    n = len(psi).bit_length() - 1
    return psi, n


def _dump_state(psi, n: int) -> dict:
    return {"n": n, "amplitudes": [[float(a.real), float(a.imag)] for a in psi]}


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, default=float, allow_nan=False) + "\n"
    else:
        lines = []
        _flatten("", payload, lines)
        text = "\n".join(f"{k},{v}" for k, v in lines) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write --out {out}: {err}") from None
    else:
        sys.stdout.write(text)


def _flatten(prefix: str, obj, lines: list) -> None:
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        if isinstance(v, (dict, list)):
            _flatten(f"{prefix}{k}.", v, lines)
        else:
            lines.append((prefix + str(k), v))


def cmd_tables(args) -> tuple[dict, bool]:
    from . import f2lin, stabrep

    n_max = args.n
    if not 1 <= n_max <= TABLES_MAX_N:
        raise ValueError(f"tables needs 1 <= --n <= {TABLES_MAX_N}, got --n {n_max}: the "
                         f"tables cost about 0.26 s at --n 32 and 8.3 s at --n 64")
    per_n = []
    ok = True
    for n in range(1, n_max + 1):
        rows = stabrep.dimension_table(n)
        entry = {
            "n": n,
            "d": 1 << n,
            "rows": [r.to_dict() for r in rows],
        }
        oracle = stabrep.orbit_counting_dims(n)
        entry["string_orbit_oracle"] = list(oracle)
        ok &= oracle == (rows[0].D_plus, rows[1].D_plus)
        ms = stabrep.sp_multiplicity_sum(n, 4)
        fp = stabrep.clifford_frame_potential(n, 4)
        entry["multiplicity_sum_k4"] = _rational(ms)
        entry["frame_potential_t4"] = _rational(fp)
        # second route to both sums: the group averages of 4^dim and 8^dim
        # of the fixed space (Burnside), from the fixed-dimension histogram
        hist = f2lin.fixed_dim_histogram(n)
        order = f2lin.sp_order(n)
        entry["fixed_dim_histogram"] = list(hist)
        ok &= sum(hist) == order
        ok &= Fraction(sum(c << 3 * k for k, c in enumerate(hist)), order) == fp
        ok &= Fraction(sum(c << 2 * k for k, c in enumerate(hist)), order) == ms
        per_n.append(entry)
    return {"tables": per_n, "pass": ok}, ok


def _check_tol(tol: float) -> None:
    if not 0 <= tol < float("inf"):  # also false for nan
        raise ValueError(f"--tol must be a finite non-negative number, got --tol {tol}")


def cmd_check(args) -> tuple[dict, bool]:
    from .designs import design_report

    _check_tol(args.tol)
    psi, n = _load_state(args)
    if n > ORBIT_T4_MAX_N:
        raise ValueError(f"check takes n <= {ORBIT_T4_MAX_N}, got n = {n}: {ELL4_COST}")
    rep = design_report(psi)
    ok = all(rep.bounds_ok.values())
    payload = rep.to_dict()
    # stabilizer Renyi entropy M_2 (Leone-Oliviero-Hamma), 0 on stabilizer states
    payload["m2"] = -math.log(rep.ell4 / rep.d)
    payload["is_design_fiducial"] = abs(rep.epsilon) <= args.tol
    payload["tolerance"] = args.tol
    payload["pass"] = ok
    return payload, ok


def cmd_construct(args) -> tuple[dict, bool]:
    import numpy as np

    from .designs import POTENTIAL_RTOL, design_report, sym_dim
    from . import fiducial

    n = args.n
    mode = args.construction
    if mode == "weighted":
        if not 1 <= n <= SINGER_MAX_N:
            raise ValueError(f"construct --weighted needs 1 <= --n <= {SINGER_MAX_N}, got --n {n}")
    elif not 2 <= n <= ORBIT_T4_MAX_N:  # alg1 and alg2 extend an (n-1)-qubit state
        raise ValueError(f"construct --{mode} needs 2 <= --n <= {ORBIT_T4_MAX_N}, got --n {n}: "
                         f"{ELL4_COST}")
    if args.base is not None and mode != "alg1":
        raise ValueError(f"construct --base applies only to --alg1, not --{mode}")
    if args.max_iter < 1:
        raise ValueError(f"construct needs --max-iter >= 1, got --max-iter {args.max_iter}")
    _check_tol(args.tol)
    if mode != "alg2":
        # only --alg2 reads these, so the echoed config leaves them out
        del args.tol, args.max_iter, args.mode
    if mode == "alg1":
        base = fiducial.named_fiducial(args.base) if args.base else _default_base(n)
        psi = fiducial.tensor_completion(base, n)
        rep = design_report(psi)
        ok = abs(rep.epsilon) <= 1e-9
        payload = {
            "mode": "alg1",
            "state": _dump_state(psi, n),
            "report": rep.to_dict(),
            "pass": ok,
        }
    elif mode == "alg2":
        stab = np.zeros(1 << n, dtype=complex)
        stab[0] = 1.0
        neg = np.kron(fiducial.singer_eigenstates(n - 1)[0], fiducial.psi_t())
        root = {}
        try:
            psi = fiducial.bisection_root(stab, neg, tol=args.tol, info=root)
        except fiducial.ConvergenceError as err:
            raise ValueError(f"construct --alg2 did not converge: {err}") from None
        rep = design_report(psi)
        ok = abs(rep.epsilon) <= args.tol
        root["tol_margin"] = args.tol - abs(rep.epsilon)
        payload = {
            "mode": "alg2",
            "state": _dump_state(psi, n),
            "report": rep.to_dict(),
            "root": root,
            "pass": ok,
        }
    else:
        pos = np.zeros(1 << n, dtype=complex)
        pos[0] = 1.0
        if n == 1:
            neg = fiducial.psi_t()
        else:
            neg = np.kron(fiducial.singer_eigenstates(n - 1)[0], fiducial.psi_t())
        design = fiducial.weighted_two_orbit(pos, neg, n)
        target = 1.0 / sym_dim(1 << n, 4)
        ok = abs(design.phi4 * sym_dim(1 << n, 4) - 1.0) <= POTENTIAL_RTOL
        payload = {
            "mode": "weighted",
            "orbit_sizes": None if design.orbit_sizes is None else list(design.orbit_sizes),
            "weights": None if design.weights is None else list(design.weights),
            "orbit_weights": list(design.orbit_weights),
            "phi4": design.phi4,
            "phi4_target": target,
            "pass": ok,
        }
    return payload, ok


def _default_base(n: int):
    import numpy as np

    from .fiducial import hoggar_fiducial, psi_t

    if n - 1 <= 3:
        base = psi_t()
        for _ in range(n - 2):
            base = np.kron(base, psi_t())
        return base
    base = hoggar_fiducial()
    for _ in range(n - 4):
        base = np.kron(base, psi_t())
    return base


def _check_seed(seed: int) -> None:
    # numpy rejects a negative seed without naming the option
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")


def _thresholds(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",")]
        ok = all(0 < x < float("inf") for x in values)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError("--thresholds must be comma-separated positive numbers, "
                         f"got --thresholds {text}")
    return values


def cmd_moments(args) -> tuple[dict, bool]:
    from . import moments

    n, samples, seed = args.n, args.samples, args.seed
    thresholds = _thresholds(args.thresholds) if args.thresholds else None
    if not 1 <= n <= MOMENTS_MAX_N:
        raise ValueError(f"moments needs 1 <= --n <= {MOMENTS_MAX_N}, got --n {n}: sampling "
                         f"costs about 3 s per 10^5 states at n = 5 and 110 s at n = 8")
    if samples < 2:
        raise ValueError("moments needs --samples >= 2 for a variance")
    _check_seed(seed)
    if thresholds and samples < moments.TAIL_MIN_SAMPLES:
        raise ValueError(f"--thresholds needs --samples >= {moments.TAIL_MIN_SAMPLES}")
    alphas = moments.haar_alphas(n, samples, seed)
    rep = moments.mc_moment_report(n, samples, seed, alphas=alphas)
    ok = all(rep["pass"].values())
    if thresholds:
        con = moments.concentration_report(n, samples, thresholds, seed, alphas=alphas)
        rep["concentration"] = con
        ok &= con["pass"]
    rep["exact"] = {
        "alpha_mean": _rational(moments.alpha_mean_exact(n)),
        "alpha_second_moment": _rational(moments.exact_second_moment(n)),
        "epsilon_second_moment": _rational(moments.epsilon_second_moment_exact(n)),
    }
    return rep, ok


def cmd_singer(args) -> tuple[dict, bool]:
    from . import fiducial

    n = args.n
    if not 1 <= n <= SINGER_MAX_N:
        raise ValueError(f"singer needs 1 <= --n <= {SINGER_MAX_N}, got --n {n}")
    row = fiducial.singer_epsilon_table((n,))[0]
    d = 1 << n
    ref = (d // 2 + 1) / (d + 1) ** 2
    ok = abs(-row["epsilon"] - ref) <= SINGER_TOL
    payload = {"n": n, "minus_epsilon": -row["epsilon"], "spread": row["spread"],
               "eigenstate_ell4": row["eigenstate_ell4"], "reference": ref,
               "tolerance": SINGER_TOL, "pass": ok}
    return payload, ok


def cmd_orbit(args) -> tuple[dict, bool]:
    from .clifford import ORBIT_MAX_N
    from .designs import POTENTIAL_RTOL, orbit_frame_potential, sym_dim

    t = args.t
    if t < 1:
        raise ValueError(f"orbit needs --t >= 1, got --t {t}")
    psi, n = _load_state(args)
    minimum = 1.0 / sym_dim(1 << n, t)
    if args.mode == "exact":
        if args.samples is not None or args.seed is not None:
            raise ValueError("orbit --samples and --seed apply only to --mode mc")
        if t == 4:
            cap, cost = ORBIT_T4_MAX_N, ELL4_COST
        else:
            cap, cost = ORBIT_MAX_N, "it sums over the whole group, 92897280 elements at n = 3"
        if n > cap:
            raise ValueError(f"exact orbit at --t {t} takes n <= {cap}, got n = {n}: {cost}")
        val = orbit_frame_potential(psi, t)
        payload = {"n": n, "t": t, "mode": "exact", "phi": val}
        slack = minimum * POTENTIAL_RTOL
    else:
        if args.seed is None:
            raise ValueError("orbit --mode mc requires --seed")
        _check_seed(args.seed)
        samples = 10000 if args.samples is None else args.samples
        if samples < 2:
            raise ValueError("orbit --mode mc needs --samples >= 2 for a standard error")
        import numpy as np

        rng = np.random.Generator(np.random.Philox(args.seed))
        val, stderr = orbit_frame_potential(psi, t, mode="monte_carlo", samples=samples, rng=rng)
        payload = {
            "n": n, "t": t, "mode": "monte_carlo",
            "phi": val, "stderr": stderr,
            "samples": samples, "seed": args.seed,
        }
        if stderr > 0:
            payload["margin_se"] = (val - minimum) / stderr
        slack = max(ORBIT_MC_SIGMAS * stderr, minimum * POTENTIAL_RTOL)
    payload["minimum"] = minimum
    ok = val >= minimum - slack
    payload["pass"] = ok
    return payload, ok


def _add_state_source(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--named", help="psi_T | hoggar | bloch:x,y,z")
    g.add_argument("--file", help="JSON state file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(prog="cliffdesigns", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--threads", type=int, help="cap BLAS worker threads")
    sub = ap.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json")
    output.add_argument("--out")

    p = sub.add_parser("tables", help="dimension ledger and group potentials", parents=[output])
    p.add_argument("--n", type=int, default=3)

    p = sub.add_parser("check", help="deviation metrics of a state", parents=[output])
    _add_state_source(p)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("construct", help="exact 4-design constructions", parents=[output])
    g = p.add_mutually_exclusive_group(required=True)
    for mode in ("alg1", "alg2", "weighted"):
        g.add_argument(f"--{mode}", dest="construction", action="store_const", const=mode)
    p.add_argument("--base", help="named base state for --alg1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8, help="largest |epsilon| --alg2 accepts")
    # parsed, validated and echoed, but --alg2 has no iteration to steer
    ignored = "ignored: --alg2 solves for its root in closed form"
    p.add_argument("--max-iter", type=int, default=200, help=ignored)
    p.add_argument("--mode", choices=("bisect", "secant"), default="bisect", help=ignored)

    p = sub.add_parser("moments", help="Monte-Carlo moment study", parents=[output])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--thresholds", help="comma-separated |epsilon| tail thresholds")

    p = sub.add_parser("singer", help="basis-cycler deviation table", parents=[output])
    p.add_argument("--n", type=int, default=1)

    p = sub.add_parser("orbit", help="orbit frame potential", parents=[output])
    _add_state_source(p)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    return ap


COMMANDS = {
    "tables": cmd_tables,
    "check": cmd_check,
    "construct": cmd_construct,
    "moments": cmd_moments,
    "singer": cmd_singer,
    "orbit": cmd_orbit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise ValueError(f"--threads must be >= 1, got --threads {args.threads}")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        payload, ok = COMMANDS[args.command](args)
        payload["config"] = {k: v for k, v in vars(args).items() if v is not None}
        _emit(payload, args.format, args.out)
    except (ValueError, AssertionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
