"""The workloads: one round of operations each, and the checks on their outputs.

Every round of a workload runs the same operations; only the seeds handed
to randomized operations change from round to round. Each check compares
a program output with `oracles` or with a property the method must have,
and raises `CheckFailed` when it does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

# Monte-Carlo orbit potentials must lie within this many of their reported
# standard errors. The estimates are skewed: when a sample misses the rare
# large overlaps, its standard error shrinks with its mean. Resampling
# 2 000 of 100 000 overlaps 10^5 times gave z >= -6.2 for psi_T^3 and
# >= -5.9 for hoggar; at 1 000 samples z reached -7.9. At n = 5 the skew is
# far worse (z = -15 in 300 seeds at 100 samples), so n = 5 is sampled
# without an orbit estimate.
MC_SIGMAS = 7
# sd(eps^2) / E[eps^2] over Haar states is at most 2.8 for n = 1..5
# (kurtosis <= 7.6, measured on 40 000 states per n); 4 leaves a margin, and
# `test_perfbench` re-measures the ratio with the dense oracle.
EPS2_SD_OVER_MEAN = 4.0
THRESHOLDS = "0.1,0.25"

# (n, Haar states) per `moments` call. Every call needs >= 10^4 samples for
# the tail study; the counts give d = 4 and d = 8 a visible share next to
# d = 32, whose GEMMs dominate otherwise.
HAAR_PLAN = ((2, 100_000), (3, 40_000), (4, 10_000), (5, 10_000))

# State files written by `write_state_files`, as (file stem, n, state).
STATE_FILES = (
    ("psi_t3", 3, lambda: orc.psi_t_power(3)),
    ("zero2", 2, lambda: orc.zero_state(2)),
    ("psi_t2", 2, lambda: orc.psi_t_power(2)),
)


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    """One call into the program. `label` omits seeds, so verdicts add up over rounds."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    cli: bool
    haar_states: int = 0  # Haar states the operation asks for


def op_seed(seed: int, rnd: int, k: int) -> int:
    return seed * 100_000 + rnd * 100 + k


def write_state_files(directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, n, make in STATE_FILES:
        psi = make()
        path = directory / f"{stem}.json"
        amps = [[float(a.real), float(a.imag)] for a in psi]
        path.write_text(json.dumps({"n": n, "amplitudes": amps}))
        paths[stem] = str(path)
    return paths


def run_cli(cli, argv: list[str]) -> tuple[int, dict]:
    """cli.main(argv) with its JSON output captured; exit 1 is the program's
    own verdict "pass": false, anything else but 0 is an error."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code not in (0, 1):
        raise CheckFailed(f"exit status {code}")
    return code, json.loads(buf.getvalue())


def cli_op(prog, label: str, argv: list[str], check, haar_states: int = 0) -> Op:
    return Op(label, lambda: run_cli(prog.cli, argv), check, cli=True, haar_states=haar_states)


def close(a: float, b: float, tol: float, what: str) -> None:
    expect(abs(a - b) <= tol, f"{what}: {a!r} vs {b!r} (tol {tol})")


def fraction_of(entry: dict) -> Fraction:
    return Fraction(entry["fraction"])


# ---------------------------------------------------------------------------
# clifford-mc: Clifford orbits and streams


def mc_orbit_op(prog, source: list[str], name: str, n: int, eps: Fraction,
                samples: int, seed: int) -> Op:
    d = 1 << n
    argv = ["orbit", *source, "--t", "4", "--mode", "mc", "--samples", str(samples),
            "--seed", str(seed)]

    def check(res):
        code, out = res
        expect(out["n"] == n and out["t"] == 4, "orbit echoes n and t")
        expect(out["samples"] == samples and out["seed"] == seed, "orbit echoes samples and seed")
        close(out["minimum"], 1 / orc.sym_dim(d, 4), 1e-15, "design minimum")
        se = out["stderr"]
        expect(0 < se < math.inf, f"standard error {se}")
        close(out["phi"], float(orc.phi4(eps, d)), MC_SIGMAS * se, f"{name} orbit potential")
        expect(out["pass"] == (code == 0), "pass flag matches exit status")

    return cli_op(prog, f"orbit {name} --mode mc --samples {samples}", argv, check)


def trace_stream_op(prog, n: int, draws: int, seed: int) -> Op:
    """random_clifford(n) draws, each passed to clifford_trace_check (library calls)."""
    clifford = prog.clifford

    def run():
        rng = np.random.Generator(np.random.Philox(seed))
        out = []
        for _ in range(draws):
            u = clifford.random_clifford(n, rng)
            out.append((u, clifford.clifford_trace_check(u)))
        return out

    def check(res):
        expect(len(res) == draws, "draw count")
        eye = np.eye(1 << n)
        for u, rep in res:
            m = u.matrix
            expect(np.allclose(m @ m.conj().T, eye, atol=1e-10), "U is unitary")
            rows = u.symplectic.rows
            expect(orc.is_symplectic(rows), "action is symplectic")
            k = orc.fixed_space_dim(rows)
            expect(rep.kernel_dim == k, f"dim ker(F-1): {rep.kernel_dim} vs {k}")
            tr = complex(np.trace(m))
            expect(abs(tr) <= 1e-8 or abs(tr**4 - (-4) ** k) <= 1e-6 * 4**k,
                   f"(tr U)^4 = {tr**4} vs (-4)^{k}")
            expect(rep.passed, "clifford_trace_check verdict")

    return Op(f"random_clifford({n}) + clifford_trace_check x{draws}", run, check, cli=False)


# ---------------------------------------------------------------------------
# haar-moments


def moments_op(prog, n: int, samples: int, seed: int) -> Op:
    d = 1 << n
    argv = ["moments", "--n", str(n), "--samples", str(samples), "--seed", str(seed),
            "--thresholds", THRESHOLDS]
    mean = orc.haar_alpha_mean(d)
    eps2 = orc.haar_epsilon_second_moment(d)

    def check(res):
        code, out = res
        a, e, con = out["alpha"], out["epsilon"], out["concentration"]
        expect(a["samples"] == samples and a["seed"] == seed, "moments echoes samples and seed")
        expect(con["samples"] == samples, "tail study sample count")
        close(a["mean"], float(mean), 5 * math.sqrt(orc.haar_alpha_variance(d) / samples),
              "sample mean of alpha_+")
        close(e["second_moment"], float(eps2), 5 * EPS2_SD_OVER_MEAN * float(eps2) / math.sqrt(samples),
              "sample second moment of epsilon")
        exact = out["exact"]
        expect(fraction_of(exact["alpha_mean"]) == mean, "exact alpha mean")
        expect(fraction_of(exact["epsilon_second_moment"]) == eps2, "exact epsilon second moment")
        expect(fraction_of(exact["alpha_second_moment"]) == orc.haar_alpha_second_moment(d),
               "exact alpha second moment")
        xis = [float(x) for x in THRESHOLDS.split(",")]
        expect([row["xi"] for row in con["tails"]] == xis, "tail thresholds")
        for row in con["tails"]:
            bound = orc.chebyshev_bound(d, row["xi"])
            close(row["chebyshev_bound"], bound, 1e-12, "Chebyshev bound")
            f = row["empirical"]
            se = math.sqrt(max(f * (1 - f), 1 / samples) / samples)
            expect(f <= bound + 3 * se, f"tail frequency {f} above {bound} + 3 se")
        expect(out["pass"] is not None, "pass flags present")

    return cli_op(prog, f"moments --n {n} --samples {samples}", argv, check, haar_states=samples)


def clifford_mc(prog, files: dict, seed: int, rnd: int) -> list[Op]:
    s = [op_seed(seed, rnd, k) for k in range(4)]
    return [
        mc_orbit_op(prog, ["--named", "hoggar"], "hoggar", 3, Fraction(-7, 18), 2000, s[0]),
        mc_orbit_op(prog, ["--file", files["psi_t3"]], "psi_T^3", 3,
                    orc.epsilon_psi_t_power(3), 2000, s[1]),
        trace_stream_op(prog, 3, 300, s[2]),
        trace_stream_op(prog, 5, 60, s[3]),
    ]


def haar_moments(prog, files: dict, seed: int, rnd: int) -> list[Op]:
    return [moments_op(prog, n, samples, op_seed(seed, rnd, k))
            for k, (n, samples) in enumerate(HAAR_PLAN)]


# ---------------------------------------------------------------------------
# paper-numbers


def state_of(out: dict) -> np.ndarray:
    amps = np.array([complex(re, im) for re, im in out["amplitudes"]])
    expect(len(amps) == 1 << out["n"], "amplitude count")
    close(float(np.linalg.norm(amps)), 1.0, 1e-12, "state norm")
    return amps


def tables_op(prog, n_max: int) -> Op:
    def check(res):
        code, out = res
        expect([e["n"] for e in out["tables"]] == list(range(1, n_max + 1)), "table rows")
        for entry in out["tables"]:
            n, d = entry["n"], entry["d"]
            code_total = 0
            for row in entry["rows"]:
                lam = tuple(row["partition"])
                expect(row["specht_dim"] == orc.specht_dim(lam), f"Specht dim {lam}")
                expect(row["weyl_dim"] == orc.weyl_dim(lam, d), f"Weyl dim {lam} at d={d}")
                expect(row["code_part"] + row["complement_part"] == row["weyl_dim"],
                       f"D+ + D- = D for {lam} at d={d}")
                code_total += row["specht_dim"] * row["code_part"]
            expect(code_total == d * d, f"code parts sum to {code_total}, not d^2 = {d * d}")
            sym = orc.symmetric_code_dim(n)
            expect(entry["rows"][0]["code_part"] == sym == entry["string_orbit_oracle"][0],
                   f"symmetric code dimension at n={n}")
            if n in orc.CLIFFORD_FRAME_POTENTIAL_T4:
                fp = fraction_of(entry["frame_potential_t4"])
                ms = fraction_of(entry["multiplicity_sum_k4"])
                expect(fp == orc.CLIFFORD_FRAME_POTENTIAL_T4[n], f"frame potential {fp} at n={n}")
                expect(ms == orc.MULTIPLICITY_SUM_K4[n], f"multiplicity sum {ms} at n={n}")
                hist = prog.f2lin.fixed_dim_histogram(n)
                order = orc.sp_order(n)
                expect(sum(hist) == order, f"histogram sums to {sum(hist)}, not |Sp| = {order}")
                expect(Fraction(sum(c * 8**k for k, c in enumerate(hist)), order) == fp,
                       "frame potential from the histogram")
        expect(code == 0, "tables verdict")

    return cli_op(prog, f"tables --n {n_max}", ["tables", "--n", str(n_max)], check)


def check_hoggar_op(prog) -> Op:
    def check(res):
        code, out = res
        close(out["epsilon"], -7 / 18, 1e-12, "epsilon(hoggar)")
        close(out["ell4"], float(orc.ell4_norm4(orc.HOGGAR)), 1e-12, "||Xi(hoggar)||_4^4")
        close(out["phi4"], float(orc.phi4(Fraction(-7, 18), 8)), 1e-15, "phi4(hoggar)")
        expect(code == 0, "check verdict")

    return cli_op(prog, "check --named hoggar", ["check", "--named", "hoggar"], check)


def construct_op(prog, argv: list[str], n: int, tol: float) -> Op:
    def check(res):
        code, out = res
        psi = state_of(out["state"])
        expect(out["state"]["n"] == n, "qubit count")
        eps = orc.epsilon(psi)
        # The program stops once its own |epsilon| <= tol; the dense oracle
        # may differ from it in the last digits.
        expect(abs(eps) <= tol + 1e-12, f"|epsilon| = {abs(eps)} > {tol}")

    return cli_op(prog, " ".join(argv), argv, check)


def weighted_op(prog, n: int) -> Op:
    d = 1 << n

    def check(res):
        code, out = res
        close(out["phi4"], 1 / orc.sym_dim(d, 4), 1e-9, f"weighted phi4 at n={n}")
        sizes, weights = out["orbit_sizes"], out["weights"]
        close(sizes[0] * weights[0] + sizes[1] * weights[1], 1.0, 1e-12, "weights sum to 1")
        expect(code == 0, "weighted verdict")

    argv = ["construct", "--weighted", "--n", str(n)]
    return cli_op(prog, " ".join(argv), argv, check)


def exact_orbit_op(prog, files: dict, stem: str, eps: Fraction) -> Op:
    def check(res):
        code, out = res
        close(out["phi"], float(orc.phi4(eps, 4)), 1e-12, f"exact orbit potential of {stem}")
        expect(code == 0, "orbit verdict")

    argv = ["orbit", "--file", files[stem], "--t", "4"]
    return cli_op(prog, f"orbit {stem} --mode exact", argv, check)


def singer_op(prog, n: int) -> Op:
    ref, tol = orc.SINGER_REFERENCE[n]

    def check(res):
        code, out = res
        expect(out["spread"] <= 1e-9, f"eigenstate spread {out['spread']}")
        close(out["minus_epsilon"], ref, tol, f"-epsilon of the n={n} cycler")
        expect(code == 0, "singer verdict")

    return cli_op(prog, f"singer --n {n}", ["singer", "--n", str(n)], check)


def isotropic_op(prog, n: int) -> Op:
    def check(subspaces):
        expect(len(subspaces) == orc.maximal_isotropic_count(n), f"{len(subspaces)} subspaces")
        seen = set()
        for sub in subspaces:
            b = sub.basis
            expect(len(b) == n, "subspace dimension")
            expect(all(orc.symplectic_form(u, v) == 0 for u in b for v in b), "isotropic basis")
            vecs = frozenset(orc.span(b))
            expect(len(vecs) == 1 << n, "independent basis")
            seen.add(vecs)
        expect(len(seen) == len(subspaces), "subspaces are distinct")

    return Op(f"maximal_isotropic_subspaces({n})",
              lambda: prog.f2lin.maximal_isotropic_subspaces(n), check, cli=False)


def paper_numbers(prog, files: dict, seed: int, rnd: int) -> list[Op]:
    ops = [tables_op(prog, 6), check_hoggar_op(prog)]
    ops += [construct_op(prog, ["construct", "--alg1", "--n", str(n)], n, 1e-9) for n in (2, 3, 4, 5)]
    ops += [construct_op(prog, ["construct", "--alg2", "--n", str(n), "--mode", mode], n, 1e-8)
            for n in (2, 3) for mode in ("bisect", "secant")]
    ops += [weighted_op(prog, n) for n in (1, 2)]
    ops += [exact_orbit_op(prog, files, "zero2", orc.epsilon_zero_state(2)),
            exact_orbit_op(prog, files, "psi_t2", orc.epsilon_psi_t_power(2))]
    ops += [singer_op(prog, n) for n in (1, 2, 4, 8)]
    ops.append(isotropic_op(prog, 4))
    return ops


WORKLOADS = {
    "clifford-mc": clifford_mc,
    "haar-moments": haar_moments,
    "paper-numbers": paper_numbers,
}
