"""Moments of the code overlap alpha_+ under Haar-random states.

The first moment is 4/(d(d+3)) by symmetry of the fourth-moment operator,
and the second is the closed form

    E[alpha_+^2] = 16(d^2+15d+68) / (d^2(d+3)(d+5)(d+6)(d+7)).

It follows from a sum over Pauli pairs of symmetric-subspace traces
tr[P_[8] (W_a^{x4} x W_b^{x4})], which splits into five cases (both
identity, one identity, equal, commuting, anticommuting) whose values come
from the census of S_8 permutations without odd cycles.

Monte-Carlo utilities estimate the same moments, tail probabilities
against the Chebyshev bound, and the Lipschitz ratio of alpha_+.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import epsilon_from_ell4
from .pauli import alpha_plus_batch

__all__ = [
    "MomentEstimate",
    "sample_uniform_state",
    "alpha_mean_exact",
    "exact_second_moment",
    "alpha_variance_exact",
    "epsilon_second_moment_exact",
    "average_phi4_ratio_exact",
    "chebyshev_bound",
    "TAIL_MIN_SAMPLES",
    "haar_alphas",
    "mc_moment_report",
    "concentration_report",
    "lipschitz_probe",
]

# Tail frequencies are estimated from at least this many states.
TAIL_MIN_SAMPLES = 10**4
# haar_alphas draws states this many at a time; the seeded stream depends on
# it, so changing it changes every seeded value
HAAR_BATCH = 20000


def sample_uniform_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector in C^d (normalized complex Gaussian)."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _sample_uniform_batch(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# exact rational moments


def alpha_mean_exact(n: int) -> Fraction:
    d = 1 << n
    return Fraction(4, d * (d + 3))


def exact_second_moment(n: int) -> Fraction:
    """E[alpha_+^2] = 16(d^2+15d+68) / (d^2(d+3)(d+5)(d+6)(d+7)), exactly."""
    d = 1 << n
    return Fraction(16 * (d * d + 15 * d + 68), d * d * (d + 3) * (d + 5) * (d + 6) * (d + 7))


def alpha_variance_exact(n: int) -> Fraction:
    """Var[alpha_+] = 96(d-1) / (d^2 (d+3)^2 (d+5)(d+6)(d+7))."""
    return exact_second_moment(n) - alpha_mean_exact(n) ** 2


def epsilon_second_moment_exact(n: int) -> Fraction:
    """E[epsilon^2] = 6(d-1)/((d+5)(d+6)(d+7)); the mean of epsilon is 0."""
    return alpha_variance_exact(n) / alpha_mean_exact(n) ** 2


def average_phi4_ratio_exact(n: int) -> Fraction:
    """D_[4] E[Phi_4(orbit)] = 1 + 24/((d+4)(d+5)(d+6)(d+7)), exactly."""
    d = 1 << n
    return 1 + Fraction(4, (d - 1) * (d + 4)) * epsilon_second_moment_exact(n)


def chebyshev_bound(n: int, xi: float) -> float:
    """Upper bound on Prob{|epsilon| >= xi} from the exact second moment."""
    if xi <= 0:
        raise ValueError("threshold must be positive")
    return min(1.0, float(epsilon_second_moment_exact(n)) / xi**2)


# ---------------------------------------------------------------------------
# Monte-Carlo reports


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    second_moment: float
    variance: float
    stderr: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def haar_alphas(n: int, samples: int, seed: int) -> np.ndarray:
    """alpha_+ of `samples` Haar states from the Philox stream `seed`,
    drawn and evaluated HAAR_BATCH at a time."""
    d = 1 << n
    rng = np.random.Generator(np.random.Philox(seed))
    alphas = np.empty(samples)
    for lo in range(0, samples, HAAR_BATCH):
        take = min(HAAR_BATCH, samples - lo)
        alphas[lo : lo + take] = alpha_plus_batch(_sample_uniform_batch(d, take, rng))
    return alphas


def mc_moment_report(n: int, samples: int, seed: int, alphas: np.ndarray | None = None) -> dict:
    """Monte-Carlo alpha_+ and epsilon moments with the exact values attached.

    Uses a counter-based Philox stream; the seed is embedded in the report
    so any run replays bit-identically.  `alphas` passes values already
    drawn by haar_alphas(n, samples, seed).
    """
    d = 1 << n
    if alphas is None:
        alphas = haar_alphas(n, samples, seed)
    eps = epsilon_from_ell4(alphas * d**2, d)
    a_est, e_est = (
        MomentEstimate(
            mean=float(x.mean()),
            second_moment=float((x**2).mean()),
            variance=float(x.var(ddof=1)),
            stderr=float(x.std(ddof=1) / np.sqrt(samples)),
            samples=samples,
            seed=seed,
        )
        for x in (alphas, eps)
    )
    closed = {
        "alpha_mean": float(alpha_mean_exact(n)),
        "alpha_second_moment": float(exact_second_moment(n)),
        "epsilon_second_moment": float(epsilon_second_moment_exact(n)),
    }
    flags = {
        "alpha_mean_within_4se": abs(a_est.mean - closed["alpha_mean"]) <= 4 * a_est.stderr,
        "epsilon_mean_within_4se": abs(e_est.mean) <= 4 * e_est.stderr,
        "epsilon_second_within_4se": abs(e_est.second_moment - closed["epsilon_second_moment"])
        <= 4 * float((eps**2).std(ddof=1) / np.sqrt(samples)),
    }
    return {
        "n": n,
        "d": d,
        "alpha": a_est.to_dict(),
        "epsilon": e_est.to_dict(),
        "closed_forms": closed,
        "pass": flags,
    }


def concentration_report(n: int, samples: int, thresholds, seed: int,
                         alphas: np.ndarray | None = None) -> dict:
    """Empirical tail frequencies of |epsilon| against the Chebyshev bound.

    Requires samples >= 10^4.  Each threshold passes when the empirical
    frequency does not exceed the bound by more than three binomial
    standard errors.  The states are those of haar_alphas(n, samples,
    seed), so `alphas` can pass the values a moment report already drew.
    """
    if samples < TAIL_MIN_SAMPLES:
        raise ValueError(f"need at least {TAIL_MIN_SAMPLES} samples for tail estimates")
    d = 1 << n
    if alphas is None:
        alphas = haar_alphas(n, samples, seed)
    eps = epsilon_from_ell4(alphas * d**2, d)
    rows = []
    for xi in thresholds:
        bound = chebyshev_bound(n, xi)
        freq = float(np.mean(np.abs(eps) >= xi))
        se = np.sqrt(max(freq * (1 - freq), 1.0 / samples) / samples)
        rows.append(
            {
                "xi": xi,
                "empirical": freq,
                "chebyshev_bound": bound,
                "pass": freq <= bound + 3 * se,
            }
        )
    return {
        "n": n,
        "d": d,
        "samples": samples,
        "seed": seed,
        "epsilon_mean": float(eps.mean()),
        "epsilon_second_moment": float((eps**2).mean()),
        "tails": rows,
        "pass": all(r["pass"] for r in rows),
    }


def lipschitz_probe(n: int, pairs: int, seed: int) -> dict:
    """Largest observed |alpha_+(psi) - alpha_+(phi)| d / ||psi - phi||.

    Mixes independent pairs, small perturbations across scales, and
    perturbed stabilizer states; the proven constant is 5.4 and the
    conjectured sharp constant is 1.
    """
    if pairs < 10**3:
        raise ValueError("need at least 10^3 pairs")
    d = 1 << n
    rng = np.random.Generator(np.random.Philox(seed))
    third = pairs // 3
    a = _sample_uniform_batch(d, pairs, rng)
    a[2 * third :] = 0.0
    a[2 * third :, 0] = 1.0  # perturbed-stabilizer group
    b = np.empty_like(a)
    b[:third] = _sample_uniform_batch(d, third, rng)  # independent pairs
    scales = 10.0 ** rng.uniform(-3, 0, size=pairs - third)
    noise = _sample_uniform_batch(d, pairs - third, rng) * scales[:, None]
    pert = a[third:] + noise
    pert /= np.linalg.norm(pert, axis=1, keepdims=True)
    b[third:] = pert
    dist = np.linalg.norm(a - b, axis=1)
    keep = dist > 1e-8
    da = np.abs(alpha_plus_batch(a[keep]) - alpha_plus_batch(b[keep]))
    ratios = da * d / dist[keep]
    mx = float(ratios.max())
    return {
        "n": n,
        "d": d,
        "pairs": int(keep.sum()),
        "seed": seed,
        "max_ratio": mx,
        "proven_bound": 5.4,
        "conjectured_bound": 1.0,
        "within_proven": mx <= 5.4,
        "within_conjectured": mx <= 1.0,
    }
