"""Design-quality metrics for states and Clifford orbits.

The central quantity is the overlap alpha_+ of psi^{x4} with the 4-copy
stabilizer code, equal to ||Xi(psi)||_4^4 / d^2.  Its normalized deviation

    epsilon(psi) = d(d+3)/4 * alpha_+(psi) - 1

vanishes exactly on fiducial vectors of projective 4-designs, equals the
operator norm of the orbit's deviation from the symmetric-subspace
average, and determines the orbit's fourth frame potential in closed form.
Frame potentials of explicit state sets, the single-qubit closed forms,
and tensor-product admissibility all live here.

A weighted design in a smaller dimension dtilde <= d can always be cut out
of an exact design by projecting onto a dtilde-dimensional subspace and
re-normalizing, with weights equal to the projected norms; this package
keeps that as a documented recipe rather than an operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import (
    NormalizationError,
    alpha_plus,
    _check_normalized,
    _ell4_rows,
    _infer_n,
)

__all__ = [
    "DesignReport",
    "design_report",
    "epsilon",
    "epsilon_from_ell4",
    "frame_potential",
    "sym_dim",
    "minimal_design_size",
    "orbit_frame_potential",
    "qubit_phi4",
    "qubit_six_design_roots",
    "bloch_state",
    "tensor_fiducial_admissible",
]

BOUND_SLACK = 1e-9
# orbit_frame_potential draws Monte-Carlo samples in blocks of this many
MC_BLOCK = 256


def sym_dim(d: int, t: int) -> int:
    """Dimension binom(d+t-1, t) of the t-fold symmetric subspace."""
    return math.comb(d + t - 1, t)


def minimal_design_size(d: int, t: int) -> int:
    """Lower bound on the size of any t-design in dimension d."""
    if t < 1:
        raise ValueError("t must be >= 1")
    hi = (t + 1) // 2
    lo = t // 2
    return math.comb(d + hi - 1, hi) * math.comb(d + lo - 1, lo)


@dataclass(frozen=True)
class DesignReport:
    """Per-state metric bundle; phi4 is the orbit potential implied by epsilon."""

    n: int
    d: int
    ell4: float
    alpha_plus: float
    epsilon: float
    phi4: float
    op_norm_dev: float
    trace_norm_dev: float
    bounds_ok: dict = field(compare=False)

    def to_dict(self) -> dict:
        d = self.d
        return {
            "n": self.n,
            "d": d,
            "ell4": self.ell4,
            "alpha_plus": self.alpha_plus,
            "epsilon": self.epsilon,
            "phi4": self.phi4,
            "op_norm_dev": self.op_norm_dev,
            "trace_norm_dev": self.trace_norm_dev,
            "bounds_ok": dict(self.bounds_ok),
            "constants": {
                "ell4_design": 4 * d / (d + 3),
                "epsilon_max": (d - 1) / 4,
                "epsilon_min": -(d - 1) / (2 * (d + 1)),
                "phi4_design": 1.0 / sym_dim(d, 4),
            },
        }


def design_report(psi: np.ndarray) -> DesignReport:
    """All deviation metrics of a normalized state."""
    n = _infer_n(psi)
    _check_normalized(psi)
    d = 1 << n
    ell4 = float(_ell4_rows(psi[None, :])[0])
    alpha = ell4 / d**2
    eps = epsilon_from_ell4(ell4, d)
    d_plus = (d + 1) * (d + 2) // 6
    phi4 = (1.0 + 4.0 * eps**2 / ((d - 1) * (d + 4))) / sym_dim(d, 4)
    bounds = {
        "ell4": 2 * d / (d + 1) - BOUND_SLACK <= ell4 <= d + BOUND_SLACK,
        "alpha_plus": 2 / (d * (d + 1)) - BOUND_SLACK <= alpha <= 1 / d + BOUND_SLACK,
        "epsilon": -(d - 1) / (2 * (d + 1)) - BOUND_SLACK <= eps <= (d - 1) / 4 + BOUND_SLACK,
    }
    return DesignReport(
        n=n,
        d=d,
        ell4=ell4,
        alpha_plus=alpha,
        epsilon=eps,
        phi4=phi4,
        op_norm_dev=abs(eps),
        trace_norm_dev=2.0 * d_plus * abs(eps),
        bounds_ok=bounds,
    )


def epsilon_from_ell4(ell4, d: int):
    """epsilon = d(d+3)/4 * alpha_+ - 1 with alpha_+ = ell4 / d^2, elementwise."""
    return d * (d + 3) / 4 * (ell4 / d**2) - 1.0


def epsilon(psi: np.ndarray) -> float:
    """Deviation of the Clifford orbit of psi from a 4-design (0 = exact)."""
    d = 1 << _infer_n(psi)
    return epsilon_from_ell4(alpha_plus(psi) * d**2, d)


# ---------------------------------------------------------------------------
# frame potentials


def frame_potential(states, t: int, weights=None, block: int = 2048) -> float:
    """Weighted frame potential sum_{jk} w_j w_k |<psi_j|psi_k>|^{2t}.

    With no weights this is the plain (1/K^2) double sum.  Blocked over
    rows so large unions never materialize a full Gram matrix.
    """
    psis = np.asarray(states)
    if psis.ndim != 2 or psis.shape[0] == 0:
        raise ValueError("need a nonempty list of state vectors")
    k = psis.shape[0]
    if weights is None:
        w = np.full(k, 1.0 / k)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (k,) or not (w >= 0).all():
            raise ValueError("weights must be nonnegative, one per state")
        if not abs(w.sum() - 1.0) <= 1e-10:
            raise NormalizationError(f"weights sum to {w.sum()}, not 1")
    conj = psis.conj()
    total = 0.0
    for lo in range(0, k, block):
        # in place: a block holds one complex and one real K-wide array
        p = np.abs(psis[lo : lo + block] @ conj.T)
        np.square(p, out=p)
        np.power(p, t, out=p)
        total += float(np.einsum("i,ij,j->", w[lo : lo + block], p, w))
    d = psis.shape[1]
    if not total >= 1.0 / sym_dim(d, t) - BOUND_SLACK:
        raise AssertionError(f"frame potential {total} is not at or above the design minimum")
    return total


def orbit_frame_potential(psi: np.ndarray, t: int, mode: str = "exact",
                          samples: int = 10000, rng=None):
    """Frame potential of the projective Clifford orbit of psi.

    Exact mode averages |<psi|U psi>|^{2t} over the whole projective group
    (equal to the orbit double sum by invariance; n <= 2).  Monte-Carlo
    mode samples uniform projective Cliffords and returns (estimate,
    standard error).  It draws them from rng in blocks of MC_BLOCK
    samples, each decoded and decomposed as one stack, and lifts each
    block in clifford._lift_stacks chunks of at most STACK_ENTRIES matrix
    entries (128 samples at n = 3, one at n >= 7).  The draws follow the
    order of one random_clifford call per sample, so a seed gives the same
    unitaries and the same estimate at any block or chunk size.

    The standard error is std / sqrt(samples), and on heavy-tailed orbits
    (n >= 4) it underestimates the true error badly: a sample that misses
    the rare large overlaps has a small spread as well as a small mean.
    On psi_T^(x)5 at 100 samples, one seed in 300 landed 15 reported
    standard errors below the exact potential.
    """
    from . import clifford

    n = _infer_n(psi)
    _check_normalized(psi)
    if mode == "exact":
        group = clifford.projective_clifford_unitaries(n)
        ov = np.abs(group @ psi @ psi.conj()) ** (2 * t)
        return float(np.mean(ov))
    if mode == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        vals = np.empty(samples)
        for lo in range(0, samples, MC_BLOCK):
            block = clifford._sample_words(n, rng, min(MC_BLOCK, samples - lo))
            for c, stack in clifford._lift_stacks(n, *block):
                for i, u in enumerate(stack, lo + c):
                    vals[i] = np.abs(np.vdot(psi, u @ psi)) ** (2 * t)
        est = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(samples))
        return est, stderr
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# single-qubit closed forms


def _check_bloch(x: float, y: float, z: float) -> None:
    if not abs(x * x + y * y + z * z - 1.0) <= 1e-10:
        raise ValueError("Bloch vector must have unit norm")


def bloch_state(x: float, y: float, z: float) -> np.ndarray:
    """Qubit state with the given Bloch vector."""
    _check_bloch(x, y, z)
    theta = math.acos(max(-1.0, min(1.0, z)))
    phi = math.atan2(y, x)
    return np.array(
        [math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)], dtype=complex
    )


def qubit_phi4(x: float, y: float, z: float) -> float:
    """Fourth frame potential of the Clifford orbit of a qubit state.

    Depends only on s = x^4 + y^4 + z^4; minimized at 1/5 when s = 3/5 and
    maximized at 5/24 on the six stabilizer states (s = 1).
    """
    _check_bloch(x, y, z)
    s = x**4 + y**4 + z**4
    return (21.0 - 6.0 * s + 5.0 * s * s) / 96.0


def qubit_six_design_roots() -> tuple[float, float, float]:
    """The squared Bloch components (x^2, y^2, z^2) of a 6-design fiducial.

    They are the three roots of 105 u^3 - 105 u^2 + 21 u - 1 = 0, given in
    trigonometric form; any qubit state with these squared components
    (in any order, any signs) generates a Clifford orbit that is a
    projective 6- and 7-design.
    """
    theta = math.atan(3.0 * math.sqrt(10.0) / 20.0)
    amp = 2.0 * math.sqrt(2.0 / 5.0)
    roots = tuple(
        (1.0 + amp * math.cos((theta + 2.0 * j * math.pi) / 3.0)) / 3.0 for j in (1, 2, 3)
    )
    for u in roots:
        if abs(1 - 21 * u + 105 * u * u - 105 * u**3) > 1e-12:
            raise AssertionError("trigonometric root fails the cubic")
    return roots


# ---------------------------------------------------------------------------
# tensor fiducials


def tensor_fiducial_admissible(parts) -> bool:
    """Whether a tensor factorization shape can carry a 4-design fiducial.

    Admissible shapes: (n1, n2), (n1, 1, 1), (2, 2, 1), (3, 2, 1) and
    (1, 1, 1, 1); everything else is excluded.
    """
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts):
        raise ValueError("parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts must be sorted non-increasing")
    m = len(parts)
    if m == 2:
        return True
    if m == 3:
        return (parts[1] == 1 and parts[2] == 1) or parts in ((2, 2, 1), (3, 2, 1))
    if m == 4:
        return parts == (1, 1, 1, 1)
    return False
