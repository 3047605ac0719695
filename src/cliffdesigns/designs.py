"""Design-quality metrics for states and Clifford orbits.

The central quantity is the overlap alpha_+ of psi^{x4} with the 4-copy
stabilizer code, equal to ||Xi(psi)||_4^4 / d^2.  Its normalized deviation

    epsilon(psi) = d(d+3)/4 * alpha_+(psi) - 1

vanishes exactly on fiducial vectors of projective 4-designs, equals the
operator norm of the orbit's deviation from the symmetric-subspace
average, and determines the orbit's fourth frame potential in closed form.
The Clifford-orbit frame potentials (closed form at t = 4, a group sum at
n <= 2 or Monte-Carlo otherwise), the single-qubit closed forms and
tensor-product admissibility all live here.

A weighted design in a smaller dimension dtilde <= d can always be cut out
of an exact design by projecting onto a dtilde-dimensional subspace and
re-normalizing, with weights equal to the projected norms; this package
keeps that as a documented recipe rather than an operation.
"""

from __future__ import annotations

import math

import numpy as np

from .f2lin import _Record, _set
from .pauli import alpha_plus, _check_normalized, _ell4_rows, _infer_n

__all__ = [
    "DesignReport",
    "design_report",
    "epsilon",
    "epsilon_from_ell4",
    "fourth_moment",
    "sym_dim",
    "minimal_design_size",
    "orbit_frame_potential",
    "qubit_phi4",
    "qubit_six_design_roots",
    "bloch_state",
    "tensor_fiducial_admissible",
]

BOUND_SLACK = 1e-9
# a float64 frame potential that should equal its design value 1/C(d+t-1, t)
# is graded against it relative to that value, within this
POTENTIAL_RTOL = 1e-12
# orbit_frame_potential acts on its Monte-Carlo samples in blocks of at most
# MC_BLOCK samples, fewer where their coefficient tables would pass
# MC_BLOCK_BYTES (_mc_block): 768 samples for n <= 5, 327 at n = 6, 62 at n = 8
MC_BLOCK = 768
MC_BLOCK_BYTES = 4 << 20


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


class DesignReport(_Record):
    """Per-state metric bundle; phi4 is the orbit potential implied by epsilon."""

    __slots__ = ("n", "d", "ell4", "alpha_plus", "epsilon", "phi4", "op_norm_dev",
                 "trace_norm_dev", "bounds_ok")

    def __init__(self, n: int, d: int, ell4: float, alpha_plus: float, epsilon: float,
                 phi4: float, op_norm_dev: float, trace_norm_dev: float, bounds_ok: dict):
        _set(self, "n", n)
        _set(self, "d", d)
        _set(self, "ell4", ell4)
        _set(self, "alpha_plus", alpha_plus)
        _set(self, "epsilon", epsilon)
        _set(self, "phi4", phi4)
        _set(self, "op_norm_dev", op_norm_dev)
        _set(self, "trace_norm_dev", trace_norm_dev)
        _set(self, "bounds_ok", bounds_ok)

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
    """All deviation metrics of a normalized state; the kernel reads the
    norm off Xi(0) and raises NormalizationError."""
    n = _infer_n(psi)
    d = 1 << n
    ell4 = float(_ell4_rows(psi[None, :])[0])
    alpha = ell4 / d**2
    eps = epsilon_from_ell4(ell4, d)
    d_plus = (d + 1) * (d + 2) // 6
    phi4 = fourth_moment(eps, eps, d)
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


def fourth_moment(eps_a, eps_b, d: int):
    """E_U |<phi|U psi>|^8 over the Clifford group, for states phi and psi
    of deviations eps_a and eps_b in dimension d:

        (1 + 4 eps_a eps_b / ((d-1)(d+4))) / C(d+3, 4).

    The paper splits the fourth moment of an orbit as E_C (C psi)^{x4} =
    alpha_+ P_+/D_+ + (1 - alpha_+) P_-/D_-, so this is alpha_a alpha_b / D_+
    + (1 - alpha_a)(1 - alpha_b) / D_-, bilinear in epsilon.  At eps_a =
    eps_b = epsilon(psi) it is the orbit's fourth frame potential; for a
    mixture of orbits with total weights W_i it is that potential at the
    weighted mean W_1 eps_1 + W_2 eps_2.  Elementwise.
    """
    return (1.0 + 4.0 * eps_a * eps_b / ((d - 1) * (d + 4))) / sym_dim(d, 4)


def epsilon_from_ell4(ell4, d: int):
    """epsilon = d(d+3)/4 * alpha_+ - 1 with alpha_+ = ell4 / d^2, elementwise."""
    return d * (d + 3) / 4 * (ell4 / d**2) - 1.0


def epsilon(psi: np.ndarray) -> float:
    """Deviation of the Clifford orbit of psi from a 4-design (0 = exact)."""
    d = 1 << _infer_n(psi)
    return epsilon_from_ell4(alpha_plus(psi) * d**2, d)


# ---------------------------------------------------------------------------
# frame potentials


def orbit_frame_potential(psi: np.ndarray, t: int, mode: str = "exact",
                          samples: int = 10000, rng=None):
    """Frame potential of the projective Clifford orbit of psi.

    Exact mode at t = 4 is the closed form fourth_moment(eps, eps, d) at
    any n, the same number as design_report(psi).phi4, bit for bit.  At
    other t it averages |<psi|U psi>|^{2t} over the whole projective group
    (equal to the orbit double sum by invariance; n <= 2): each symplectic's
    transvection word acts on psi, and the d^2 Paulis of its coset come
    from one Walsh-Hadamard product per X-mask (clifford._coset_overlaps);
    that group sum is also the test oracle of the t = 4 closed form.
    Monte-Carlo mode samples uniform projective Cliffords and returns
    (estimate, standard error).  It draws them from rng in blocks of
    _mc_block(n) samples, each decoded and decomposed as one stack, and
    applies each block's labelled words to psi (clifford._act_words)
    without forming a unitary.  The draws follow the order of one
    random_clifford call per sample, and the action of a stack equals that
    of each sample alone, so a seed gives the same estimate at any block
    size.

    The standard error is std / sqrt(samples), and on heavy-tailed orbits
    (n >= 4) it underestimates the true error badly: a sample that misses
    the rare large overlaps has a small spread as well as a small mean.
    On psi_T^(x)5 at 100 samples, one seed in 300 landed 15 reported
    standard errors below the exact potential.
    """
    n = _infer_n(psi)
    if mode == "exact" and t == 4:
        return design_report(psi).phi4
    from . import clifford

    _check_normalized(psi)
    if mode == "exact":
        ov = clifford._coset_overlaps(psi, clifford._symplectic_images(psi, n))
        return float(np.mean(ov ** (2 * t)))
    if mode == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        vals = np.empty(samples)
        block = _mc_block(n)
        for lo in range(0, samples, block):
            _, words, lengths, labels = clifford._sample_words(n, rng, min(block, samples - lo))
            states = clifford._act_words(n, words, lengths, psi[None, :], labels)[:, 0]
            vals[lo:lo + len(states)] = _overlap_powers(psi, states, t)
        est = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(samples))
        return est, stderr
    raise ValueError(f"unknown mode {mode!r}")


def _mc_block(n: int) -> int:
    """Samples per Monte-Carlo block at n qubits: MC_BLOCK, or as many as
    keep their coefficient tables, 8 (4n + 1) 2^n bytes each (words of at
    most 4n vectors and a label), within MC_BLOCK_BYTES; at least one."""
    return max(1, min(MC_BLOCK, MC_BLOCK_BYTES // (8 * (4 * n + 1) << n)))


def _overlap_powers(psi: np.ndarray, states: np.ndarray, t: int) -> np.ndarray:
    """|<psi|phi>|^{2t} for every row phi of states, each summed alone."""
    return np.abs((states * psi.conj()).sum(axis=-1)) ** (2 * t)


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
